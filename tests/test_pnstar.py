import pytest

import starcurves.pnstar as pnstar
from starcurves.fields import PrimeField
from starcurves.formulas import pn_upper_bound
from starcurves.pnstar import conjecture_row
from starcurves.starconfig import (GenericityError, LinearForm,
                                   StarConfiguration, build_star,
                                   random_general_forms)
from starcurves.tangent import LowerBoundResult, lower_bound_dim_S

GF = PrimeField()


def coordinate_hyperplanes(n):
    return [LinearForm(GF, [1 if j == i else 0 for j in range(n + 1)])
            for i in range(n + 1)]


def test_n2_reproduces_plane_configuration():
    forms = random_general_forms(5, 13, GF)
    plane = build_star(forms)
    pn = StarConfiguration(forms)
    assert {tuple(k) for k in pn.points} == set(plane.points)
    for key, p in plane.points.items():
        assert pn.points[key] == p
    # generators over singleton complements are exactly the hat products
    for i, hat in enumerate(plane.generators, start=1):
        assert pn.generators[i - 1] == hat == plane.hat_product_without(i)


def test_p3_coordinate_hyperplanes():
    config = build_star(coordinate_hyperplanes(3))
    assert len(config.points) == 4
    coords = {p.coordinates for p in config.point_list()}
    assert coords == {(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)}


def test_p3_point_count():
    forms = random_general_forms(5, 3, GF, n=3)
    config = build_star(forms)
    assert len(config.points) == 10   # C(5, 3)
    assert all(g.degree == 3 for g in config.generators)


def test_points_lie_on_their_hyperplanes_only():
    forms = random_general_forms(5, 21, GF, n=3)
    config = build_star(forms)
    for subset, p in config.points.items():
        for k, form in enumerate(config.forms, start=1):
            val = form.evaluate(p)
            if k in subset:
                assert GF.is_zero(val)
            else:
                assert not GF.is_zero(val)


def test_generators_vanish_on_configuration():
    forms = random_general_forms(5, 8, GF, n=3)
    config = build_star(forms)
    for gen in config.generators:
        for p in config.point_list():
            assert GF.is_zero(gen.evaluate(p.coordinates))


def test_degenerate_hyperplanes_rejected():
    forms = coordinate_hyperplanes(3)
    forms.append(LinearForm(GF, [1, 1, 0, 0]))   # dependent with L1, L2
    with pytest.raises(GenericityError):
        build_star(forms)


def test_n2_agrees_with_plane_lower_bound():
    for l in (3, 4, 5):
        for d in range(l - 1, l + 2):
            a = lower_bound_dim_S(d, l, GF, trials=1, seed=6, n=2).lower_bound
            b = lower_bound_dim_S(d, l, GF, trials=1, seed=6).lower_bound
            assert a == b


def test_n3_never_exceeds_formula():
    for l in (3, 4):
        for d in range(l - 1, l + 2):
            lower = lower_bound_dim_S(d, l, GF, trials=1, seed=2,
                                      n=3).lower_bound
            assert lower <= pn_upper_bound(3, d, l)


def test_conjecture_row_fields():
    row = conjecture_row(3, 3, 4, GF, trials=1, seed=5)
    assert (row.n, row.d, row.l) == (3, 3, 4)
    assert row.formula_min == 19
    assert row.status in ("CONFIRMED", "OPEN")
    assert row.lower_bound <= row.formula_min


def test_conjecture_row_luroth_case_is_open():
    # the plane formula overshoots the certified Luroth dimension 13 by one;
    # a lower bound from random data leaves the row open, never refuted
    row = conjecture_row(2, 4, 5, GF, trials=1, seed=0)
    assert (row.lower_bound, row.formula_min) == (13, 14)
    assert row.status == "OPEN"


def test_conjecture_row_contradiction(monkeypatch):
    # the P^3 bound at (d, l) = (3, 4) is 19; a lower bound of 20 contradicts it
    monkeypatch.setattr(pnstar, "lower_bound_dim_S",
                        lambda d, l, *a, **k: LowerBoundResult(d, l, 20, [21],
                                                               [0]))
    row = conjecture_row(3, 3, 4, GF, trials=1)
    assert (row.lower_bound, row.formula_min) == (20, 19)
    assert row.status == "CONTRADICTION"


def test_degree_precondition():
    with pytest.raises(ValueError):
        lower_bound_dim_S(1, 4, GF, n=3)
    with pytest.raises(ValueError):
        StarConfiguration(coordinate_hyperplanes(1))
