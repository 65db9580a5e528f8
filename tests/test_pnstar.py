import pytest

import starcurves.tangent as tangent
from starcurves.fields import PrimeField
from starcurves.formulas import LUROTH_SOURCE, STAR_IDEAL_SOURCE, upper_bounds
from starcurves.pnstar import conjecture_row
from starcurves.starconfig import (GenericityError, LinearForm,
                                   StarConfiguration, build_star,
                                   random_star)
from starcurves.tangent import _hat_product, certify, generators

GF = PrimeField()


def coordinate_hyperplanes(n):
    return [LinearForm(GF, [1 if j == i else 0 for j in range(n + 1)])
            for i in range(n + 1)]


def test_n2_reproduces_plane_configuration():
    forms = random_star(5, 13, GF).forms
    plane = build_star(forms)
    pn = StarConfiguration(forms)
    assert {tuple(k) for k in pn.points} == set(plane.points)
    for key, p in plane.points.items():
        assert pn.points[key] == p
    # generators over singleton complements are exactly the hat products
    for i, hat in enumerate(generators(plane), start=1):
        assert generators(pn)[i - 1] == hat == _hat_product(plane, i)


def test_p3_coordinate_hyperplanes():
    config = build_star(coordinate_hyperplanes(3))
    assert len(config.points) == 4
    assert set(config.point_list()) == \
        {(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)}


def test_p3_point_count():
    forms = random_star(5, 3, GF, n=3).forms
    config = build_star(forms)
    assert len(config.points) == 10   # C(5, 3)
    assert all(g.degree == 3 for g in generators(config))


def test_points_lie_on_their_hyperplanes_only():
    forms = random_star(5, 21, GF, n=3).forms
    config = build_star(forms)
    for subset, p in config.points.items():
        for k, form in enumerate(config.forms, start=1):
            val = form.evaluate(p)
            if k in subset:
                assert GF.is_zero(val)
            else:
                assert not GF.is_zero(val)


def test_generators_vanish_on_configuration():
    forms = random_star(5, 8, GF, n=3).forms
    config = build_star(forms)
    for gen in generators(config):
        for p in config.point_list():
            assert GF.is_zero(gen.evaluate(p))


def test_degenerate_hyperplanes_rejected():
    forms = coordinate_hyperplanes(3)
    forms.append(LinearForm(GF, [1, 1, 0, 0]))   # dependent with L1, L2
    with pytest.raises(GenericityError):
        build_star(forms)


def test_n2_agrees_with_plane_lower_bound():
    for l in (3, 4, 5):
        for d in range(l - 1, l + 2):
            a = certify(d, l, GF, trials=1, seed=6, n=2).lower_bound
            b = certify(d, l, GF, trials=1, seed=6).lower_bound
            assert a == b


def test_n3_never_exceeds_formula():
    for l in (3, 4):
        for d in range(l - 1, l + 2):
            lower = certify(d, l, GF, trials=1, seed=2, n=3).lower_bound
            assert lower <= min(v for _, v in upper_bounds(d, l, 3))


def test_conjecture_row_fields():
    row = conjecture_row(3, 3, 4, GF, trials=1, seed=5)
    assert (row["n"], row["d"], row["l"]) == (3, 3, 4)
    assert row["formula_min"] == 19
    assert row["status"] in ("CONFIRMED", "OPEN")
    assert row["lower_bound"] <= row["formula_min"]


def test_conjecture_row_luroth_case_is_open():
    # the plane formula overshoots the certified Luroth dimension 13 by one;
    # a lower bound from random data leaves the row open, never refuted
    row = conjecture_row(2, 4, 5, GF, trials=1, seed=0)
    assert (row["lower_bound"], row["formula_min"]) == (13, 14)
    assert row["status"] == "OPEN"


def test_luroth_row_is_certified_but_open_in_pn():
    """The Luroth bound is an outside fact: `certify` uses it and
    certifies the row, `pn` leaves it out and reports the row open."""
    cert = certify(4, 5, GF, trials=1, seed=0)
    assert (cert.verdict, cert.lower_bound) == ("CERTIFIED", 13)
    assert LUROTH_SOURCE in cert.external_facts
    assert conjecture_row(2, 4, 5, GF, trials=1, seed=0)["status"] == "OPEN"


#: The statuses `pn` reads for the verdicts of `certify` in P^n, n >= 3.
PN_STATUS = {"CERTIFIED": "CONFIRMED", "GAP": "OPEN",
             "CONTRADICTION": "CONTRADICTION"}


@pytest.mark.parametrize("seed", [0, 3])
def test_pn_rows_are_certificates(seed):
    """On every (d, l) of `pn --n 3 --dmax 8 --lmax 6`, the row carries the
    certificate's lower bound and least bound, and its status is the
    certificate's verdict; the certificate relies on ideal generation
    alone and has no theorem value."""
    for l in range(3, 7):
        for d in range(l - 1, 9):
            cert = certify(d, l, GF, trials=1, seed=seed, n=3)
            row = conjecture_row(3, d, l, GF, trials=1, seed=seed)
            assert cert.external_facts == [STAR_IDEAL_SOURCE]
            assert cert.theorem_value is None
            assert (row["lower_bound"], row["formula_min"]) == \
                (cert.lower_bound, min(v for _, v in cert.upper_bounds))
            assert row["status"] == PN_STATUS[cert.verdict]


def test_conjecture_row_contradiction(monkeypatch):
    # the P^3 bound at (d, l) = (3, 4) is 19; a lower bound of 20 contradicts it
    monkeypatch.setattr(tangent, "tangent_dim_points", lambda *a, **k: 21)
    row = conjecture_row(3, 3, 4, GF, trials=1)
    assert (row["lower_bound"], row["formula_min"]) == (20, 19)
    assert row["status"] == "CONTRADICTION"


def test_conjecture_row_refuses_an_empty_plane_locus():
    """Below l - 1 the plane certificate is EMPTY, with no bound to
    compare with."""
    with pytest.raises(ValueError, match="empty at d < l - 1 = 4"):
        conjecture_row(2, 3, 5, GF, trials=1)


def test_degree_precondition():
    with pytest.raises(ValueError):
        certify(1, 4, GF, n=3)
    with pytest.raises(ValueError):
        StarConfiguration(coordinate_hyperplanes(1))
