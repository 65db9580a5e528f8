import json
import random
from fractions import Fraction
from math import comb

import pytest

from starcurves import starconfig
from starcurves.fields import PrimeField, QQ
from starcurves.polynomials import parse_poly
from starcurves.reference_cases import five_line_forms, six_line_forms
from starcurves.starconfig import (GenericityError, LinearForm,
                                   ProjectivePoint, build_star,
                                   configuration_to_json_str,
                                   hilbert_function, intersection_point,
                                   arc_bound, parse_forms,
                                   random_general_forms, random_star)
from starcurves.tangent import ideal_component_dim

GF = PrimeField()


def coordinate_forms(field=QQ):
    return [LinearForm(field, [field.from_int(1 if i == j else 0)
                               for j in range(3)]) for i in range(3)]


def is_general(forms):
    """True iff the forms build a star configuration (every 3 independent)."""
    try:
        build_star(forms)
    except GenericityError:
        return False
    return True


def test_is_general_coordinate_triangle():
    assert is_general(coordinate_forms())


def test_is_general_concurrent_lines():
    f = QQ
    forms = [LinearForm(f, [Fraction(1), Fraction(0), Fraction(0)]),
             LinearForm(f, [Fraction(0), Fraction(1), Fraction(0)]),
             LinearForm(f, [Fraction(1), Fraction(1), Fraction(0)])]
    assert not is_general(forms)


def test_is_general_reference_five_lines():
    assert is_general(five_line_forms(QQ))


def test_is_general_two_forms():
    f = QQ
    a = LinearForm(f, [Fraction(1), Fraction(0), Fraction(0)])
    b = LinearForm(f, [Fraction(2), Fraction(0), Fraction(0)])
    c = LinearForm(f, [Fraction(0), Fraction(1), Fraction(0)])
    assert is_general([a, c])
    assert not is_general([a, b])


def test_intersection_coordinate_lines():
    x0, x1, x2 = coordinate_forms()
    assert intersection_point(x0, x1).coordinates == \
        (Fraction(0), Fraction(0), Fraction(1))
    assert intersection_point(x1, x2).coordinates == \
        (Fraction(1), Fraction(0), Fraction(0))


def test_intersection_derived_example():
    x0 = coordinate_forms()[0]
    plane = LinearForm(QQ, [Fraction(1), Fraction(1), Fraction(1)])
    p = intersection_point(x0, plane)
    # solving x0 = 0, x0 + x1 + x2 = 0 gives (0 : -1 : 1)
    assert p.coordinates == (Fraction(0), Fraction(-1), Fraction(1))


def test_intersection_symmetry():
    forms = random_general_forms(4, 17, GF)
    for a in forms:
        for b in forms:
            if a is not b:
                assert intersection_point(a, b) == intersection_point(b, a)


def test_intersection_dependent_forms_rejected():
    a = LinearForm(QQ, [Fraction(1), Fraction(2), Fraction(0)])
    b = LinearForm(QQ, [Fraction(2), Fraction(4), Fraction(0)])
    with pytest.raises(GenericityError):
        intersection_point(a, b)


def test_point_normalization():
    p = ProjectivePoint(QQ, [Fraction(3), Fraction(6), Fraction(0)])
    assert p.coordinates == (Fraction(1, 2), Fraction(1), Fraction(0))
    assert p.coordinates[1] == 1   # last nonzero coordinate is 1


def test_build_star_triangle():
    star = build_star(coordinate_forms())
    pts = set(star.point_list())
    expected = {ProjectivePoint(QQ, [0, 0, 1]),
                ProjectivePoint(QQ, [0, 1, 0]),
                ProjectivePoint(QQ, [1, 0, 0])}
    assert {p.coordinates for p in pts} == \
        {tuple(map(Fraction, p.coordinates)) for p in expected}


def test_build_star_counts():
    assert len(build_star(six_line_forms(QQ)).points) == 15
    star5 = build_star(five_line_forms(QQ))
    assert len(star5.points) == 10
    assert all(h.degree == 4 for h in star5.generators)


def test_build_star_reports_offending_triple():
    f = QQ
    forms = [LinearForm(f, [Fraction(1), Fraction(0), Fraction(0)]),
             LinearForm(f, [Fraction(0), Fraction(1), Fraction(0)]),
             LinearForm(f, [Fraction(0), Fraction(0), Fraction(1)]),
             LinearForm(f, [Fraction(1), Fraction(1), Fraction(0)])]
    with pytest.raises(GenericityError, match="L1, L2, L4"):
        build_star(forms)


def test_build_star_l2():
    f = QQ
    forms = [LinearForm(f, [Fraction(1), Fraction(0), Fraction(0)]),
             LinearForm(f, [Fraction(0), Fraction(1), Fraction(0)])]
    star = build_star(forms)
    assert len(star.points) == 1
    assert star.points[(1, 2)].coordinates == (0, 0, 1)


def test_points_on_their_lines_only():
    star = build_star(random_general_forms(6, 23, GF))
    for (i, j), p in star.points.items():
        for k, form in enumerate(star.forms, start=1):
            val = form.evaluate(p)
            if k in (i, j):
                assert star.field.is_zero(val)
            else:
                assert not star.field.is_zero(val)


def test_hat_products_vanish_on_configuration():
    star = build_star(random_general_forms(5, 31, GF))
    for hat in star.generators:
        for p in star.point_list():
            assert star.field.is_zero(hat.evaluate(p.coordinates))
    # nonzero at a point off all lines
    rng = random.Random(7)
    while True:
        coords = [GF.random(rng) for _ in range(3)]
        if all(not GF.is_zero(f.poly().evaluate(coords)) for f in star.forms):
            break
    for hat in star.generators:
        assert not GF.is_zero(hat.evaluate(coords))


def test_ideal_empty_below_generator_degree():
    star = build_star(random_general_forms(6, 5, GF))
    for d in range(star.l - 1):
        assert ideal_component_dim(star.generators, d) == 0


def test_random_general_forms_deterministic():
    a = random_general_forms(6, 1234, GF)
    b = random_general_forms(6, 1234, GF)
    assert [f.coefficients for f in a] == [f.coefficients for f in b]


def test_random_general_forms_first_draw_success():
    # over a 30-bit prime field a degenerate draw is essentially impossible
    for seed in range(100):
        forms = random_general_forms(8, seed, GF)
        assert is_general(forms)


def test_small_prime_accepts_l_at_arc_bound():
    # an oval of GF(3) (q + 1 lines) and a hyperoval of GF(2) (q + 2)
    for q, bound in ((3, 4), (2, 4)):
        assert arc_bound(2, q) == bound
        forms = random_general_forms(bound, 0, PrimeField(q))
        assert is_general(forms)
    # a frame of P^3 over GF(3): n + 2 planes
    assert is_general(random_general_forms(5, 0, PrimeField(3), n=3))


def test_arc_bound_values():
    # Ball: q + 1 for a prime q > n; Bush: n + 2 for q <= n
    assert arc_bound(3, 3) == 5
    assert arc_bound(3, 5) == 6
    assert arc_bound(3, 2) == 5
    assert arc_bound(4, 7) == 8


def test_small_prime_rejects_l_past_arc_bound():
    with pytest.raises(ValueError, match=r"l = 5 hyperplanes of P\^2 over "
                                         r"GF\(3\).*at most 4"):
        random_general_forms(5, 0, PrimeField(3))
    with pytest.raises(ValueError, match=r"l = 7 hyperplanes of P\^3 over "
                                         r"GF\(3\)"):
        random_general_forms(7, 0, PrimeField(3), n=3)


def test_exhausted_draws_suggest_larger_prime(monkeypatch):
    monkeypatch.setattr(starconfig, "RETRY_BUDGET", 0)
    with pytest.raises(GenericityError, match="try a larger prime"):
        random_star(3, 0, PrimeField(5))


def test_hilbert_function_examples():
    assert hilbert_function(build_star(coordinate_forms()), 1) == 3
    assert hilbert_function(build_star(five_line_forms(QQ)), 3) == 10
    assert hilbert_function(build_star(six_line_forms(QQ)), 2) == 6


def test_hilbert_function_formula_small():
    for l in (3, 4, 5):
        star = build_star(random_general_forms(l, 40 + l, GF))
        for t in range(6):
            assert hilbert_function(star, t) == \
                min(comb(t + 2, 2), comb(l, 2))


def test_parse_forms_text_format():
    text = "x0\nx1\n\n# comment\nx0 + 2*x1 + 3*x2\n"
    forms = parse_forms(text, QQ)
    assert len(forms) == 3
    assert forms[2].coefficients == (Fraction(1), Fraction(2), Fraction(3))


def test_linear_form_parse_matches_poly():
    lf = LinearForm.parse("x0 - 2*x2", QQ)
    assert lf.poly() == parse_poly("x0 - 2*x2", QQ, 3)


def test_json_export():
    star = build_star(five_line_forms(QQ))
    data = json.loads(configuration_to_json_str(star))
    assert data["l"] == 5
    assert data["field"] == "rational"
    assert len(data["forms"]) == 5
    assert len(data["points"]) == 10
    assert data["points"]["1,2"] == ["0", "0", "1"]
