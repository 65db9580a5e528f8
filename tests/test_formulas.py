from math import comb

import pytest

from starcurves.formulas import closed_form_dimension, upper_bounds


def test_luroth_pair():
    assert closed_form_dimension(4, 5) == 13 == \
        dict(upper_bounds(4, 5))["luroth"]


def test_six_lines_d5():
    assert closed_form_dimension(5, 6) == 17


def test_empty_below_threshold():
    assert closed_form_dimension(3, 5) is None


def test_small_l_ambient():
    for l in (2, 3, 4):
        for d in range(l - 1, 10):
            assert closed_form_dimension(d, l) == comb(d + 2, 2) - 1


def test_l5_above_quartic():
    for d in range(5, 10):
        assert closed_form_dimension(d, 5) == comb(d + 2, 2) - 1


def test_large_l_formula():
    assert closed_form_dimension(7, 7) == 36 - 21 + 13


def test_invalid_arguments():
    with pytest.raises(ValueError):
        closed_form_dimension(-1, 4)
    with pytest.raises(ValueError):
        closed_form_dimension(3, 1)


def test_upper_bounds_luroth_case():
    assert upper_bounds(4, 5) == [("ambient", 14), ("incidence", 14),
                                  ("luroth", 13)]


def test_upper_bounds_six_lines():
    assert upper_bounds(5, 6) == [("ambient", 20), ("incidence", 17)]


def test_upper_bounds_small_l_dominated_by_ambient():
    bounds = dict(upper_bounds(9, 4))
    assert bounds == {"ambient": 54, "incidence": 56}
    assert min(bounds.values()) == 54


def test_theorem_value_is_the_papers_piecewise_value():
    """The paper's theorem case by case: empty below l - 1, the Luroth
    quartics one below the ambient count, the ambient count C(d+2,2) - 1
    for l <= 5 and the incidence count C(d+2,2) - C(l,2) + 2l - 1 for
    l >= 6."""
    for l in range(2, 41):
        for d in range(61):
            ambient = comb(d + 2, 2) - 1
            if d < l - 1:
                expected = None
            elif (d, l) == (4, 5):
                expected = ambient - 1
            elif l <= 5:
                expected = ambient
            else:
                expected = comb(d + 2, 2) - comb(l, 2) + 2 * l - 1
            assert closed_form_dimension(d, l) == expected, (d, l)


def test_large_l_attains_incidence_bound():
    for l in range(6, 13):
        for d in range(l - 1, 16):
            assert closed_form_dimension(d, l) == \
                dict(upper_bounds(d, l))["incidence"]


def test_small_l_attains_ambient_bound():
    for l in (2, 3, 4):
        for d in range(l - 1, 16):
            assert closed_form_dimension(d, l) == comb(d + 2, 2) - 1
    for d in range(5, 16):
        assert closed_form_dimension(d, 5) == comb(d + 2, 2) - 1


def test_pn_upper_bound_specializes_to_plane():
    """At n = 2 the two counts are the plane's bounds; only the Luroth pair
    has a lower one, from an outside fact."""
    for l in range(2, 10):
        for d in range(l - 1, 12):
            counts = min(v for s, v in upper_bounds(d, l, 2) if s != "luroth")
            assert counts == min(v for _, v in upper_bounds(d, l)) + \
                ((d, l) == (4, 5))


def test_pn_upper_bound_examples():
    assert upper_bounds(4, 4, 3) == [("ambient", 34), ("incidence", 42)]
    assert upper_bounds(7, 8, 3) == [("ambient", 119), ("incidence", 87)]
    # the Luroth bound is a fact about plane quartics only
    assert upper_bounds(4, 5, 3) == [("ambient", 34), ("incidence", 39)]


def test_pn_upper_bound_preconditions():
    with pytest.raises(ValueError):
        upper_bounds(4, 4, 1)
    with pytest.raises(ValueError):
        upper_bounds(2, 4, 3)
    with pytest.raises(ValueError):
        upper_bounds(3, 5)
