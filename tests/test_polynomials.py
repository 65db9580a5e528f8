import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starcurves.fields import DEFAULT_PRIME, PrimeField, QQ
import starcurves.polynomials as polynomials_mod
from starcurves.polynomials import (LARGE_BASIS, HomogeneousPoly,
                                    exponent_columns,
                                    monomial_values, monomials_of_degree,
                                    poly_product)
from starcurves.starconfig import LinearForm
from starcurves.tangent import _linear_poly

from draws import single_draw
from per_monomial import graded_lex_basis, per_monomial_values
from product_rule import perturbation_coefficient, variable

GF7 = PrimeField(7)


def rand_poly(field, nvars, degree, rng):
    basis = monomials_of_degree(nvars, degree)
    return HomogeneousPoly(field, nvars, degree,
                           {m: single_draw(field, rng) for m in basis})


# -- monomial bases ---------------------------------------------------------

def test_monomials_degree_zero():
    assert monomials_of_degree(3, 0) == ((0, 0, 0),)


def test_monomials_counts():
    assert len(monomials_of_degree(3, 2)) == 6
    # stars and bars: C(3 + 4 - 1, 4 - 1) = C(6, 3) = 20
    assert len(monomials_of_degree(4, 3)) == 20
    for nvars in range(1, 5):
        for d in range(6):
            assert len(monomials_of_degree(nvars, d)) == \
                comb(d + nvars - 1, nvars - 1)


def test_monomials_graded_lex_order():
    ms = monomials_of_degree(3, 2)
    assert ms[0] == (2, 0, 0)
    assert ms[-1] == (0, 0, 2)
    assert list(ms) == sorted(ms, reverse=True)


# -- arithmetic -------------------------------------------------------------

def test_product_of_variables():
    x0 = variable(QQ, 3, 0)
    x1 = variable(QQ, 3, 1)
    assert (x0 * x1).terms == {(1, 1, 0): 1}


def test_difference_of_squares():
    p = _linear_poly(LinearForm(QQ, [1, 1, 0]))
    q = _linear_poly(LinearForm(QQ, [1, -1, 0]))
    assert p * q == HomogeneousPoly(QQ, 3, 2, {(2, 0, 0): 1, (0, 2, 0): -1})


def test_homogeneity_enforced():
    with pytest.raises(ValueError):
        HomogeneousPoly(QQ, 3, 2, {(1, 0, 0): 1})
    with pytest.raises(ValueError):
        HomogeneousPoly(QQ, 3, 2, {(2, 0, 0): 1, (0, 1, 0): 1})


def test_zero_coefficients_dropped():
    p = _linear_poly(LinearForm(GF7, [1, 1, 0]))
    q = _linear_poly(LinearForm(GF7, [0, 6, 0]))   # -x1 mod 7
    assert (p + q).terms == {(1, 0, 0): 1}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**30), st.integers(1, 3), st.integers(1, 3))
def test_ring_laws(seed, da, db):
    rng = random.Random(seed)
    a = rand_poly(GF7, 3, da, rng)
    b = rand_poly(GF7, 3, db, rng)
    c = rand_poly(GF7, 3, da, rng)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert (a + c) * b == a * b + c * b


def test_evaluation_examples():
    x0 = variable(QQ, 3, 0)
    x2 = variable(QQ, 3, 2)
    point = [0, 0, 1]
    assert x0.evaluate(point) == 0
    assert x2.evaluate(point) == 1
    l5 = _linear_poly(LinearForm(QQ, [1, 2, 3]))
    assert l5.evaluate(point) == 3


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**30))
def test_evaluation_is_multiplicative(seed):
    rng = random.Random(seed)
    a = rand_poly(GF7, 3, rng.randint(1, 3), rng)
    b = rand_poly(GF7, 3, rng.randint(1, 3), rng)
    pt = [single_draw(GF7, rng) for _ in range(3)]
    assert (a * b).evaluate(pt) == GF7.mul(a.evaluate(pt), b.evaluate(pt))


def evaluate_by_terms(poly, coords):
    """The definition: each coefficient times its coordinates, one
    multiplication per unit of exponent."""
    f = poly.field
    total = 0
    for mono, coeff in poly.terms.items():
        val = coeff
        for x, e in zip(coords, mono):
            for _ in range(e):
                val = f.mul(val, x)
        total = f.from_int(total + val)
    return total


def random_monomial(nvars, degree, rng):
    cuts = sorted(rng.randint(0, degree) for _ in range(nvars - 1))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [degree]))


@settings(max_examples=120, deadline=None)
@given(field=st.sampled_from([PrimeField(), PrimeField(5), QQ]),
       nvars=st.integers(1, 4), degree=st.integers(0, 5),
       shape=st.sampled_from(["dense", "sparse", "zero"]),
       integer_coords=st.booleans(), seed=st.integers(0, 2**30))
def test_evaluate_matches_term_by_term(field, nvars, degree, shape,
                                       integer_coords, seed):
    rng = random.Random(seed)
    if shape == "dense":
        poly = rand_poly(field, nvars, degree, rng)
    elif shape == "sparse":   # a few monomials of high degree
        degree += 40
        poly = HomogeneousPoly(field, nvars, degree, {
            random_monomial(nvars, degree, rng): single_draw(field, rng)
            for _ in range(rng.randint(1, 3))})
    else:
        poly = HomogeneousPoly.zero(field, nvars, degree)
    if integer_coords:
        coords = [rng.randint(-10**6, 10**6) for _ in range(nvars)]
    elif field == QQ:
        coords = [Fraction(rng.randint(-99, 99), rng.randint(1, 99))
                  for _ in range(nvars)]
    else:
        coords = [single_draw(field, rng) for _ in range(nvars)]
    value = poly.evaluate(coords)
    expected = evaluate_by_terms(poly, coords)
    assert value == expected
    assert type(value) is type(expected)


def test_monomial_values_of_integer_coordinates_are_integers():
    values = monomial_values(QQ, [2, 3, 5], 2, exponent_columns(3, 2))
    assert values == [4, 6, 10, 9, 15, 25]
    assert all(type(v) is int for v in values)
    # residues of GF(7) are multiplied but not reduced
    assert monomial_values(GF7, [3, 5], 2, [(1,), (1,)]) == [15]


KERNEL_FIELDS = [QQ, PrimeField(2), PrimeField(13), PrimeField(DEFAULT_PRIME),
                 PrimeField(2**61 - 1)]


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
@pytest.mark.parametrize("nvars", range(1, 7))
def test_monomial_values_match_the_per_monomial_product(field, nvars):
    """The exponent-column kernel gives the per-monomial products, value
    for value and type for type: over full bases of degree 0..12 (and 64
    in up to three variables), random sparse lists in any order, and the
    empty list, at random points with zero coordinates among them; and
    the columns are the transposed basis, which is the graded-lex one
    built a tuple at a time."""
    rng = random.Random(nvars)
    for degree in [*range(13), *([64] if nvars <= 3 else [])]:
        basis = monomials_of_degree(nvars, degree)
        assert basis == graded_lex_basis(nvars, degree)
        assert exponent_columns(nvars, degree) == tuple(zip(*basis))
        sparse = [rng.choice(basis) for _ in range(rng.randrange(1, 6))]
        for monos in (basis, sparse, []):
            coords = [single_draw(field, rng) for _ in range(nvars)]
            if degree % 3 == 1:
                coords[rng.randrange(nvars)] = 0
            got = monomial_values(field, coords, degree,
                                  tuple(zip(*monos)))
            expected = per_monomial_values(field, coords, degree, monos)
            assert got == expected
            assert list(map(type, got)) == list(map(type, expected))


def test_only_the_latest_large_basis_is_kept():
    """A run of degrees keeps every basis of at most LARGE_BASIS monomials
    and, of the larger ones, only the latest: each the basis a fresh build
    gives, in three and four variables."""
    kept, latest = polynomials_mod._kept_columns, \
        polynomials_mod._latest_columns
    kept.cache_clear()
    latest.cache_clear()
    for nvars, top in ((3, 100), (4, 36)):
        for degree in range(top):
            big = comb(degree + nvars - 1, degree) > LARGE_BASIS
            assert exponent_columns(nvars, degree) == tuple(zip(*(
                graded_lex_basis(nvars, degree))))
            assert latest.cache_info().currsize <= 1
            if big:
                assert latest(nvars, degree) is exponent_columns(nvars,
                                                                 degree)
        assert big      # the run went past LARGE_BASIS
    # every small basis of both runs, and the two-variable columns of
    # degrees 0..99 the three-variable recursion reads
    small = sum(comb(degree + nvars - 1, degree) <= LARGE_BASIS
                for nvars, top in ((3, 100), (4, 36)) for degree in range(top))
    assert kept.cache_info().currsize == small + 100


def test_bench_sweep_builds_each_basis_once(capsys):
    """The bench's plane sweep (d <= 13, l <= 10) ranks at multiplier
    degrees 0..12, in turn for every l: each is built once, and a second
    sweep builds none."""
    from starcurves.cli import main
    kept = polynomials_mod._kept_columns
    kept.cache_clear()
    argv = ["sweep", "--dmax", "13", "--lmax", "10", "--trials", "1"]
    assert main(argv) == 0
    first = kept.cache_info()
    # the 13 three-variable bases, and the 13 two-variable ones they read
    assert first.misses == 13 + 13
    assert main(argv) == 0
    assert kept.cache_info().misses == first.misses
    assert kept.cache_info().hits > first.hits
    capsys.readouterr()


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
@pytest.mark.parametrize("nvars, degree", [(1, 0), (3, 0), (3, 2), (5, 4)])
def test_zero_polynomial_evaluates_to_zero(field, nvars, degree):
    rng = random.Random(degree)
    coords = [single_draw(field, rng) for _ in range(nvars)]
    assert HomogeneousPoly.zero(field, nvars, degree).evaluate(coords) == 0


def test_coefficient_vector_roundtrip():
    rng = random.Random(8)
    for d in range(4):
        p = rand_poly(QQ, 3, d, rng)
        vec = p.coefficient_vector()
        assert len(vec) == comb(d + 2, 2)
        assert {m: c for m, c in zip(monomials_of_degree(3, d), vec)
                if c} == p.terms


# -- perturbation expansion -------------------------------------------------

def test_perturbation_single_factor():
    l = _linear_poly(LinearForm(QQ, [1, 1, 0]))
    lp = _linear_poly(LinearForm(QQ, [0, 0, 1]))
    assert perturbation_coefficient([(l, lp)]) == lp


def test_perturbation_product_rule_two_factors():
    rng = random.Random(3)
    a, ap = rand_poly(QQ, 3, 1, rng), rand_poly(QQ, 3, 1, rng)
    b, bp = rand_poly(QQ, 3, 2, rng), rand_poly(QQ, 3, 2, rng)
    assert perturbation_coefficient([(a, ap), (b, bp)]) == ap * b + a * bp


def test_perturbation_all_zero_directions():
    rng = random.Random(4)
    zero = HomogeneousPoly.zero(QQ, 3, 1)
    factors = [(rand_poly(QQ, 3, 1, rng), zero) for _ in range(4)]
    assert perturbation_coefficient(factors).is_zero()


def test_perturbation_single_nonzero_direction():
    rng = random.Random(5)
    bases = [rand_poly(QQ, 3, 1, rng) for _ in range(5)]
    zero = HomogeneousPoly.zero(QQ, 3, 1)
    x0 = variable(QQ, 3, 0)
    factors = [(b, x0 if i == 0 else zero) for i, b in enumerate(bases)]
    expected = x0 * poly_product(bases[1:], QQ, 3)
    assert perturbation_coefficient(factors) == expected


def test_perturbation_empty_list_rejected():
    with pytest.raises(ValueError):
        perturbation_coefficient([])


# -- sums of unequal degrees and repr --------------------------------------

@pytest.mark.parametrize("field", [QQ, GF7])
def test_sum_refuses_a_zero_of_another_degree(field):
    """A zero polynomial keeps its declared degree, so adding it to a
    polynomial of another degree is the same mismatch as any other."""
    x0 = variable(field, 3, 0)
    zero = HomogeneousPoly.zero(field, 3, 2)
    for a, b in ((x0, zero), (zero, x0),
                 (zero, HomogeneousPoly.zero(field, 3, 1))):
        with pytest.raises(ValueError, match="degrees (1 and 2|2 and 1)"):
            a + b
    assert (zero + HomogeneousPoly.zero(field, 3, 2)).degree == 2


def test_repr_shows_the_degree_and_the_term_map():
    p = HomogeneousPoly(QQ, 3, 2, {(1, 1, 0): -1, (0, 0, 2): 1})
    assert repr(p) == "HomogeneousPoly(2, {(1, 1, 0): -1, (0, 0, 2): 1})"
    assert repr(HomogeneousPoly.zero(GF7, 3, 4)) == "HomogeneousPoly(4, {})"
