import gc
import random
import weakref
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import comb, gcd
from operator import mul
from unittest import mock

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from starcurves import matrices, polynomials, starconfig
from starcurves.fields import DEFAULT_PRIME, PrimeField, QQ
from starcurves.matrices import (PackedEchelonModP, SparseEchelonModP,
                                 rank)
from starcurves.polynomials import (exponent_columns, monomial_values,
                                    monomials_of_degree)
from starcurves.reference_cases import published_star
from starcurves.starconfig import (GenericityError, LinearForm,
                                   StarConfiguration, build_star,
                                   hilbert_function, arc_bound, random_star)
from starcurves.tangent import certify, generators, ideal_component_dim

from draws import single_draw
from gauss_jordan import kernel

GF = PrimeField()
GF3 = PrimeField(3)


def point_of(*forms):
    """The point where n forms in n + 1 variables meet: the one point of
    their star, which refuses dependent forms."""
    return StarConfiguration(forms).point_list()[0]


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
    forms = [LinearForm(f, [1, 0, 0]),
             LinearForm(f, [0, 1, 0]),
             LinearForm(f, [1, 1, 0])]
    assert not is_general(forms)


def test_is_general_reference_five_lines():
    assert is_general(published_star(QQ, 5).forms)


def test_is_general_two_forms():
    f = QQ
    a = LinearForm(f, [1, 0, 0])
    b = LinearForm(f, [2, 0, 0])
    c = LinearForm(f, [0, 1, 0])
    assert is_general([a, c])
    assert not is_general([a, b])


def test_intersection_coordinate_lines():
    x0, x1, x2 = coordinate_forms()
    assert point_of(x0, x1) == (0, 0, 1)
    assert point_of(x1, x2) == (1, 0, 0)


def test_intersection_derived_example():
    x0 = coordinate_forms()[0]
    plane = LinearForm(QQ, [1, 1, 1])
    p = point_of(x0, plane)
    # solving x0 = 0, x0 + x1 + x2 = 0 gives (0 : -1 : 1)
    assert p == (0, -1, 1)


def test_intersection_symmetry():
    forms = random_star(4, 17, GF).forms
    for a in forms:
        for b in forms:
            if a is not b:
                assert point_of(a, b) == point_of(b, a)


def test_intersection_dependent_forms_rejected():
    a = LinearForm(QQ, [1, 2, 0])
    b = LinearForm(QQ, [2, 4, 0])
    with pytest.raises(GenericityError):
        point_of(a, b)


def test_point_normalization():
    """The kernel (-9, -18, 0) of these forms is (1, 2, 0) over Q: no
    common factor, last nonzero entry positive; over GF(7) it is scaled to
    last nonzero entry 1."""
    assert point_of(LinearForm(QQ, [0, 0, 3]),
                              LinearForm(QQ, [-6, 3, 0])) == (1, 2, 0)
    f = PrimeField(7)
    assert point_of(LinearForm(f, [0, 0, 3]),
                              LinearForm(f, [1, 3, 0])) == (4, 1, 0)


def cofactor_det(rows):
    """Reference: the determinant of a square integer matrix by cofactor
    expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * a * cofactor_det([r[:j] + r[j + 1:]
                                             for r in rows[1:]])
               for j, a in enumerate(rows[0]) if a)


def signed_maximal_minors(rows):
    """(-1)^k times the minor without column k, for each column k."""
    return [(-1) ** k * cofactor_det([r[:k] + r[k + 1:] for r in rows])
            for k in range(len(rows[0]))]


@st.composite
def form_rows(draw):
    """(field, n, rows): n coefficient rows of length n + 1, with small
    entries (often dependent) or large ones (any residue over GF(p))."""
    field = draw(st.sampled_from([QQ, GF, PrimeField(5), PrimeField(7),
                                  PrimeField(11)]))
    n = draw(st.integers(2, 5))
    large = st.integers(-10**6, 10**6) if field == QQ else \
        st.integers(0, field.p - 1)
    entry = st.integers(-4, 4) | large
    rows = draw(st.lists(st.lists(entry, min_size=n + 1, max_size=n + 1),
                         min_size=n, max_size=n))
    return field, n, rows


@settings(max_examples=300, deadline=None)
@given(form_rows())
def test_intersection_point_is_the_scaled_minors(case):
    """The point of n forms in n + 1 variables vanishes under each form,
    is primitive with last nonzero entry positive over Q (last nonzero
    entry 1 over GF(p)), and is the signed maximal minors up to a nonzero
    scalar; dependent forms, whose minors all vanish, are refused."""
    field, n, rows = case
    try:
        forms = [LinearForm(field, r) for r in rows]
    except ValueError:      # a zero form
        reject()
    minors = [field.from_int(m) for m in signed_maximal_minors(rows)]
    if not any(minors):
        with pytest.raises(GenericityError):
            point_of(*forms)
        return
    v = point_of(*forms)
    assert len(v) == n + 1 and all(type(x) is int for x in v)
    assert all(field.is_zero(form.evaluate(v)) for form in forms)
    last = next(x for x in reversed(v) if x)
    if field == QQ:
        assert gcd(*v) == 1 and last > 0
    else:
        assert all(0 <= x < field.p for x in v) and last == 1
    assert all(field.is_zero(field.from_int(a * y - b * x))
               for (a, x), (b, y) in combinations(zip(v, minors), 2))


def test_line_is_taken_mod_p():
    """The minor of (2,1,0,0) and (1,3,1,0) in their first two columns is
    5, so over GF(5) a pivot picked from values not reduced mod 5 is 0, and
    the line narrowed by it, or read off integer minors, does not span the
    common zeros and would call these general forms dependent."""
    f = PrimeField(5)
    forms = [LinearForm(f, c) for c in ((2, 1, 0, 0), (1, 3, 1, 0),
                                        (0, 0, 0, 1), (0, 1, 0, 0))]
    assert build_star(forms).points == {
        (1, 2, 3): (2, 1, 0, 0), (1, 2, 4): (0, 0, 0, 1),
        (1, 3, 4): (0, 0, 1, 0), (2, 3, 4): (4, 0, 1, 0)}


def up_to_one_scalar(p, vectors, expected):
    """Whether `vectors` are c times `expected` mod p, entry by entry, for
    one c nonzero mod p (any c when both are 0)."""
    got = [x for v in vectors for x in v]
    want = [x % p for v in expected for x in v]
    c = next((x * pow(y, -1, p) % p for x, y in zip(got, want) if y), None)
    if c is None:
        return len(got) == len(want) and not any(got)
    return c != 0 and got == [c * y % p for y in want]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_narrowed_kernels_are_the_gauss_jordan_minors(n):
    """The kernel of r forms as the star builds it, the first read off one
    form (`_first_kernel`), the next narrowed one form at a time, is vector
    by vector the one Gauss-Jordan reads off their rows: over Q the r x r
    minors, not multiples of them, since each step divides by the last
    pivot; over GF(p), where no step divides, those minors times one
    nonzero scalar mod p, the first kernel the minors themselves mod p.
    Coefficients reach 10^6 before reduction; half the cases have zero
    entries, and in half the first form's leading coefficients are 0, so
    no pivot need be the first vector; in every other case one form is a
    combination of the earlier ones, vanishes on their whole kernel and
    gives zero vectors, as does every later form."""
    for field in (QQ, GF, PrimeField(2), GF3):
        check_narrowed_kernels(n, field)


def check_narrowed_kernels(n, field):
    """The cases of `test_narrowed_kernels_are_the_gauss_jordan_minors`
    over one field."""
    p = field.p if isinstance(field, PrimeField) else None
    rng = random.Random(f"narrow {n} {field!r}")
    for case in range(24):
        sparse = case % 4 >= 2
        rows = [[0 if sparse and rng.random() < 0.5 else
                 field.from_int(rng.randint(-10**6, 10**6))
                 for _ in range(n + 1)] for _ in range(n)]
        if case % 8 >= 4:
            zeros = rng.randint(1, n)
            rows[0][:zeros] = [0] * zeros
        if not any(rows[0]):     # a star's form is never 0
            rows[0][-1] = 1
        dependent = rng.randrange(1, n) if case % 2 else n
        if dependent < n:
            scales = [rng.choice([-9, -1, 1, 9]) for _ in range(dependent)]
            rows[dependent] = [field.from_int(sum(map(mul, scales, column)))
                               for column in zip(*rows[:dependent])]
        basis, pivot = starconfig._first_kernel(rows[0])
        for r in range(1, n + 1):
            if r > 1:
                basis, pivot = starconfig._narrow(p, basis, pivot,
                                                  rows[r - 1])
            expected = kernel(field, rows[:r], n + 1)
            if p is None or r == 1:
                assert [list(map(field.from_int, v)) for v in basis] == [
                    list(map(field.from_int, v)) for v in expected]
            else:
                assert up_to_one_scalar(p, basis, expected)
            if r > dependent:
                assert basis == [[0] * (n + 1)] * (n + 1 - r)


@st.composite
def small_form_rows(draw):
    """(field, n, rows): l = n..n+3 coefficient rows of length n + 1 with
    small entries, so dependent subsets are common; no row is 0 in the
    field."""
    field = draw(st.sampled_from([QQ, GF, PrimeField(5), PrimeField(7),
                                  PrimeField(11)]))
    n = draw(st.integers(2, 4))
    l = draw(st.integers(n, n + 3))
    row = st.lists(st.integers(-3, 3), min_size=n + 1, max_size=n + 1
                   ).filter(lambda r: any(map(field.from_int, r)))
    return field, n, draw(st.lists(row, min_size=l, max_size=l))


@settings(max_examples=300, deadline=None)
@given(small_form_rows())
@example((PrimeField(5), 3, [[2, 1, 0, 0], [1, 3, 1, 0], [0, 0, 0, 1],
                             [0, 1, 0, 0]]))
def test_build_star_is_general_position(case):
    """`build_star` gives each n-subset the point of a star of its n
    forms alone, or names the lexicographically first n + 1 forms whose
    determinant is 0 (mod p); with l = n, all l forms when their maximal
    minors all vanish."""
    field, n, rows = case
    forms = [LinearForm(field, r) for r in rows]
    labels = range(1, len(rows) + 1)
    if len(rows) == n:
        dependent = [] if any(map(field.from_int, signed_maximal_minors(
            rows))) else [tuple(labels)]
    else:
        dependent = [c for c in combinations(labels, n + 1) if field.is_zero(
            field.from_int(cofactor_det([rows[i - 1] for i in c])))]
    if dependent:
        with pytest.raises(GenericityError) as refused:
            build_star(forms)
        assert refused.value.labels == ", ".join(f"L{i}"
                                                 for i in dependent[0])
    else:
        assert build_star(forms).points == {
            s: point_of(*(forms[i - 1] for i in s))
            for s in combinations(labels, n)}


def test_rational_forms_refuse_non_int_coefficients():
    with pytest.raises(ValueError, match="lcm of their denominators"):
        LinearForm(QQ, [Fraction(1, 2), 1, 0])


def test_prime_field_forms_store_residues():
    gf5 = PrimeField(5)
    form = LinearForm(gf5, [6, 0, 0])
    assert form == LinearForm(gf5, [1, 0, 0])
    assert form.coefficients == (1, 0, 0)


@pytest.mark.parametrize("point", [(1, 1, 1, 5), (1, 1)])
def test_evaluate_refuses_a_point_of_another_length(point):
    form = LinearForm(PrimeField(), [1, 2, 3])
    assert form.evaluate((1, 1, 1)) == 6
    with pytest.raises(ValueError, match=f"point of {len(point)}"):
        form.evaluate(point)


@pytest.mark.parametrize("field, n", [(QQ, 2), (QQ, 3), (GF, 2),
                                      (PrimeField(11), 3)])
def test_integer_coordinates_are_the_point(field, n):
    """Each point of a star is the integer vector of its n forms: ints
    that lie on them, residues over GF(p)."""
    stars = [random_star(6, 2, field, n)]
    if n == 2:
        stars.append(published_star(field, 5))
    for star in stars:
        for s, p in star.points.items():
            assert all(type(x) is int for x in p)
            assert p == point_of(*(star.forms[i - 1] for i in s))
            assert all(field.is_zero(star.forms[i - 1].evaluate(p))
                       for i in s)
            if isinstance(field, PrimeField):
                assert all(0 <= x < field.p for x in p)


@pytest.mark.parametrize("field", [QQ, GF])
def test_star_freed_by_reference_counting(monkeypatch, field):
    """The tangent layout and the Hilbert-function generator stored on a
    star hold no reference back to it, so the star, its layout and the
    generator, suspended below saturation with its echelon, go with the
    star's last name."""
    gc.disable()
    try:
        star = random_star(6, 0, field)
        certify(6, 6, field, trials=1, stars=[star])
        assert star._tangent_layout.band
        added = echelon_spy(monkeypatch)
        assert hilbert_function(star, 1) == 3 and len(added) == 3
        dead = weakref.ref(star)
        del star
        assert dead() is None
    finally:
        gc.enable()


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.integers(0, 4), st.integers(0, 2**32),
       st.sampled_from([QQ, GF, PrimeField(13)]))
def test_points_come_in_key_order(n, extra, seed, field):
    """`points` is filled in sorted key order, which `point_keys` and
    `point_list` return as they are."""
    star = random_star(n + extra, seed, field, n)
    assert list(star.points) == sorted(star.points) == star.point_keys()
    assert star.point_list() == [star.points[k] for k in sorted(star.points)]


def test_build_star_triangle():
    star = build_star(coordinate_forms())
    assert set(star.point_list()) == {(0, 0, 1), (0, 1, 0), (1, 0, 0)}


def test_build_star_counts():
    assert len(published_star(QQ, 6).points) == 15
    star5 = published_star(QQ, 5)
    assert len(star5.points) == 10
    assert all(h.degree == 4 for h in generators(star5))


def test_build_star_reports_offending_triple():
    f = QQ
    forms = [LinearForm(f, [1, 0, 0]),
             LinearForm(f, [0, 1, 0]),
             LinearForm(f, [0, 0, 1]),
             LinearForm(f, [1, 1, 0])]
    with pytest.raises(GenericityError, match="L1, L2, L4"):
        build_star(forms)


def test_build_star_l2():
    f = QQ
    forms = [LinearForm(f, [1, 0, 0]),
             LinearForm(f, [0, 1, 0])]
    star = build_star(forms)
    assert len(star.points) == 1
    assert star.points[(1, 2)] == (0, 0, 1)


def test_points_on_their_lines_only():
    star = random_star(6, 23, GF)
    for (i, j), p in star.points.items():
        for k, form in enumerate(star.forms, start=1):
            val = form.evaluate(p)
            if k in (i, j):
                assert star.field.is_zero(val)
            else:
                assert not star.field.is_zero(val)


def test_hat_products_vanish_on_configuration():
    star = random_star(5, 31, GF)
    for hat in generators(star):
        for p in star.point_list():
            assert star.field.is_zero(hat.evaluate(p))
    # nonzero at a point off all lines
    rng = random.Random(7)
    while True:
        coords = [single_draw(GF, rng) for _ in range(3)]
        if all(not GF.is_zero(f.evaluate(coords)) for f in star.forms):
            break
    for hat in generators(star):
        assert not GF.is_zero(hat.evaluate(coords))


def test_ideal_empty_below_generator_degree():
    star = random_star(6, 5, GF)
    for d in range(star.l - 1):
        assert ideal_component_dim(generators(star), d) == 0


def test_random_general_forms_deterministic():
    a = random_star(6, 1234, GF).forms
    b = random_star(6, 1234, GF).forms
    assert [f.coefficients for f in a] == [f.coefficients for f in b]


def test_random_general_forms_first_draw_success():
    # over a 30-bit prime field a degenerate draw is essentially impossible
    for seed in range(100):
        forms = random_star(8, seed, GF).forms
        assert is_general(forms)


def test_small_prime_accepts_l_at_arc_bound():
    # an oval of GF(3) (q + 1 lines) and a hyperoval of GF(2) (q + 2)
    for q, bound in ((3, 4), (2, 4)):
        assert arc_bound(2, q) == bound
        forms = random_star(bound, 0, PrimeField(q)).forms
        assert is_general(forms)
    # a frame of P^3 over GF(3): n + 2 planes
    assert is_general(random_star(5, 0, PrimeField(3), n=3).forms)


def test_arc_bound_values():
    # Ball: q + 1 for a prime q > n; Bush: n + 2 for q <= n
    assert arc_bound(3, 3) == 5
    assert arc_bound(3, 5) == 6
    assert arc_bound(3, 2) == 5
    assert arc_bound(4, 7) == 8


def test_small_prime_rejects_l_past_arc_bound():
    with pytest.raises(ValueError, match=r"l = 5 hyperplanes of P\^2 over "
                                         r"GF\(3\).*at most 4"):
        random_star(5, 0, PrimeField(3))
    with pytest.raises(ValueError, match=r"l = 7 hyperplanes of P\^3 over "
                                         r"GF\(3\)"):
        random_star(7, 0, PrimeField(3), n=3)


@pytest.mark.parametrize("n, q", [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2),
                                  (6, 2), (6, 3)])
def test_exhausted_draws_fall_back_to_the_frame(monkeypatch, n, q):
    """Past q + 1 (so q <= n) the arc bound is n + 2, more than the normal
    rational curve has points; with no random draw the frame e_0..e_n,
    e_0 + ... + e_n serves, at every seed."""
    monkeypatch.setattr(starconfig, "RETRY_BUDGET", 0)
    for l in range(max(n, q + 2), arc_bound(n, q) + 1):
        for seed in range(3):
            star = random_star(l, seed, PrimeField(q), n)
            assert len(star.points) == comb(l, n)


@pytest.mark.parametrize("n, q, seed", [(3, 2, 8), (3, 2, 12), (4, 2, 0),
                                        (4, 2, 1), (5, 2, 0), (6, 2, 0),
                                        (6, 3, 5), (6, 3, 36)])
def test_random_star_at_arc_bound_over_tiny_fields(n, q, seed):
    """Seeds at which all RETRY_BUDGET random draws of arc_bound(n, q)
    hyperplanes fail: the frame completes them."""
    assert is_general(random_star(arc_bound(n, q), seed, PrimeField(q),
                                  n).forms)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 13])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_exhausted_draws_fall_back_to_the_curve(monkeypatch, q, n):
    """With no random draw, every l <= q + 1 hyperplanes dual to points of
    the normal rational curve are in general position, at every seed."""
    monkeypatch.setattr(starconfig, "RETRY_BUDGET", 0)
    for l in range(n, q + 2):
        for seed in range(3):
            star = random_star(l, seed, PrimeField(q), n)
            assert len(star.points) == comb(l, n)
            assert star.forms == random_star(l, seed, PrimeField(q), n).forms


def test_general_position_needs_no_subset_scan(monkeypatch):
    """A general star is accepted from its distinct points alone: the scan
    of (n + 1)-subsets runs only to name dependent forms."""
    def refuse(*args):
        raise AssertionError("(n + 1)-subsets scanned")

    stars = [random_star(l, 0, field, n) for field, n, l in (
        (GF, 2, 40), (QQ, 2, 30), (PrimeField(101), 3, 12), (QQ, 4, 9))]
    monkeypatch.setattr(starconfig, "_first_dependent", refuse)
    for star in stars:
        assert build_star(star.forms).points == star.points


def test_hilbert_function_examples():
    assert hilbert_function(build_star(coordinate_forms()), 1) == 3
    assert hilbert_function(published_star(QQ, 5), 3) == 10
    assert hilbert_function(published_star(QQ, 6), 2) == 6


def test_hilbert_function_formula_small():
    for l in (3, 4, 5):
        star = random_star(l, 40 + l, GF)
        for t in range(6):
            assert hilbert_function(star, t) == \
                min(comb(t + 2, 2), comb(l, 2))


def evaluation_rank(star, t):
    """The rank of the whole degree-t evaluation matrix: one row per point
    at its integer vector, one column per degree-t monomial."""
    f = star.field
    rows = [[reduce(f.mul, map(pow, p, mono), 1)
             for mono in monomials_of_degree(star.n + 1, t)]
            for p in star.point_list()]
    return rank(f, lambda _: rows, len(rows[0]))


def last_coordinate_form(field, n):
    """x_n: its points have last coordinate 0."""
    return LinearForm(field, [field.from_int(int(i == n))
                              for i in range(n + 1)])


def denominator_forms(n):
    """x_i + x_n over Q for i < n, with x_1 scaled by the default prime p:
    they meet at a point with x_1 = -1/p and last coordinate 1, whose
    integer vector has last entry p."""
    scale = [1, DEFAULT_PRIME] + [1] * (n - 2)
    return [LinearForm(QQ, [scale[i] * (j == i) + (j == n)
                            for j in range(n + 1)]) for i in range(n)]


def chartless_forms():
    """x0, x1, x2 and x0 + x1 + x2 over GF(3): each chart form
    x2 + s*x1 + s^2*x0, s = 0, 1, 2, vanishes at one of their points,
    (1:0:0), (0:2:1) and (2:0:1) in turn."""
    return coordinate_forms(GF3) + [LinearForm(GF3, [1, 1, 1])]


def star_with(field, n, l, first_forms):
    """The first general star of l forms that begins with `first_forms`."""
    for seed in range(100):
        try:
            forms = random_star(l, seed, field, n).forms
            return build_star(first_forms + forms[len(first_forms):])
        except GenericityError:
            pass
    raise AssertionError("no general star found")


def drawn_star(field, n, l, seed, kind):
    """A random star in P^n, or one with a point where the chart form x_n
    vanishes: on the hyperplane x_n = 0, or (over Q) with a coordinate
    whose denominator is the default prime, so x_n = 0 mod p."""
    try:
        forms = random_star(l, seed, field, n).forms
        if kind == "at infinity":
            forms[0] = last_coordinate_form(field, n)
        elif kind == "denominator":
            forms[:n] = denominator_forms(n)
        return build_star(forms)
    except ValueError:      # not general, or l past the arc bound
        reject()


stars = st.builds(
    drawn_star, field=st.sampled_from([GF, PrimeField(5), PrimeField(7),
                                       PrimeField(11), QQ]),
    n=st.sampled_from([2, 3]), l=st.integers(3, 7),
    seed=st.integers(0, 2**20), kind=st.sampled_from(["random", "at infinity"])
) | st.builds(
    drawn_star, field=st.just(QQ), n=st.sampled_from([2, 3]),
    l=st.integers(3, 7), seed=st.integers(0, 2**20),
    kind=st.just("denominator"))


@settings(max_examples=60, deadline=None)
@given(star=stars, degrees=st.permutations(range(8)),
       residue_prime=st.sampled_from([DEFAULT_PRIME, 5, 7]))
@example(star=build_star(coordinate_forms(GF)), degrees=range(8),
         residue_prime=DEFAULT_PRIME)
@example(star=star_with(PrimeField(1009), 2, 7,
                        [last_coordinate_form(PrimeField(1009), 2)]),
         degrees=range(7, -1, -1), residue_prime=DEFAULT_PRIME)
@example(star=build_star(chartless_forms()), degrees=range(8),
         residue_prime=DEFAULT_PRIME)
@example(star=star_with(QQ, 2, 6, denominator_forms(2)),
         degrees=[5, 0, 7, 2, 1, 6, 3, 4], residue_prime=DEFAULT_PRIME)
def test_hilbert_function_matches_evaluation_rank(star, degrees,
                                                  residue_prime):
    """Degrees in random order, so the stored echelon is extended and then
    read back out of order.  Over Q the echelon may run mod a small prime,
    where its rank often falls short and the per-degree matrix decides."""
    residues = PrimeField(residue_prime)
    with mock.patch.object(starconfig, "RESIDUES", residues):
        for t in degrees:
            assert hilbert_function(star, t) == evaluation_rank(star, t)


def echelon_spy(monkeypatch):
    """The columns every `PackedEchelonModP` takes from now on."""
    real, added = PackedEchelonModP.add, []

    def recording(echelon, column):
        added.append(list(column))
        real(echelon, column)

    monkeypatch.setattr(PackedEchelonModP, "add", recording)
    return added


def evaluation_rank_spy(monkeypatch):
    """The degrees at which the per-degree matrix is ranked from now on."""
    real, degrees = starconfig._evaluation_rank, []

    def spy(field, n, points, t):
        degrees.append(t)
        return real(field, n, points, t)

    monkeypatch.setattr(starconfig, "_evaluation_rank", spy)
    return degrees


def refuse_evaluation_rank(monkeypatch):
    def refuse(field, n, points, t):
        raise AssertionError("per-degree evaluation matrix built")

    monkeypatch.setattr(starconfig, "_evaluation_rank", refuse)


def test_hilbert_function_fallbacks(monkeypatch):
    """A star with no chart form nonzero at every point still gets exact
    ranks, from the per-degree matrix of each degree up to saturation."""
    star = build_star(chartless_forms())
    degrees = evaluation_rank_spy(monkeypatch)
    assert [hilbert_function(star, t) for t in range(6)] == \
        [evaluation_rank(star, t) for t in range(6)] == [1, 3, 6, 6, 6, 6]
    assert degrees == [0, 1, 2]


@pytest.mark.parametrize("n", [2, 3])
def test_point_divisible_by_the_prime_takes_a_later_chart(monkeypatch, n):
    """A rational point whose x_n is divisible by the residue prime moves
    the echelon to a later chart form, nonzero mod p at every point, and
    sends no degree to the per-degree matrix."""
    star = star_with(QQ, n, 6, denominator_forms(n))
    assert any(pt[-1] % DEFAULT_PRIME == 0 for pt in star.point_list())
    added = echelon_spy(monkeypatch)
    refuse_evaluation_rank(monkeypatch)
    assert [hilbert_function(star, t) for t in range(7)] == \
        [evaluation_rank(star, t) for t in range(7)]
    assert added


def test_points_on_last_hyperplane_take_the_echelon(monkeypatch):
    """A point on x_n = 0 moves the echelon to another chart form instead
    of sending the star to the per-degree matrix."""
    refuse_evaluation_rank(monkeypatch)
    stars = [random_star(20, 0, PrimeField(1009)),
             build_star(coordinate_forms()), build_star(coordinate_forms(GF)),
             star_with(QQ, 3, 6, [last_coordinate_form(QQ, 3)])]
    assert any(p[-1] == 0 for p in stars[0].point_list())
    for star in stars:
        n, npoints = star.n, len(star.points)
        assert [hilbert_function(star, t) for t in range(star.l + 3)] == \
            [min(comb(t + n, n), npoints) for t in range(star.l + 3)]


def conic_tangents():
    """Tangents x_0 + i*x_1 - i^2*x_2 to a conic, i = 1..7, over Q: they
    meet at (-ij : i+j : 1), so i and i + 5 give points equal mod 5."""
    return build_star([LinearForm(QQ, [1, i, -i * i]) for i in range(1, 8)])


def test_rational_echelon_short_mod_p_falls_back(monkeypatch):
    """Tangents x_0 + i*x_1 - i^2*x_2 to a conic meet at (-ij : i+j : 1),
    so i and i + 5 give rows that agree mod 5: run mod 5, the echelon of
    l = 7 tangents falls short of full rank, and the per-degree rational
    matrix must decide."""
    star = conic_tangents()
    monkeypatch.setattr(starconfig, "RESIDUES", PrimeField(5))
    added = echelon_spy(monkeypatch)
    fallbacks = evaluation_rank_spy(monkeypatch)
    assert [hilbert_function(star, t) for t in range(8)] == \
        [min(comb(t + 2, 2), 21) for t in range(8)]
    assert len(added[0]) == 21 and fallbacks


def refuse_monomials_above(monkeypatch, top):
    """Refuse a monomial basis, or its exponent columns, past degree `top`."""
    def guard(build):
        def guarded(nvars, degree):
            if degree > top:
                raise AssertionError(f"monomial basis of degree {degree} "
                                     "built")
            return build(nvars, degree)
        return guarded

    monkeypatch.setattr(polynomials, "monomials_of_degree",
                        guard(monomials_of_degree))
    monkeypatch.setattr(polynomials, "exponent_columns",
                        guard(exponent_columns))
    monkeypatch.setattr(starconfig, "exponent_columns",
                        guard(exponent_columns))


@pytest.mark.parametrize("field", [GF, PrimeField(11), QQ])
@pytest.mark.parametrize("n", [2, 3])
def test_hilbert_function_builds_no_basis_past_saturation(monkeypatch, field,
                                                           n):
    """A first call at a huge degree reads the lower degrees in order and
    stops at saturation, also on a star with no chart form, whose every
    degree takes the per-degree matrix: in the plane 14 lines over GF(13),
    in P^3 the random star over GF(11)."""
    stars = [random_star(6, 3, field, n),
             star_with(field, n, 6, [last_coordinate_form(field, n)])]
    chartless = None
    if n == 2:
        chartless = random_star(14, 0, PrimeField(13))
        stars.append(chartless)
    elif field == PrimeField(11):
        chartless = stars[0]
    if chartless is not None:
        assert starconfig._chart_values(chartless.point_list(), n,
                                        chartless.field.p) is None
    for star in stars:
        refuse_monomials_above(monkeypatch, star.l + 1)
        assert hilbert_function(star, 10_000) == comb(star.l, star.n)


def test_rational_hilbert_function_needs_no_bareiss(monkeypatch):
    import starcurves.matrices as matrices_mod

    def refuse(rows):
        raise AssertionError("Bareiss fallback ran")

    monkeypatch.setattr(matrices_mod, "_rank_bareiss", refuse)
    for n, l in ((2, 9), (3, 7)):
        star = random_star(l, 0, QQ, n)
        for t in range(l + 2):
            assert hilbert_function(star, t) == \
                min(comb(t + n, n), comb(l, n))


@pytest.mark.parametrize("field", [GF, QQ])
@pytest.mark.parametrize("n, l", [(2, 7), (3, 6), (4, 6)])
def test_hilbert_columns_are_the_monomial_values(monkeypatch, field, n, l):
    """The echelon takes, degree by degree up to saturation, the residues
    of the degree-t monomials in x_0..x_{n-1} at the affine points, in
    `monomials_of_degree` order, as `monomial_values` gives them, and no
    column after saturation."""
    star = random_star(l, 1, field, n)
    p = field.p if field is GF else DEFAULT_PRIME
    added = echelon_spy(monkeypatch)
    hilbert_function(star, 3 * l)
    saturated = next(t for t in range(3 * l)
                     if hilbert_function(star, t) == comb(l, n))
    hilbert_function(star, 4 * l)
    charts = starconfig._chart_values(star.point_list(), n, p)
    affine = [[x * pow(c, -1, p) % p for x in pt[:-1]]
              for pt, c in zip(star.point_list(), charts)]
    expected = []
    for t in range(saturated + 1):
        columns = exponent_columns(n, t)
        rows = [monomial_values(PrimeField(p), coords, t, columns)
                for coords in affine]
        expected += [[v % p for v in column] for column in zip(*rows)]
    assert added == expected


@pytest.mark.parametrize("field", [GF, QQ])
@pytest.mark.parametrize("n, l", [(2, 9), (3, 7)])
def test_hilbert_echelon_reads_no_monomial_values(monkeypatch, field, n, l):
    def refuse(*args):
        raise AssertionError("monomial_values called")

    star = random_star(l, 0, field, n)
    monkeypatch.setattr(polynomials, "monomial_values", refuse)
    monkeypatch.setattr(starconfig, "monomial_values", refuse)
    added = echelon_spy(monkeypatch)
    for t in range(l + 2):
        assert hilbert_function(star, t) == min(comb(t + n, n), comb(l, n))
    assert len(added) >= comb(l, n)


STAR_FIELDS = [GF, PrimeField(13), PrimeField(101), QQ]


def form_through(v, rng):
    """Coefficients of a random form that vanishes at the vector v."""
    j = next(k for k, x in enumerate(v) if x)
    r = [rng.randint(-50, 50) for _ in v]
    c = [v[j] * x for x in r]
    c[j] -= sum(a * b for a, b in zip(r, v))
    return c


def star_with_a_point_at_infinity(field, n, l, rng):
    """A star whose first n forms meet at a point with last coordinate 0;
    the other forms random."""
    v = [rng.randint(1, 9) for _ in range(n)] + [0]
    while True:
        rows = [form_through(v, rng) for _ in range(n)] + [
            [rng.randint(-50, 50) for _ in range(n + 1)]
            for _ in range(l - n)]
        try:
            return build_star([LinearForm(field, r) for r in rows])
        except ValueError:      # a zero form, or dependent forms
            continue


@pytest.mark.parametrize("field", STAR_FIELDS, ids=repr)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_line_columns_give_the_point_of_each_subset(field, n):
    """Every point of a star built a line at a time (up to l - n + 1 points
    per line) is the point of a star of its n forms alone and lies on no
    other form; one of the stars has a point with last coordinate 0.  Over
    GF(13) random forms are seldom in general position past l = n + 3."""
    rng = random.Random(f"{field!r} {n}")
    l = n + (3 if field == PrimeField(13) else 6)
    stars = [star_with_a_point_at_infinity(field, n, l, rng)] + [
        random_star(l, seed, field, n) for seed in range(3)]
    assert any(pt[-1] == 0 for pt in stars[0].points.values())
    for star in stars:
        for key, pt in star.points.items():
            assert pt == point_of(*(star.forms[i - 1] for i in key))
            assert [field.is_zero(f.evaluate(pt)) for f in star.forms] == \
                [i in key for i in range(1, l + 1)]


@pytest.mark.parametrize("field", STAR_FIELDS, ids=repr)
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("dependency", ["sum", "proportional"])
def test_line_columns_name_the_first_dependent_forms(field, n, dependency):
    """A form that is the sum of two others, or two proportional forms
    (for n >= 3 their line does not exist), are refused with the labels of
    the lexicographically first n + 1 forms whose determinant is 0."""
    rng = random.Random(f"{field!r} {n} {dependency}")
    l = n + 4
    rows = [[rng.randint(-50, 50) for _ in range(n + 1)] for _ in range(l)]
    if dependency == "sum":
        rows[-2] = [a + b for a, b in zip(rows[1], rows[3])]
    else:
        rows[2] = [3 * a for a in rows[1]]
    dependent = next(
        c for c in combinations(range(1, l + 1), n + 1) if field.is_zero(
            field.from_int(cofactor_det([rows[i - 1] for i in c]))))
    with pytest.raises(GenericityError) as refused:
        build_star([LinearForm(field, r) for r in rows])
    assert refused.value.labels == ", ".join(f"L{i}" for i in dependent)


def meets(field, line, forms):
    """Where the line spanned by (u, w) meets the hyperplane of each form
    (its coefficients): L(w)*u - L(u)*w, scaled by the inverse of its last
    nonzero entry over GF(p) and by the gcd of its entries, signed as that
    entry, over Q; None when the vector is 0, as for every form when the
    forms of the line are dependent and `kernel` gives two zero vectors.
    The per-line build, one line and one scaling of each point at a time."""
    u, w = line
    out = []
    for c in forms:
        a, b = (sum(x * y for x, y in zip(c, v)) for v in (u, w))
        x = [field.from_int(b * s - a * t) for s, t in zip(u, w)]
        last = next((y for y in reversed(x) if y), None)
        if last is None:
            out.append(None)
        elif isinstance(field, PrimeField):
            out.append(tuple(y * pow(last, -1, field.p) % field.p
                             for y in x))
        else:
            g = reduce(gcd, x) * (-1 if last < 0 else 1)
            out.append(tuple(y // g for y in x))
    return out


def per_line_points(forms):
    """The points of the forms' star, key by key, built a line at a time:
    the Gauss-Jordan `kernel` of each (n-1)-subset t with max(t) < l, then
    `meets` with each later form.  The oracle of the one-pass build."""
    field, l, n = forms[0].field, len(forms), forms[0].nvars - 1
    points = {}
    for t in combinations(range(1, l), n - 1):
        line = kernel(field, [forms[i - 1].coefficients for i in t], n + 1)
        points.update(zip([t + (k,) for k in range(t[-1] + 1, l + 1)],
                          meets(field, line, [f.coefficients
                                              for f in forms[t[-1]:]])))
    return points


@pytest.mark.parametrize("batch", [starconfig.BATCH, 4])
@pytest.mark.parametrize("field", [PrimeField(2), GF3, PrimeField(13), GF, QQ],
                         ids=repr)
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_one_pass_points_match_the_per_line_build(monkeypatch, n, field,
                                                  batch):
    """The star's points, their key order and the labels of a
    `GenericityError` are those of the per-line build, for random forms
    on several seeds, some with a form made the sum of two others or a
    multiple of another; with `batch` 4, one star's points are made
    canonical in several passes.  Subsets share the kernels of prefixes
    of up to n - 2 forms, so n = 5 shares prefixes of 3 forms.  On odd
    seeds the first forms, whose kernels the star reads off their
    coefficients, have leading coefficients 0, so the pivot of that
    first kernel is not at index 0."""
    monkeypatch.setattr(starconfig, "BATCH", batch)
    outcomes = set()
    for seed in range(36):
        rng = random.Random(f"one pass {n} {field!r} {seed}")
        l = n + rng.randint(0, 4)
        rows = [field.randoms(rng, n + 1) for _ in range(l)]
        for row in rows[:l - n + 1] if seed % 2 else ():
            zeros = rng.randint(1, n - 1)
            row[:zeros] = [0] * zeros
        if seed % 3 == 1 and l > n:
            rows[-1] = [a + b for a, b in zip(rows[0], rows[l // 2])]
        elif seed % 3 == 2:
            rows[l // 2] = [3 * a for a in rows[0]]
        forms = [LinearForm(field, r) for r in rows
                 if any(map(field.from_int, r))]
        if len(forms) < max(2, n):
            continue
        expected = per_line_points(forms)
        values = list(expected.values())
        if None in values or len(set(values)) < len(values):
            with pytest.raises(GenericityError) as refused:
                StarConfiguration(forms)
            assert refused.value.labels == starconfig._first_dependent(
                forms, expected, n)
            outcomes.add("refused")
        else:
            star = StarConfiguration(forms)
            assert list(star.points.items()) == list(expected.items())
            outcomes.add("built")
    assert outcomes == {"refused", "built"}


def test_evaluation_rank_packs_prime_field_rows(monkeypatch):
    """The per-degree Hilbert fallback is one `rank` per degree over every
    field, whose dense rows go into the packed echelon, and it gives the
    rank of the whole evaluation matrix."""
    stars = [random_star(14, 0, PrimeField(13)), random_star(4, 1, GF3),
             random_star(6, 2, PrimeField(13), 3), random_star(5, 0, QQ)]
    expected = [[evaluation_rank(star, t) for t in range(star.l + 2)]
                for star in stars]
    calls, made = [], []

    def spy(field, rows, ncols):
        calls.append(field)
        return rank(field, rows, ncols)

    def init(echelon, p, length):
        made.append(type(echelon))
        real(echelon, p, length)

    real = SparseEchelonModP.__init__
    monkeypatch.setattr(starconfig, "rank", spy)
    monkeypatch.setattr(SparseEchelonModP, "__init__", init)
    assert [[starconfig._evaluation_rank(star.field, star.n,
                                         star.point_list(), t)
             for t in range(star.l + 2)] for star in stars] == expected
    assert calls == [star.field for star in stars
                     for _ in range(star.l + 2)]
    assert made == [PackedEchelonModP] * len(calls)


@pytest.mark.parametrize("residue_prime", [DEFAULT_PRIME, 5])
def test_rational_evaluation_rank_reads_residues_first(monkeypatch,
                                                       residue_prime):
    """Over Q the per-degree matrix is read mod the residue prime first:
    no exact monomial value is built unless that echelon is short, and
    then only after every residue row.  Mod 5 the conic tangents' points
    come in equal pairs, so the echelon falls short at high degree."""
    points = conic_tangents().point_list()
    residues = PrimeField(residue_prime)
    monkeypatch.setattr(matrices, "RESIDUES", residues)
    fields, real = [], starconfig.monomial_values

    def spy(field, coords, degree, columns):
        fields.append(field)
        return real(field, coords, degree, columns)

    monkeypatch.setattr(starconfig, "monomial_values", spy)
    exact = []
    for t in range(8):
        fields.clear()
        assert starconfig._evaluation_rank(QQ, 2, points, t) == \
            min(comb(t + 2, 2), 21)
        read = fields.count(residues)
        assert fields[:read] == [residues] * read
        if fields[read:]:
            assert fields[read:] == [QQ] * 21 and read == 21
            exact.append(t)
    assert bool(exact) == (residue_prime == 5)
