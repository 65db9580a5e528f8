import ast
import json
import random
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import starcurves
import starcurves.tangent as tangent_mod

from starcurves.fields import DEFAULT_PRIME, PrimeField, QQ
from starcurves.matrices import rank
from starcurves.polynomials import (HomogeneousPoly, monomials_of_degree,
                                    poly_sum)
from starcurves.reference_cases import (TWELVE_COLUMNS, TWELVE_ROWS,
                                        published_star)
from starcurves.formulas import (LUROTH_SOURCE, STAR_IDEAL_SOURCE,
                                 closed_form_dimension)
from starcurves.starconfig import (GenericityError, LinearForm, build_star,
                                   random_star)
from starcurves.tangent import (DimensionCertificate, TrialStars,
                                _hat_product, _linear_poly, _rank_at_points,
                                build_q_forms, certify,
                                generators, ideal_component_dim,
                                evaluation_submatrix_rank,
                                random_multipliers, tangent_dim_direct,
                                tangent_dim_points, structured_multipliers,
                                trial_seed, verdict)

from draws import single_draw
from product_rule import perturbation_coefficient, variable

GF = PrimeField()


def ones(count):
    return [[1] for _ in range(count)]


def poly_of(field, nvars, degree, vector):
    """The form with this coefficient vector over the degree-`degree`
    monomials."""
    return HomogeneousPoly(field, nvars, degree, dict(zip(
        monomials_of_degree(nvars, degree), vector)))


def random_problem(l, d, seed):
    star = random_star(l, seed, GF)
    mult = random_multipliers(star, d, random.Random(seed ^ 0xABCD))
    return star, d, mult


# -- Q forms ----------------------------------------------------------------

def test_q_forms_l2_degree_one():
    f = QQ
    forms = [LinearForm(f, [1, 0, 0]),
             LinearForm(f, [0, 1, 0])]
    star = build_star(forms)
    q = build_q_forms(star, 1, ones(2))
    # both are the empty product times the unit multiplier
    assert q[0] == HomogeneousPoly.one(f, 3)
    assert q[1] == HomogeneousPoly.one(f, 3)


def test_q_forms_five_lines_structure():
    star = published_star(QQ, 5)
    q = build_q_forms(star, 4, ones(5))
    assert all(qi.degree == 3 for qi in q)
    expected = poly_sum([_hat_product(star, 1, i) for i in (2, 3, 4, 5)],
                        QQ, 3, 3)
    assert q[0] == expected


def test_q_forms_six_lines_with_linear_multiplier():
    star = published_star(QQ, 6)
    g = [1, 5, 7]       # x0 + 5*x1 + 7*x2
    q = build_q_forms(star, 6, [g] * 6)
    assert all(qi.degree == 5 for qi in q)


def test_q_forms_wrong_count_rejected():
    star = published_star(QQ, 5)
    with pytest.raises(ValueError):
        build_q_forms(star, 4, ones(4))


def test_q_forms_mixed_degrees_rejected():
    star = published_star(QQ, 5)
    mult = ones(4) + [[1, 0, 0]]     # x0, of degree 1
    with pytest.raises(ValueError):
        build_q_forms(star, 4, mult)


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([2, 3]),
       field=st.sampled_from([GF, PrimeField(11), QQ]),
       l=st.integers(2, 5), extra=st.integers(0, 2),
       seed=st.integers(0, 2**20))
def test_q_forms_match_product_rule(n, field, l, extra, seed):
    # x_k * Q_i is the first-order term of sum_T M_T * prod_{j not in T} L_j
    # under L_i -> L_i + t*x_k; here that term comes from the product rule
    l = max(l, n)
    star = random_star(l, seed, field, n=n)
    d = star.generator_degree + extra
    mult = random_multipliers(star, d, random.Random(seed))
    q = build_q_forms(star, d, mult)
    nvars = n + 1
    zero1 = HomogeneousPoly.zero(field, nvars, 1)
    polys = [poly_of(field, nvars, extra, m) for m in mult]
    for i in range(1, l + 1):
        for k in range(nvars):
            xk = variable(field, nvars, k)
            parts = [m * perturbation_coefficient(
                         [(_linear_poly(star.forms[j - 1]), xk if j == i else zero1)
                          for j in range(1, l + 1) if j not in key])
                     for key, m in zip(star.generator_keys(), polys)]
            assert xk * q[i - 1] == poly_sum(parts, field, nvars, d)


# -- graded ideal components ------------------------------------------------

def test_ideal_component_single_variable():
    x0 = variable(QQ, 3, 0)
    assert ideal_component_dim([x0], 2) == 3


def test_ideal_component_five_line_hats():
    star = published_star(QQ, 5)
    # complement of HF(X(5), 4) = 10 inside dim S_4 = 15
    assert ideal_component_dim(generators(star), 4) == 5


def test_ideal_component_below_degree():
    star = published_star(QQ, 6)
    assert ideal_component_dim(generators(star), 4) == 0


def test_ideal_component_constant_generator():
    one = HomogeneousPoly.one(QQ, 3)
    assert ideal_component_dim([one], 2) == 6   # all of S_2


# -- tangent dimensions -----------------------------------------------------

def test_tangent_direct_quartic_case():
    star = published_star(QQ, 5)
    assert tangent_dim_direct(star, 4, ones(5)) == 14


def test_tangent_direct_six_lines_d5():
    star = published_star(QQ, 6)
    # rank-12 evaluation block plus dim of the configuration ideal in
    # degree 5: C(7,2) - C(6,2) = 6
    assert tangent_dim_direct(star, 5, ones(6)) == 18


def test_tangent_direct_l2_d1():
    f = QQ
    forms = [LinearForm(f, [1, 0, 0]),
             LinearForm(f, [0, 1, 0])]
    star = build_star(forms)
    # the Q forms are nonzero constants, so the degree-1 component is S_1
    assert tangent_dim_direct(star, 1, ones(2)) == 3


def test_tangent_points_quartic_case():
    star = published_star(QQ, 5)
    assert tangent_dim_points(star, 4, ones(5)) == 14


def test_tangent_points_six_lines_d5():
    star = published_star(QQ, 6)
    assert tangent_dim_points(star, 5, ones(6)) == 18


def test_tangent_points_zero_multipliers():
    star = random_star(5, 9, GF)
    d = 5
    zero = [0] * comb(d - star.l + 1 + 2, 2)
    expected = comb(d + 2, 2) - comb(5, 2)
    assert tangent_dim_points(star, d, [zero] * 5) == expected
    assert tangent_dim_direct(star, d, [zero] * 5) == expected


def test_rational_tangent_rank_needs_no_bareiss(monkeypatch):
    """The matrix without the redundant L_i-direction columns has full
    rank, so the rational rank is read mod p and Bareiss never runs."""
    import starcurves.matrices as matrices_mod

    def refuse(rows):
        raise AssertionError("Bareiss fallback ran")

    monkeypatch.setattr(matrices_mod, "_rank_bareiss", refuse)
    star = random_star(9, 0, QQ)
    mult = random_multipliers(star, 10, random.Random(0))
    assert tangent_dim_points(star, 10, mult) == \
        closed_form_dimension(10, 9) + 1


def counting_rows(monkeypatch):
    """A list that grows by one per tangent row built: each row takes one
    table of monomial values, read through the exponent columns."""
    built = []
    real = tangent_mod.monomial_values

    def counting(field, coords, degree, columns):
        built.append(coords)
        return real(field, coords, degree, columns)

    monkeypatch.setattr(tangent_mod, "monomial_values", counting)
    return built


@pytest.mark.parametrize("n, lmax", [(2, 15), (3, 12), (4, 10)])
def test_full_echelon_reads_at_most_n_l_rows(monkeypatch, n, lmax):
    """A tangent rank of l*n is read from at most n*l rows, the band, each
    built once; a smaller rank reads every row.  Over Q the rows are
    ranked mod the default prime first: a full rank there never reaches
    Bareiss, and a short one builds every row again as exact ints."""
    import starcurves.matrices as matrices_mod

    built = counting_rows(monkeypatch)
    bareiss = []
    real = matrices_mod._rank_bareiss

    def counting(rows):
        bareiss.append(len(rows))
        return real(rows)

    monkeypatch.setattr(matrices_mod, "_rank_bareiss", counting)
    for field in (GF, QQ):
        full = short = 0
        for l in range(n, lmax + 1):
            star = random_star(l, l, field, n)
            for d in range(l - n + 1, l + 4):
                mult = random_multipliers(star, d,
                                          random.Random(f"multipliers {d}"))
                built.clear()
                bareiss.clear()
                found = tangent_dim_points(star, d, mult) - \
                    comb(d + n, n) + comb(l, n)
                if found == l * n:
                    full += 1
                    assert len(built) <= n * l and not bareiss, (l, d)
                elif field == QQ and found < comb(l, n):
                    short += 1      # the Luroth pair (4, 5)
                    assert len(built) == 2 * comb(l, n), (l, d)
                    assert bareiss == [comb(l, n)], (l, d)
                else:
                    assert len(built) == comb(l, n) and not bareiss, (l, d)
        assert full >= 10
        assert short == (field == QQ and n == 2)


def test_luroth_pair_reads_every_row_into_bareiss(monkeypatch):
    """At (d, l) = (4, 5) over Q the tangent rank is 9 of 10, so the echelon
    is not full: every row is built mod the default prime into one mod-p
    echelon of 10 columns, then every row again as exact ints, which go
    straight to Bareiss, on dense rows made from the sparse exact rows.
    The record counts the rows of the first pass."""
    import starcurves.matrices as matrices_mod

    built = counting_rows(monkeypatch)
    given, echelons = [], []
    real = matrices_mod._rank_bareiss
    real_init = matrices_mod.SparseEchelonModP.__init__

    def recording(rows):
        given.append([list(r) for r in rows])
        return real(rows)

    def init(echelon, p, length):
        echelons.append((p, length))
        real_init(echelon, p, length)

    monkeypatch.setattr(matrices_mod, "_rank_bareiss", recording)
    monkeypatch.setattr(matrices_mod.SparseEchelonModP, "__init__", init)
    star = random_star(5, 0, QQ)
    mult = random_multipliers(star, 4, random.Random(0))
    record = {}
    assert tangent_dim_points(star, 4, mult, record) == 14
    assert record == {"rows_read": comb(5, 2)}
    assert echelons == [(DEFAULT_PRIME, 10)]
    assert len(built) == 2 * comb(5, 2)
    assert len(given) == 1 and all(len(r) == 10 for r in given[0])
    assert sorted(given[0]) == sorted(eager_tangent_rows(star, 4, mult))


@pytest.mark.parametrize("field", [GF, QQ])
def test_tangent_rows_build_no_monomial_basis(monkeypatch, field):
    """A pass at (d, l) = (200, 3) reads its multipliers through cached
    exponent columns: no tuple of monomials is built at the row degree
    m = 198, where the basis has 19,900 of them."""
    import starcurves.polynomials as polynomials_mod

    degrees = []
    real = polynomials_mod.monomials_of_degree

    def recording(nvars, degree):
        degrees.append(degree)
        return real(nvars, degree)

    monkeypatch.setattr(polynomials_mod, "monomials_of_degree", recording)
    monkeypatch.setattr(tangent_mod, "monomials_of_degree", recording)
    star = random_star(3, 0, field)
    mult = random_multipliers(star, 200, random.Random(0))
    assert tangent_dim_points(star, 200, mult) == \
        closed_form_dimension(200, 3) + 1
    assert 198 not in degrees


def test_algorithm_agreement_random():
    rng = random.Random(2024)
    for _ in range(20):
        l = rng.randint(2, 7)
        d = rng.randint(l - 1, 9)
        problem = random_problem(l, d, rng.randrange(2**30))
        assert tangent_dim_direct(*problem) == tangent_dim_points(*problem)


def test_monotonicity_bounds():
    rng = random.Random(77)
    for _ in range(10):
        l = rng.randint(3, 6)
        d = rng.randint(l - 1, 8)
        star, d, mult = random_problem(l, d, rng.randrange(2**30))
        dim = tangent_dim_direct(star, d, mult)
        assert dim <= comb(d + 2, 2)
        assert dim >= ideal_component_dim(generators(star), d)


def test_perturbation_elements_lie_in_tangent_space():
    # a full first-order perturbation of the parametrization, computed
    # via the product rule, must stay inside the span measured by the
    # coefficient-matrix algorithm
    rng = random.Random(15)
    star = random_star(5, 51, GF)
    d = 6
    mult = random_multipliers(star, d, rng)
    mdeg = d - star.l + 1
    l_dirs = [HomogeneousPoly(GF, 3, 1,
                              {m: single_draw(GF, rng)
                               for m in monomials_of_degree(3, 1)})
              for _ in range(star.l)]
    m_dirs = [HomogeneousPoly(GF, 3, mdeg,
                              {m: single_draw(GF, rng)
                               for m in monomials_of_degree(3, mdeg)})
              for _ in range(star.l)]
    parts = []
    for i in range(star.l):
        parts.append(m_dirs[i] * _hat_product(star, i + 1))
        factors = [(_linear_poly(star.forms[j]), l_dirs[j]) for j in range(star.l)
                   if j != i]
        parts.append(poly_of(GF, 3, mdeg, mult[i])
                     * perturbation_coefficient(factors))
    tangent_vector = poly_sum(parts, GF, 3, d)

    gens = generators(star) + build_q_forms(star, d, mult)
    base_rank = ideal_component_dim(gens, d)
    basis = monomials_of_degree(3, d)
    rows = []
    for g in gens:
        for mono in monomials_of_degree(3, d - g.degree):
            shift = {tuple(a + b for a, b in zip(mono, gm)): c
                     for gm, c in g.terms.items()}
            rows.append(HomogeneousPoly(GF, 3, d, shift).coefficient_vector())
    rows.append(tangent_vector.coefficient_vector())
    assert rank(GF, lambda _: rows, len(basis)) == base_rank


def drawn_problem(n, field, l, extra, seed, kind):
    """A random configuration in P^n with multipliers that are random, all
    equal, zero, or (over Q) random times powers of the default prime p,
    whose rank matrix is often short mod p, so Bareiss decides; rejects
    the example when a small field runs out of draws.  The multipliers
    come from a stream of their own: drawn from the forms' stream,
    degree-1 multipliers would repeat the forms' coefficients, which is
    special data."""
    try:
        star = random_star(max(l, n), seed, field, n)
    except GenericityError:
        reject()
    d = star.generator_degree + extra
    mult = random_multipliers(star, d, random.Random(f"multipliers {seed}"))
    if kind == "equal":
        mult = [mult[0]] * len(mult)
    elif kind == "zero":
        mult = [[0] * len(mult[0])] * len(mult)
    elif kind == "prime powers":
        rng = random.Random(f"prime powers {seed}")
        mult = [[c * DEFAULT_PRIME ** rng.randint(0, 2) if c else c
                 for c in m] for m in mult]
    return star, d, mult


problems = st.builds(
    drawn_problem, n=st.sampled_from([2, 3]),
    field=st.sampled_from([GF, PrimeField(11), QQ]), l=st.integers(2, 6),
    extra=st.integers(0, 2), seed=st.integers(0, 2**20),
    kind=st.sampled_from(["random", "equal", "zero"])) | st.builds(
    drawn_problem, n=st.sampled_from([2, 3]), field=st.just(PrimeField(5)),
    l=st.integers(2, 5), extra=st.integers(0, 2),
    seed=st.integers(0, 2**20),
    kind=st.sampled_from(["random", "equal", "zero"])) | st.builds(
    drawn_problem, n=st.sampled_from([2, 3]), field=st.just(QQ),
    l=st.integers(2, 6), extra=st.integers(0, 2), seed=st.integers(0, 2**20),
    kind=st.just("prime powers"))


@settings(max_examples=90, deadline=None)
@given(problem=problems)
def test_point_rank_matches_coefficient_rank(problem):
    assert tangent_dim_points(*problem) == tangent_dim_direct(*problem)


def naive_rank(field, rows):
    """Gaussian elimination of the whole matrix, over Fractions for Q and
    mod p for GF(p)."""
    p = getattr(field, "p", None)
    m = [[Fraction(x) if p is None else x % p for x in r] for r in rows]
    found = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(found, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[found], m[piv] = m[piv], m[found]
        top = m[found]
        inv = 1 / top[col] if p is None else pow(top[col], -1, p)
        for r in range(found + 1, len(m)):
            f = m[r][col] * inv
            m[r] = [a - f * b if p is None else (a - f * b) % p
                    for a, b in zip(m[r], top)]
        found += 1
    return found


def eager_tangent_dim(star, d, mult):
    """Algorithm B built whole: the rank of `eager_tangent_rows`."""
    rows, n, l = eager_tangent_rows(star, d, mult), star.n, star.l
    return naive_rank(star.field, rows) + comb(d + n, n) - comb(l, n)


def eager_tangent_rows(star, d, mult):
    """All C(l,n) rows of the l*n columns p_s[k] * M_{s - i}(p_s), k past
    the first nonzero coefficient of L_i, in key order, each value from
    the multiplier's polynomial."""
    fld, n, l = star.field, star.n, star.l
    mdeg = d - star.generator_degree
    mult_of = {key: poly_of(fld, n + 1, mdeg, m)
               for key, m in zip(star.generator_keys(), mult)}
    rows = []
    for s in star.point_keys():
        p = star.points[s]
        row = [0] * (l * n)
        for i in s:
            coeffs = star.forms[i - 1].coefficients
            skip = next(k for k, c in enumerate(coeffs) if not fld.is_zero(c))
            value = mult_of[tuple(j for j in s if j != i)].evaluate(p)
            row[(i - 1) * n:i * n] = [fld.mul(x, value)
                                      for k, x in enumerate(p) if k != skip]
        rows.append(row)
    return rows


def streamed_problem(n, field, extra_l, extra, seed, equal):
    """A star of l = n + extra_l hyperplanes in P^n with random
    multipliers, all equal when `equal` (often a short rank)."""
    try:
        star = random_star(n + extra_l, seed, field, n)
    except ValueError:      # past the arc bound, or no general draw
        reject()
    d = star.generator_degree + extra
    mult = random_multipliers(star, d, random.Random(f"multipliers {seed}"))
    if equal:
        mult = [mult[0]] * len(mult)
    return star, d, mult


@settings(max_examples=60, deadline=None)
@given(problem=st.builds(
    streamed_problem, n=st.sampled_from([2, 3, 4]),
    field=st.sampled_from([GF, PrimeField(7), QQ]),
    extra_l=st.integers(0, 4), extra=st.integers(0, 2),
    seed=st.integers(0, 2**20), equal=st.booleans()))
def test_streamed_rank_matches_eager_matrix(problem):
    assert tangent_dim_points(*problem) == eager_tangent_dim(*problem)


def refuse_fraction_arithmetic(monkeypatch):
    """Make every arithmetic operator of Fraction raise."""
    def refuse(*args):
        raise AssertionError("Fraction arithmetic")

    for name in ("add", "sub", "mul", "truediv", "floordiv", "mod", "pow"):
        monkeypatch.setattr(Fraction, f"__{name}__", refuse)
        monkeypatch.setattr(Fraction, f"__r{name}__", refuse)
    for name in ("neg", "pos", "abs"):
        monkeypatch.setattr(Fraction, f"__{name}__", refuse)


def test_rational_point_rank_needs_no_fraction_arithmetic(monkeypatch):
    """Over Q the star, its points, the random and the structured
    multipliers (with their forms through a point), the multiplier values
    and the rank matrix are all built in ints: no Fraction operator
    runs."""
    refuse_fraction_arithmetic(monkeypatch)
    star = random_star(9, 0, QQ)
    for mult in (random_multipliers(star, 10, random.Random(0)),
                 structured_multipliers(star, 10)):
        assert tangent_dim_points(star, 10, mult) == \
            closed_form_dimension(10, 9) + 1


def test_rational_multipliers_refuse_non_int_coefficients():
    star = random_star(5, 0, QQ)
    mult = random_multipliers(star, 5, random.Random(0))
    mult[0] = [Fraction(1, 2), 0, 0]
    with pytest.raises(ValueError, match="lcm of their denominators"):
        tangent_dim_points(star, 5, mult)


def test_ideal_component_refuses_rational_non_int_coefficients(monkeypatch):
    """A generator with a Fraction coefficient over Q is refused before
    any row is read, even after a generator of int coefficients."""
    ranked = []
    monkeypatch.setattr(tangent_mod, "rank_of_built_rows",
                        lambda *args: ranked.append(args))
    whole = HomogeneousPoly(QQ, 3, 1, {(0, 0, 1): 3})
    half = HomogeneousPoly(QQ, 3, 1, {(1, 0, 0): Fraction(1, 2),
                                      (0, 1, 0): 1})
    with pytest.raises(ValueError, match="matrix entries over Q must be "
                       "ints; scale them by the lcm of their denominators"):
        ideal_component_dim([whole, half], 2)
    assert ranked == []


@pytest.mark.parametrize("d, l, field", [(9, 7, GF), (9, 7, QQ),
                                         (4, 5, QQ), (5, 4, PrimeField(7))])
def test_certify_checks_no_row(monkeypatch, d, l, field):
    """Tangent rows are built from ints checked where they enter (forms,
    multipliers), so `certify` reads no row through the per-row check of
    `matrices.rank`: over GF(p), nor over Q, where the Luroth pair (4, 5)
    reads every row again for Bareiss.  The spy does see the rows of the
    public `rank`."""
    import starcurves.matrices as matrices_mod

    checked, bareiss = [], []
    real_checked, real_bareiss = matrices_mod._checked, \
        matrices_mod._rank_bareiss

    def spy(fld, rows, ncols):
        for row in real_checked(fld, rows, ncols):
            checked.append(row)
            yield row

    def counting(rows):
        bareiss.append(len(rows))
        return real_bareiss(rows)

    monkeypatch.setattr(matrices_mod, "_checked", spy)
    monkeypatch.setattr(matrices_mod, "_rank_bareiss", counting)
    certify(d, l, field, trials=2)
    assert checked == []
    assert bareiss == ([comb(5, 2)] * 2 if (d, l) == (4, 5) else [])
    assert rank(field, lambda _: [[1, 2]], 2) == 1
    assert checked == [[1, 2]]


def test_every_export_resolves():
    for name in starcurves.__all__:
        assert hasattr(starcurves, name), name


def test_no_module_imports_fractions():
    """Over Q every element is an int, so no module of the package needs
    the fractions module."""
    package = Path(starcurves.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names}
        imported |= {node.module for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)}
        assert "fractions" not in imported, path.name


def test_only_algorithm_a_imports_polynomial_objects():
    """Polynomials serve algorithm A alone: no module but `polynomials`
    and `tangent` imports `HomogeneousPoly`, `poly_product` or `poly_sum`,
    apart from the package's re-exports in `__init__`."""
    package = Path(starcurves.__file__).parent
    names = {"HomogeneousPoly", "poly_product", "poly_sum"}
    for path in sorted(package.glob("*.py")):
        if path.stem in ("polynomials", "tangent", "__init__"):
            continue
        tree = ast.parse(path.read_text())
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    for alias in node.names}
        assert not names & imported, path.name


def multiplier_values(star, d, mult):
    """{s: {i: M_{s - i}(p_s)}} for every point key s, in the star's
    field, read off the rows `_rank_at_points` builds with one column
    i - 1 of weight 1 for each i, taken from the rank it hands them to."""
    keys = star.point_keys()
    pairs = {i: [(i - 1, 0)] for i in range(1, star.l + 1)}
    with mock.patch.object(tangent_mod, "rank_of_built_rows",
                           lambda fld, rows, ncols: (list(rows(fld)), 0)):
        rows, _ = _rank_at_points(star, d, mult, keys, pairs, lambda s: [1],
                                  star.l)
    assert len(rows) == len(keys)
    return {s: {c + 1: x for c, x in row.items()}
            for s, row in zip(keys, rows)}


@settings(max_examples=45, deadline=None)
@given(problem=problems)
def test_tangent_values_match_q_forms(problem):
    """At the integer coordinates of p_s, Q_i(p_s) is
    M_{s - i}(p_s) * prod_{h not in s} L_h(p_s) for i in s, and 0 for the
    other Q_j."""
    star, d, mult = problem
    fld = star.field
    values = multiplier_values(star, d, mult)
    assert list(values) == star.point_keys()
    q = build_q_forms(star, d, mult)
    for s, x in star.points.items():
        outside = 1
        for h, form in enumerate(star.forms, start=1):
            if h not in s:
                outside = fld.mul(outside, _linear_poly(form).evaluate(x))
        assert set(values[s]) == set(s)
        for i in range(1, star.l + 1):
            value = q[i - 1].evaluate(x)
            if i in s:
                assert fld.mul(values[s][i], outside) == value
            else:
                assert fld.is_zero(value)


def evaluation_problem(field, n, l, extra, seed, kind):
    """A star in P^n with multipliers of one kind: dense random forms,
    the constant 1 (at d = l - n + 1), or the plane's structured
    multipliers (sparse: powers of G times linear forms; l >= 6)."""
    try:
        star = random_star(max(l, n), seed, field, n)
        d = star.generator_degree + extra
        if kind == "dense":
            mult = random_multipliers(star, d, random.Random(seed))
        elif kind == "one":
            d = star.generator_degree
            mult = ones(len(star.generator_keys()))
        else:
            mult = structured_multipliers(star, d, seed)
    except ValueError:      # not general, past the arc bound, or no line G
        reject()
    return star, d, mult


evaluation_problems = st.builds(
    evaluation_problem, field=st.sampled_from([GF, PrimeField(5), QQ]),
    n=st.sampled_from([2, 3, 4]), l=st.integers(2, 6),
    extra=st.integers(0, 3), seed=st.integers(0, 2**20),
    kind=st.sampled_from(["dense", "one"])) | st.builds(
    # six lines over GF(5) leave no line G missing their points
    evaluation_problem, field=st.sampled_from([GF, QQ]), n=st.just(2),
    l=st.integers(6, 8), extra=st.integers(0, 4), seed=st.integers(0, 2**20),
    kind=st.just("structured"))


@settings(max_examples=60, deadline=None)
@given(problem=evaluation_problems)
def test_multiplier_values_match_term_by_term_evaluation(problem):
    """Each M_{s - i}(p_s) from the one monomial table of p_s equals
    `HomogeneousPoly.evaluate` at the integer coordinates of p_s."""
    star, d, mult = problem
    mdeg = d - star.generator_degree
    mult_of = {key: poly_of(star.field, star.n + 1, mdeg, m)
               for key, m in zip(star.generator_keys(), mult)}
    values = multiplier_values(star, d, mult)
    assert list(values) == star.point_keys()
    for s, p in star.points.items():
        assert set(values[s]) == set(s)
        for i in s:
            m = mult_of[tuple(j for j in s if j != i)]
            assert values[s][i] == m.evaluate(p)


@pytest.mark.parametrize("n", [2, 3])
def test_tangent_functions_reject_wrong_multipliers(n):
    star = random_star(5, 4, GF, n=n)
    d = star.generator_degree + 1
    mult = random_multipliers(star, d, random.Random(0))
    too_high = random_multipliers(star, d + 1, random.Random(0))
    mixed = mult[:-1] + too_high[-1:]

    def submatrix_rank(star, d, multipliers):
        return evaluation_submatrix_rank(star, d, multipliers,
                                         star.point_keys(), [(1, 1)])

    for fn in (submatrix_rank, tangent_dim_points, tangent_dim_direct):
        for bad in (mult[:-1], mult + mult[:1], too_high, mixed):
            with pytest.raises(ValueError):
                fn(star, d, bad)
    with pytest.raises(ValueError, match="multipliers of degree"):
        submatrix_rank(star, d, too_high)
    with pytest.raises(ValueError, match="need d >= l - n \\+ 1"):
        tangent_dim_points(star, star.generator_degree - 1, mult)


# -- hand-picked evaluation sub-matrices ------------------------------------

def test_evaluation_submatrix_rank_twelve():
    star = published_star(QQ, 6)
    assert evaluation_submatrix_rank(star, 5, ones(6), TWELVE_ROWS,
                                     TWELVE_COLUMNS) == 12


def test_published_matrix_needs_no_fraction_arithmetic(monkeypatch):
    """Over Q the published 12 x 12 matrix is built and ranked in ints, at
    d = 5 with unit multipliers and at d = 6 with M_i = G."""
    star = published_star(QQ, 6)
    cases = [(5, ones(6)), (6, structured_multipliers(star, 6))]
    refuse_fraction_arithmetic(monkeypatch)
    for d, mult in cases:
        assert evaluation_submatrix_rank(star, d, mult, TWELVE_ROWS,
                                         TWELVE_COLUMNS) == 12


def test_evaluation_submatrix_rank_unknown_labels():
    star = published_star(QQ, 6)
    with pytest.raises(KeyError):
        evaluation_submatrix_rank(star, 5, ones(6), [(1, 9)],
                                  TWELVE_COLUMNS)
    with pytest.raises(KeyError):
        evaluation_submatrix_rank(star, 5, ones(6), TWELVE_ROWS, [(7, 1)])


# -- structured multipliers -------------------------------------------------

def test_structured_multipliers_base_cases():
    star = published_star(GF, 6)
    assert structured_multipliers(star, 5) == [[1]] * 6
    m6 = structured_multipliers(star, 6)
    assert all(len(m) == 3 for m in m6)     # linear forms
    assert all(m == m6[0] for m in m6)
    g = poly_of(GF, 3, 1, m6[0])
    for p in star.point_list():
        assert not GF.is_zero(g.evaluate(p))


def test_structured_multipliers_degrees():
    star = published_star(GF, 6)
    for d in (7, 8, 9):
        mult = structured_multipliers(star, d)
        assert all(len(m) == comb(d - 6 + 1 + 2, 2) for m in mult)


def test_structured_multipliers_incidence():
    """Each M_i vanishes exactly at the points its forms G_j pass through
    (M_4 and M_5 are powers of G: nowhere), over GF(p) and over Q, where
    some of those points have last nonzero entry 2."""
    zeros = [[(1, 2), (1, 5)], [(2, 6)], [(3, 4)], [], [], [(4, 6)]]
    for field in (GF, QQ):
        star = published_star(field, 6)
        mult = [poly_of(field, 3, 3, m)
                for m in structured_multipliers(star, 8)]
        assert [[key for key, p in sorted(star.points.items())
                 if field.is_zero(m.evaluate(p))] for m in mult] == zeros


def test_structured_multipliers_need_l6():
    star = published_star(GF, 5)
    with pytest.raises(ValueError):
        structured_multipliers(star, 5)


@pytest.mark.parametrize("d", [6, 7, 8])
def test_structured_multipliers_refuse_space_stars(d):
    """Their forms have three coefficients, so a star of P^3 is refused
    before any draw, at d = l - 1 (unit multipliers), d = l and past it."""
    star = random_star(7, 0, GF, n=3)
    with pytest.raises(ValueError, match=r"not hyperplanes in P\^3"):
        structured_multipliers(star, d)


PINNED_FIELDS = {"prime": GF, "rational": QQ, "prime101": PrimeField(101)}


def test_structured_multipliers_pinned():
    """The coefficient vectors of the published stars l = 6, 7 at
    d = l - 1 .. l + 3 and seeds 0-2, pinned in `golden/`: past d = l the
    forms G_1..G_5 are drawn, and no CLI golden reaches those degrees."""
    pinned = json.loads(
        (Path(__file__).parent / "golden" / "structured_multipliers.json")
        .read_text())
    got = {}
    for tag, field in PINNED_FIELDS.items():
        for l in (6, 7):
            star = published_star(field, l)
            for d in range(l - 1, l + 4):
                for seed in range(3):
                    got[f"{tag} l={l} d={d} seed={seed}"] = \
                        structured_multipliers(star, d, seed)
    assert got == pinned


# -- random multipliers -----------------------------------------------------

def dense_poly_draw(star, d, rng):
    """The draw as dense polynomials: one coefficient per degree-m
    monomial, in basis order, for each generator key in turn."""
    mdeg = d - star.generator_degree
    fld, nvars = star.field, star.n + 1
    basis = monomials_of_degree(nvars, mdeg)
    return [HomogeneousPoly(fld, nvars, mdeg,
                            {m: single_draw(fld, rng) for m in basis})
            for _ in star.generator_keys()]


@pytest.mark.parametrize("field", [GF, PrimeField(7), QQ])
@pytest.mark.parametrize("n", [2, 3])
def test_random_multipliers_are_the_dense_draw(field, n):
    """Each vector is the dense polynomial's `coefficient_vector()`, and
    the stream is left where the dense draw leaves it."""
    star = random_star(n + 3, 5, field, n)
    for extra in range(4):
        d = star.generator_degree + extra
        rng, old = random.Random(extra), random.Random(extra)
        assert random_multipliers(star, d, rng) == \
            [m.coefficient_vector() for m in dense_poly_draw(star, d, old)]
        assert rng.random() == old.random()


# -- lower bounds and certificates ------------------------------------------

def test_lower_bound_quartic_case():
    res = certify(4, 5, GF, trials=3, seed=0)
    assert res.lower_bound == 13


def test_lower_bound_small_cases():
    assert certify(2, 3, GF, trials=2, seed=1).lower_bound == 5
    assert certify(5, 6, GF, trials=2, seed=1).lower_bound == 17


def test_certify_certified():
    cert = certify(6, 6, GF, trials=2, seed=4)
    assert cert.verdict == "CERTIFIED"
    assert cert.lower_bound == cert.theorem_value == 24
    assert cert.lower_bound <= min(v for _, v in cert.upper_bounds)


def test_certify_empty():
    cert = certify(2, 5, GF)
    assert cert.verdict == "EMPTY"
    assert cert.lower_bound is None


def test_certify_gap_when_data_degenerate():
    # zero multipliers can never reach the generic dimension
    star = random_star(6, 3, GF)
    cert = certify(5, 6, GF, trials=1, seed=0, stars=[star],
                   multipliers=[[0]] * 6)
    assert cert.verdict == "GAP"


def test_certificate_json_schema():
    cert = certify(4, 5, GF, trials=1, seed=0)
    data = cert.to_json()
    assert data["d"] == 4 and data["l"] == 5
    assert data["field"] == "prime"
    assert data["verdict"] in ("CERTIFIED", "GAP")
    assert {b["source"] for b in data["upper_bounds"]} == \
        {"ambient", "incidence", "luroth"}


def test_certificate_records_external_facts():
    assert certify(5, 6, GF, trials=1).external_facts == [STAR_IDEAL_SOURCE]
    assert certify(4, 5, GF, trials=1).to_json()["external_facts"] == \
        [STAR_IDEAL_SOURCE, LUROTH_SOURCE]
    assert certify(2, 5, GF).external_facts == []


GFP = f"GF({DEFAULT_PRIME})"


@pytest.mark.parametrize("fld, stars, has", [
    (QQ, TrialStars(7, PrimeField(13), 0), "l = 7 hyperplanes in P^2 over "
                                           "GF(13), not l = 7 in P^2 over QQ"),
    (GF, TrialStars(6, GF, 0), f"l = 6 hyperplanes in P^2 over {GFP}, "
                               f"not l = 7 in P^2 over {GFP}"),
    (GF, TrialStars(7, GF, 0, n=3), f"l = 7 hyperplanes in P^3 over {GFP}, "
                                    f"not l = 7 in P^2 over {GFP}")])
def test_certify_refuses_a_star_of_another_row(fld, stars, has):
    """A supplied star must have the row's l, n and field: a star over
    GF(13) would make every rank of a rational certificate mod 13."""
    with pytest.raises(ValueError) as err:
        certify(8, 7, fld, trials=1, stars=stars)
    assert str(err.value) == f"trial 0 has {has}"


def test_certificate_records_n():
    assert certify(4, 4, GF, trials=1, n=3).to_json()["n"] == 3
    assert certify(4, 4, GF, trials=1).to_json()["n"] == 2
    assert certify(2, 5, GF).to_json()["n"] == 2
    cert = DimensionCertificate(5, 6, {"field": "prime"}, [0], 17, 17,
                                [("incidence", 17)], "CERTIFIED")
    assert cert.n == 2


def test_certify_in_space_keeps_the_degree_preconditions():
    """EMPTY is the plane theorem's verdict only; in P^3 the degrees
    below l - 1 are refused."""
    for d in (2, 3):
        with pytest.raises(ValueError):
            certify(d, 5, GF, trials=1, n=3)


@pytest.mark.parametrize("lower, expected", [
    (13, ("CERTIFIED", "CONFIRMED")), (12, ("GAP", "OPEN")),
    (14, ("CONTRADICTION", "CONTRADICTION"))])
def test_verdict_rule(lower, expected):
    assert (verdict(lower, 13), verdict(lower, 13, "CONFIRMED", "OPEN")) == \
        expected


def test_certify_contradiction_when_lower_exceeds_upper(monkeypatch):
    # the incidence bound for (5, 6) is 17; a lower bound of 18 contradicts it
    monkeypatch.setattr(tangent_mod, "tangent_dim_points",
                        lambda *a, **k: 19)
    cert = certify(5, 6, GF, trials=1)
    assert cert.verdict == "CONTRADICTION"
    assert cert.lower_bound == 18 and cert.theorem_value == 17


def test_tangent_layout_built_once_per_star_and_command(monkeypatch, capsys):
    """`sweep` builds one tangent layout per trial star, l = 2..10, and
    reuses it for every degree of that l; a second sweep in the same
    process builds its own, as no layout outlives its star."""
    from starcurves.cli import main
    built, real = [], tangent_mod._TangentLayout.__init__

    def counted(self, star):
        built.append(star.l)
        real(self, star)

    monkeypatch.setattr(tangent_mod._TangentLayout, "__init__", counted)
    argv = ["sweep", "--dmax", "13", "--lmax", "10", "--trials", "1"]
    assert main(argv) == 0
    assert built == list(range(2, 11))
    assert main(argv) == 0
    assert len(built) == 18
    capsys.readouterr()


def eager_order(star):
    """Every point key in the order the rank reads them, the whole list
    built up front: the band, for each i the n-subsets of the cyclic
    window {i, ..., i + n} that contain i, each once; then the others in
    key order."""
    l, n, band = star.l, star.n, []
    for i in range(1, l + 1):
        for rest in combinations(range(i, i + n), n - 1):
            s = tuple(sorted({i, *(h % l + 1 for h in rest)}))
            if len(s) == n and s not in band:
                band.append(s)
    return band + [s for s in star.point_keys() if s not in band]


def keys_read(monkeypatch):
    """A list that gets, for each pass of a tangent rank, the list of the
    point keys its row builder takes from the star's layout, in order."""
    passes, real = [], tangent_mod._TangentLayout.__iter__

    def spy(layout):
        taken = []
        passes.append(taken)

        def take(s):
            taken.append(s)
            return s
        return map(take, real(layout))

    monkeypatch.setattr(tangent_mod._TangentLayout, "__iter__", spy)
    return passes


def test_layout_reused_across_degrees_gives_the_eager_rank(monkeypatch):
    """One star ranked at its degrees out of order, each rank reading the
    layout the first one built, equals the eager matrix, and reads a
    prefix of the eager key order: past the band at low degrees over
    GF(5) and in the Luroth case (4, 5) over Q."""
    passes = keys_read(monkeypatch)
    rng = random.Random("layout reuse")
    for field, n, l in ((GF, 2, 8), (PrimeField(7), 3, 6), (QQ, 2, 5),
                        (PrimeField(5), 2, 6), (GF, 4, 7)):
        star = random_star(l, 3, field, n)
        order = eager_order(star)
        degrees = list(range(star.generator_degree, star.generator_degree + 5))
        rng.shuffle(degrees)
        for d in degrees:
            mult = random_multipliers(star, d, rng)
            record = {}
            del passes[:]
            assert tangent_dim_points(star, d, mult, record) == \
                eager_tangent_dim(star, d, mult)
            assert passes[0] == order[:record["rows_read"]]
            assert all(p == order for p in passes[1:])


@pytest.mark.parametrize("d, l, field, n, seed, read", [
    (4, 5, QQ, 2, 0, comb(5, 2)),      # the Luroth case: a short rank
    (5, 6, PrimeField(5), 2, 6, 15),   # a short band rank over GF(5)
    (7, 7, GF, 3, 1, 7 * 3),
    (9, 9, GF, 4, 2, 9 * 4),
])
def test_rows_past_the_band_come_in_key_order(monkeypatch, d, l, field, n,
                                              seed, read):
    """The layout keeps only the band; the rows the rank reads past it
    come in key order, as when the whole order was built up front, and
    `rows_read` counts them: all C(5, 2) rows in the Luroth case, whose
    rank mod p is short, so an exact pass over Q reads every row again;
    past the band's 12 rows on one GF(5) star; and the band's l*n rows at
    n = 3 and n = 4 over a large prime."""
    passes = keys_read(monkeypatch)
    cert = certify(d, l, field, trials=1, seed=seed, n=n)
    order = eager_order(random_star(l, trial_seed(seed, 0), field, n))
    assert cert.trials[0]["rows_read"] == read
    assert passes[0] == order[:read]
    assert passes[1:] == ([order] if field == QQ else [])


def test_certificate_keeps_a_record_per_trial():
    """Each trial's record holds its seed, tangent dimension, the rows the
    rank read and the seconds of each phase, and `to_json` writes them:
    the band's l*n rows at random data, every row in the Luroth case."""
    cert = certify(9, 7, GF, trials=2, seed=5)
    records = cert.to_json()["trials"]
    assert [r["seed"] for r in records] == cert.seeds
    assert max(r["dimension"] for r in records) - 1 == cert.lower_bound
    assert [r["rows_read"] for r in records] == [14, 14]
    for r in records:
        assert set(r) == {"seed", "dimension", "rows_read", "star_s",
                          "multipliers_s", "rank_s"}
        assert min(r["star_s"], r["multipliers_s"], r["rank_s"]) >= 0
    json.dumps(records)
    assert certify(4, 5, QQ, trials=1).trials[0]["rows_read"] == comb(5, 2)
    assert certify(2, 5, GF).trials == []
