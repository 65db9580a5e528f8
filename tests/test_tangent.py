import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import starcurves.tangent as tangent_mod

from starcurves.fields import PrimeField, QQ
from starcurves.matrices import ExactMatrix
from starcurves.polynomials import (HomogeneousPoly, monomials_of_degree,
                                    parse_poly, perturbation_coefficient,
                                    poly_sum)
from starcurves.reference_cases import (TWELVE_COLUMNS, TWELVE_ROWS,
                                        five_line_forms, six_line_forms)
from starcurves.formulas import LUROTH_SOURCE, STAR_IDEAL_SOURCE
from starcurves.starconfig import (GenericityError, LinearForm, build_star,
                                   random_general_forms, random_star)
from starcurves.tangent import (LowerBoundResult, build_q_forms, certify,
                                ideal_component_dim, lower_bound_dim_S,
                                evaluation_submatrix_rank, random_multipliers,
                                tangent_dim_direct, tangent_dim_points,
                                tangent_values, structured_multipliers)

GF = PrimeField()


def ones(field, count):
    return [HomogeneousPoly.one(field, 3)] * count


def random_problem(l, d, seed):
    star = build_star(random_general_forms(l, seed, GF))
    mult = random_multipliers(star, d, random.Random(seed ^ 0xABCD))
    return star, d, mult


# -- Q forms ----------------------------------------------------------------

def test_q_forms_l2_degree_one():
    f = QQ
    forms = [LinearForm(f, [Fraction(1), Fraction(0), Fraction(0)]),
             LinearForm(f, [Fraction(0), Fraction(1), Fraction(0)])]
    star = build_star(forms)
    q = build_q_forms(star, ones(f, 2))
    # both are the empty product times the unit multiplier
    assert q[0] == HomogeneousPoly.one(f, 3)
    assert q[1] == HomogeneousPoly.one(f, 3)


def test_q_forms_five_lines_structure():
    star = build_star(five_line_forms(QQ))
    q = build_q_forms(star, ones(QQ, 5))
    assert all(qi.degree == 3 for qi in q)
    expected = poly_sum([star.hat_product_without(1, i) for i in (2, 3, 4, 5)],
                        QQ, 3, 3)
    assert q[0] == expected


def test_q_forms_six_lines_with_linear_multiplier():
    star = build_star(six_line_forms(QQ))
    g = parse_poly("x0 + 5*x1 + 7*x2", QQ, 3)
    q = build_q_forms(star, [g] * 6)
    assert all(qi.degree == 5 for qi in q)


def test_q_forms_wrong_count_rejected():
    star = build_star(five_line_forms(QQ))
    with pytest.raises(ValueError):
        build_q_forms(star, ones(QQ, 4))


def test_q_forms_mixed_degrees_rejected():
    star = build_star(five_line_forms(QQ))
    mult = ones(QQ, 4) + [HomogeneousPoly.variable(QQ, 3, 0)]
    with pytest.raises(ValueError):
        build_q_forms(star, mult)


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([2, 3]),
       field=st.sampled_from([GF, PrimeField(11), QQ]),
       l=st.integers(2, 5), extra=st.integers(0, 2),
       seed=st.integers(0, 2**20))
def test_q_forms_match_product_rule(n, field, l, extra, seed):
    # x_k * Q_i is the first-order term of sum_T M_T * prod_{j not in T} L_j
    # under L_i -> L_i + t*x_k; here that term comes from the product rule
    l = max(l, n)
    star = build_star(random_general_forms(l, seed, field, n=n))
    d = star.generator_degree + extra
    mult = random_multipliers(star, d, random.Random(seed))
    q = build_q_forms(star, mult)
    nvars = n + 1
    zero1 = HomogeneousPoly.zero(field, nvars, 1)
    for i in range(1, l + 1):
        for k in range(nvars):
            xk = HomogeneousPoly.variable(field, nvars, k)
            parts = [m * perturbation_coefficient(
                         [(star.forms[j - 1].poly(), xk if j == i else zero1)
                          for j in range(1, l + 1) if j not in key])
                     for key, m in zip(star.generator_keys(), mult)]
            assert xk * q[i - 1] == poly_sum(parts, field, nvars, d)


# -- graded ideal components ------------------------------------------------

def test_ideal_component_single_variable():
    x0 = HomogeneousPoly.variable(QQ, 3, 0)
    assert ideal_component_dim([x0], 2) == 3


def test_ideal_component_five_line_hats():
    star = build_star(five_line_forms(QQ))
    # complement of HF(X(5), 4) = 10 inside dim S_4 = 15
    assert ideal_component_dim(star.generators, 4) == 5


def test_ideal_component_below_degree():
    star = build_star(six_line_forms(QQ))
    assert ideal_component_dim(star.generators, 4) == 0


def test_ideal_component_constant_generator():
    one = HomogeneousPoly.one(QQ, 3)
    assert ideal_component_dim([one], 2) == 6   # all of S_2


# -- tangent dimensions -----------------------------------------------------

def test_tangent_direct_quartic_case():
    star = build_star(five_line_forms(QQ))
    assert tangent_dim_direct(star, 4, ones(QQ, 5)) == 14


def test_tangent_direct_six_lines_d5():
    star = build_star(six_line_forms(QQ))
    # rank-12 evaluation block plus dim of the configuration ideal in
    # degree 5: C(7,2) - C(6,2) = 6
    assert tangent_dim_direct(star, 5, ones(QQ, 6)) == 18


def test_tangent_direct_l2_d1():
    f = QQ
    forms = [LinearForm(f, [Fraction(1), Fraction(0), Fraction(0)]),
             LinearForm(f, [Fraction(0), Fraction(1), Fraction(0)])]
    star = build_star(forms)
    # the Q forms are nonzero constants, so the degree-1 component is S_1
    assert tangent_dim_direct(star, 1, ones(f, 2)) == 3


def test_tangent_points_quartic_case():
    star = build_star(five_line_forms(QQ))
    assert tangent_dim_points(star, 4, ones(QQ, 5)) == 14


def test_tangent_points_six_lines_d5():
    star = build_star(six_line_forms(QQ))
    assert tangent_dim_points(star, 5, ones(QQ, 6)) == 18


def test_tangent_points_zero_multipliers():
    star = build_star(random_general_forms(5, 9, GF))
    d = 5
    zero = HomogeneousPoly.zero(GF, 3, d - star.l + 1)
    expected = comb(d + 2, 2) - comb(5, 2)
    assert tangent_dim_points(star, d, [zero] * 5) == expected
    assert tangent_dim_direct(star, d, [zero] * 5) == expected


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
        assert dim >= ideal_component_dim(star.generators, d)


def test_perturbation_elements_lie_in_tangent_space():
    # a full first-order perturbation of the parametrization, computed
    # via the product rule, must stay inside the span measured by the
    # coefficient-matrix algorithm
    rng = random.Random(15)
    star = build_star(random_general_forms(5, 51, GF))
    d = 6
    mult = random_multipliers(star, d, rng)
    mdeg = d - star.l + 1
    l_dirs = [HomogeneousPoly(GF, 3, 1,
                              {m: GF.random(rng)
                               for m in monomials_of_degree(3, 1)})
              for _ in range(star.l)]
    m_dirs = [HomogeneousPoly(GF, 3, mdeg,
                              {m: GF.random(rng)
                               for m in monomials_of_degree(3, mdeg)})
              for _ in range(star.l)]
    parts = []
    for i in range(star.l):
        parts.append(m_dirs[i] * star.hat_product_without(i + 1))
        factors = [(star.forms[j].poly(), l_dirs[j]) for j in range(star.l)
                   if j != i]
        parts.append(mult[i] * perturbation_coefficient(factors))
    tangent_vector = poly_sum(parts, GF, 3, d)

    gens = list(star.generators) + build_q_forms(star, mult)
    base_rank = ideal_component_dim(gens, d)
    basis = monomials_of_degree(3, d)
    rows = []
    for g in gens:
        for mono in monomials_of_degree(3, d - g.degree):
            shift = {tuple(a + b for a, b in zip(mono, gm)): c
                     for gm, c in g.terms.items()}
            rows.append(HomogeneousPoly(GF, 3, d, shift).coefficient_vector())
    rows.append(tangent_vector.coefficient_vector())
    assert ExactMatrix(GF, rows, ncols=len(basis)).rank() == base_rank


def drawn_problem(n, field, l, extra, seed, kind):
    """A random configuration in P^n with multipliers that are random, all
    equal, or zero; rejects the example when a small field runs out of
    draws."""
    try:
        star = random_star(max(l, n), seed, field, n)
    except GenericityError:
        reject()
    d = star.generator_degree + extra
    mult = random_multipliers(star, d, random.Random(seed))
    if kind == "equal":
        mult = [mult[0]] * len(mult)
    elif kind == "zero":
        mult = [HomogeneousPoly.zero(field, n + 1, extra)] * len(mult)
    return star, d, mult


problems = st.builds(
    drawn_problem, n=st.sampled_from([2, 3]),
    field=st.sampled_from([GF, PrimeField(11), QQ]), l=st.integers(2, 6),
    extra=st.integers(0, 2), seed=st.integers(0, 2**20),
    kind=st.sampled_from(["random", "equal", "zero"])) | st.builds(
    drawn_problem, n=st.sampled_from([2, 3]), field=st.just(PrimeField(5)),
    l=st.integers(2, 5), extra=st.integers(0, 2),
    seed=st.integers(0, 2**20),
    kind=st.sampled_from(["random", "equal", "zero"]))


@settings(max_examples=60, deadline=None)
@given(problem=problems)
def test_point_rank_matches_coefficient_rank(problem):
    assert tangent_dim_points(*problem) == tangent_dim_direct(*problem)


@settings(max_examples=30, deadline=None)
@given(problem=problems)
def test_tangent_values_match_q_forms(problem):
    star, d, mult = problem
    values = tangent_values(star, d, mult)
    assert list(values) == star.point_keys()
    q = build_q_forms(star, mult)
    for s, p in star.points.items():
        assert set(values[s]) == set(s)
        for i in range(1, star.l + 1):
            value = q[i - 1].evaluate(p.coordinates)
            if i in s:
                assert values[s][i] == value
            else:
                assert star.field.is_zero(value)


@pytest.mark.parametrize("n", [2, 3])
def test_tangent_functions_reject_wrong_multipliers(n):
    star = build_star(random_general_forms(5, 4, GF, n=n))
    d = star.generator_degree + 1
    mult = random_multipliers(star, d, random.Random(0))
    too_high = random_multipliers(star, d + 1, random.Random(0))
    mixed = mult[:-1] + too_high[-1:]
    for fn in (tangent_values, tangent_dim_points, tangent_dim_direct):
        for bad in (mult[:-1], mult + mult[:1], too_high, mixed):
            with pytest.raises(ValueError):
                fn(star, d, bad)
    with pytest.raises(ValueError, match="multipliers of degree"):
        tangent_values(star, d, too_high)
    with pytest.raises(ValueError, match="need d >= l - n \\+ 1"):
        tangent_dim_points(star, star.generator_degree - 1, mult)


# -- hand-picked evaluation sub-matrices ------------------------------------

def test_evaluation_submatrix_rank_twelve():
    star = build_star(six_line_forms(QQ))
    assert evaluation_submatrix_rank(star, 5, ones(QQ, 6), TWELVE_ROWS,
                                     TWELVE_COLUMNS) == 12


def test_evaluation_submatrix_rank_unknown_labels():
    star = build_star(six_line_forms(QQ))
    with pytest.raises(KeyError):
        evaluation_submatrix_rank(star, 5, ones(QQ, 6), [(1, 9)],
                                  TWELVE_COLUMNS)
    with pytest.raises(KeyError):
        evaluation_submatrix_rank(star, 5, ones(QQ, 6), TWELVE_ROWS, [(7, 1)])


# -- structured multipliers -------------------------------------------------

def test_structured_multipliers_base_cases():
    star = build_star(six_line_forms(GF))
    assert all(m == HomogeneousPoly.one(GF, 3)
               for m in structured_multipliers(star, 5))
    m6 = structured_multipliers(star, 6)
    assert all(m.degree == 1 for m in m6)
    g = m6[0]
    assert all(m == g for m in m6)
    for p in star.point_list():
        assert not GF.is_zero(g.evaluate(p.coordinates))


def test_structured_multipliers_degrees():
    star = build_star(six_line_forms(GF))
    for d in (7, 8, 9):
        mult = structured_multipliers(star, d)
        assert all(m.degree == d - 6 + 1 for m in mult)


def test_structured_multipliers_incidence():
    star = build_star(six_line_forms(GF))
    mult = structured_multipliers(star, 8)
    # M_4 and M_5 are powers of G: nonzero at every configuration point
    for i in (3, 4):
        for p in star.point_list():
            assert not GF.is_zero(mult[i].evaluate(p.coordinates))
    # M_2 = G_3 * G^2 vanishes exactly at p_{2,6}
    vanishing = [key for key, p in sorted(star.points.items())
                 if GF.is_zero(mult[1].evaluate(p.coordinates))]
    assert vanishing == [(2, 6)]


def test_structured_multipliers_need_l6():
    star = build_star(five_line_forms(GF))
    with pytest.raises(ValueError):
        structured_multipliers(star, 5)


# -- lower bounds and certificates ------------------------------------------

def test_lower_bound_quartic_case():
    res = lower_bound_dim_S(4, 5, GF, trials=3, seed=0)
    assert res.lower_bound == 13


def test_lower_bound_small_cases():
    assert lower_bound_dim_S(2, 3, GF, trials=2, seed=1).lower_bound == 5
    assert lower_bound_dim_S(5, 6, GF, trials=2, seed=1).lower_bound == 17


def test_lower_bound_requires_valid_degree():
    with pytest.raises(ValueError):
        lower_bound_dim_S(3, 5, GF)


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
    star_forms = random_general_forms(6, 3, GF)
    zero = HomogeneousPoly.zero(GF, 3, 0)
    cert = certify(5, 6, GF, trials=1, seed=0, forms=star_forms,
                   multipliers=[zero] * 6)
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


def test_certify_contradiction_when_lower_exceeds_upper(monkeypatch):
    # the incidence bound for (5, 6) is 17; a lower bound of 18 contradicts it
    monkeypatch.setattr(tangent_mod, "lower_bound_dim_S",
                        lambda d, l, *a, **k: LowerBoundResult(d, l, 18, [19],
                                                               [0]))
    cert = certify(5, 6, GF, trials=1)
    assert cert.verdict == "CONTRADICTION"
    assert cert.lower_bound == 18 and cert.theorem_value == 17
