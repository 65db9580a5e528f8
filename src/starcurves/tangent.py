"""Tangent-space dimension computations for the locus of degree-d
hypersurfaces through a star configuration.

The locus is parametrized by (L_1..L_l, {M_T}) -> sum_T M_T * Lhat_T, the
sum over (n-1)-subsets T of the generators Lhat_T = prod_{h not in T} L_h.
In the plane (n = 2) this is sum_i M_i * Lhat_i.  Differentiating in the
direction L_i -> L_i + t*x_k gives x_k * Q_i, with the degree d-1 forms

    Q_i = sum_{n-subsets s containing i} M_{s - i} * prod_{h not in s} L_h,

(for n = 2: Q_i = sum_{j != i} M_j * Lhat_{i,j}), and the degree-d
component of the ideal (Lhat_T, Q_1..Q_l) is the affine tangent space at
the chosen data.  Its dimension minus one is a semicontinuity lower bound
for the dimension of the locus; matching a known upper bound certifies it.

Two independent algorithms compute that dimension for every n.  A ranks
the coefficient matrix over the degree-d monomial basis; it needs the Q
forms but no outside theorem.  B needs only scalars: every term of Q_j
keeps a form L_h with h in s, except the term of s itself when j is in s,
so Q_i(p_s) = M_{s - i}(p_s) * prod_{h not in s} L_h(p_s) for i in s and
Q_j(p_s) = 0 otherwise.  As the generators span the ideal of the points in
every degree d >= l - n + 1 (Geramita-Harbourne-Migliore), dim_k I_d is
C(d+n,n) - C(l,n) plus the rank of the values of the x_k * Q_i at the
points.  Certificates use B; the tests cross-check it against A.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from math import comb
from typing import Sequence

from .fields import Element, Field, check_same_field
from .formulas import (LUROTH_SOURCE, STAR_IDEAL_SOURCE,
                       closed_form_dimension, upper_bounds)
from .matrices import ExactMatrix
from .polynomials import (HomogeneousPoly, monomials_of_degree, poly_product,
                          poly_sum)
from .starconfig import (RETRY_BUDGET, GenericityError, LinearForm,
                         StarConfiguration, build_star, random_star)


def _multiplier_degree(star: StarConfiguration,
                       multipliers: Sequence[HomogeneousPoly],
                       d: int | None = None) -> int:
    """The common degree of the multipliers, one per generator key; given
    d, it must be d - (l - n + 1)."""
    count = len(star.generator_keys())
    if len(multipliers) != count:
        raise ValueError(f"expected {count} multipliers, "
                         f"got {len(multipliers)}")
    mdeg = multipliers[0].degree
    for m in multipliers:
        check_same_field(m.field, star.field)
        if m.degree != mdeg:
            raise ValueError("multipliers must share one degree")
    if d is not None and mdeg != d - star.generator_degree:
        raise ValueError(f"need d >= l - n + 1 = {star.generator_degree} and "
                         f"multipliers of degree d - (l - n + 1), got d = {d}"
                         f" and degree {mdeg}")
    return mdeg


def build_q_forms(star: StarConfiguration,
                  multipliers: Sequence[HomogeneousPoly]) -> list[HomogeneousPoly]:
    """The l forms Q_i of degree d - 1, from one product of the forms
    outside each n-subset s, shared by the Q_i with i in s.

    `multipliers` are the M_T in generator-key order.
    """
    mdeg = _multiplier_degree(star, multipliers)
    mult = dict(zip(star.generator_keys(), multipliers))
    parts: list[list[HomogeneousPoly]] = [[] for _ in range(star.l)]
    for s in star.point_keys():
        outside = star.hat_product_without(*s)
        for i in s:
            rest = tuple(j for j in s if j != i)
            parts[i - 1].append(mult[rest] * outside)
    return [poly_sum(p, star.field, star.n + 1, mdeg + star.l - star.n)
            for p in parts]


def tangent_values(star: StarConfiguration, d: int,
                   multipliers: Sequence[HomogeneousPoly]
                   ) -> dict[tuple[int, ...], dict[int, Element]]:
    """Q_i(p_s) for every point key s and every i in s, in point-key
    order; every other Q_j vanishes at p_s.

    `multipliers` are the M_T in generator-key order, of degree
    d - (l - n + 1).
    """
    _multiplier_degree(star, multipliers, d)
    fld = star.field
    mult = dict(zip(star.generator_keys(), multipliers))
    table = {}
    for s, p in sorted(star.points.items()):
        outside = fld.one()
        for h, form in enumerate(star.forms, start=1):
            if h not in s:
                outside = fld.mul(outside, form.evaluate(p))
        table[s] = {i: fld.mul(mult[tuple(j for j in s if j != i)]
                               .evaluate(p.coordinates), outside)
                    for i in s}
    return table


def ideal_component_dim(generators: Sequence[HomogeneousPoly], d: int) -> int:
    """Dimension of the degree-d component of the generated ideal.

    Rows of the rank matrix are coefficient vectors of m * g over the
    degree-d monomial basis, for every generator g and every monomial m of
    degree d - deg(g).  Generators of degree > d contribute nothing; a
    nonzero constant generator makes the component all of S_d (its
    monomial multiples already span the basis).
    """
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return 0
    fld = gens[0].field
    nvars = gens[0].nvars
    basis = monomials_of_degree(nvars, d)
    index = {m: i for i, m in enumerate(basis)}
    rows = []
    for g in gens:
        check_same_field(g.field, fld)
        if g.degree > d:
            continue
        for mono in monomials_of_degree(nvars, d - g.degree):
            row = [fld.zero()] * len(basis)
            for gm, c in g.terms.items():
                shifted = tuple(a + b for a, b in zip(mono, gm))
                row[index[shifted]] = c
            rows.append(row)
    if not rows:
        return 0
    return ExactMatrix(fld, rows, ncols=len(basis)).rank()


def tangent_dim_direct(star: StarConfiguration, d: int,
                       multipliers: Sequence[HomogeneousPoly]) -> int:
    """dim_k I_d via the coefficient-matrix rank (algorithm A)."""
    _multiplier_degree(star, multipliers, d)
    gens = star.generators + build_q_forms(star, multipliers)
    return ideal_component_dim(gens, d)


def tangent_dim_points(star: StarConfiguration, d: int,
                       multipliers: Sequence[HomogeneousPoly]) -> int:
    """dim_k I_d via point evaluation (algorithm B).

    The rank of the C(l,n) x l(n+1) matrix with entries p_s[k] * Q_i(p_s),
    rows the points and columns the x_k * Q_i, plus the dimension
    C(d+n,n) - C(l,n) of the configuration ideal in degree d.
    """
    values = tangent_values(star, d, multipliers)
    fld, width = star.field, star.n + 1
    rows = []
    for s, qs in values.items():
        coords = star.points[s].coordinates
        row = [fld.zero()] * (star.l * width)
        for i, q in qs.items():
            for k, x in enumerate(coords):
                row[(i - 1) * width + k] = fld.mul(x, q)
        rows.append(row)
    rank = ExactMatrix(fld, rows, ncols=star.l * width).rank()
    return rank + comb(d + star.n, star.n) - comb(star.l, star.n)


def evaluation_submatrix_rank(star: StarConfiguration, d: int,
                              multipliers: Sequence[HomogeneousPoly],
                              row_points: Sequence[tuple[int, ...]],
                              columns: Sequence[tuple[int, int]]) -> int:
    """Rank of a hand-picked evaluation sub-matrix.

    `row_points` are 1-based point labels such as (i, j); `columns` are
    pairs (r, t) denoting the degree-d product L_r * Q_t, whose value at
    p_s is L_r(p_s) * Q_t(p_s).
    """
    keys = [tuple(sorted(key)) for key in row_points]
    for key in keys:
        if key not in star.points:
            raise KeyError(f"unknown point label {key}")
    for r, t in columns:
        if not (1 <= r <= star.l and 1 <= t <= star.l):
            raise KeyError(f"unknown column label ({r}, {t})")
    values = tangent_values(star, d, multipliers)
    fld = star.field
    data = [[fld.mul(star.forms[r - 1].evaluate(star.points[s]),
                     values[s].get(t, fld.zero())) for r, t in columns]
            for s in keys]
    return ExactMatrix(fld, data, ncols=len(columns)).rank()


# ---------------------------------------------------------------------------
# structured multipliers for the block-matrix construction (l >= 6)

def _form_missing(fld: Field, coeffs, points) -> LinearForm | None:
    """The form with these coefficients, if it is nonzero at every point."""
    if all(fld.is_zero(c) for c in coeffs):
        return None
    form = LinearForm(fld, coeffs)
    if all(not fld.is_zero(form.evaluate(p)) for p in points):
        return form
    return None


def _linear_form_through(star: StarConfiguration, key: tuple[int, int],
                         rng: random.Random) -> LinearForm:
    """A linear form vanishing at the labelled point and at no other point
    of the configuration: random coefficients off the point's last nonzero
    coordinate (which is 1), and the one there that makes it vanish."""
    fld = star.field
    coords = star.points[key].coordinates
    last = max(i for i, c in enumerate(coords) if not fld.is_zero(c))
    others = [p for k, p in star.points.items() if k != key]
    for _ in range(RETRY_BUDGET):
        coeffs = [fld.zero() if i == last else fld.random(rng)
                  for i in range(3)]
        total = fld.zero()
        for c, x in zip(coeffs, coords):
            total = fld.add(total, fld.mul(c, x))
        coeffs[last] = fld.neg(total)
        form = _form_missing(fld, coeffs, others)
        if form is not None:
            return form
    raise GenericityError("no linear form through the point avoiding the rest")


def _avoiding_linear_form(star: StarConfiguration,
                          rng: random.Random) -> LinearForm:
    """A linear form nonzero at every point of the configuration."""
    fld = star.field
    for _ in range(RETRY_BUDGET):
        form = _form_missing(fld, [fld.random(rng) for _ in range(3)],
                             star.point_list())
        if form is not None:
            return form
    raise GenericityError("no avoiding linear form found")


def structured_multipliers(star: StarConfiguration, d: int,
                          seed: int = 0) -> list[HomogeneousPoly]:
    """Structured multipliers realizing the block evaluation matrix.

    Requires l >= 6 and d >= l - 1.  Three regimes:
    d = l - 1: all multipliers 1; d = l: all equal to a linear form G
    missing every configuration point; d >= l + 1: products of G with
    linear forms G_1..G_5 each passing through exactly one prescribed
    point (p_{1,5}, p_{1,2}, p_{2,6}, p_{3,4}, p_{4,6}), padding with
    powers of G so every multiplier has degree d - l + 1.
    """
    l = star.l
    if l < 6:
        raise ValueError("structured multipliers need l >= 6")
    if d < l - 1:
        raise ValueError("need d >= l - 1")
    fld = star.field
    if d == l - 1:
        return [HomogeneousPoly.one(fld, 3)] * l
    rng = random.Random(seed)
    g = _avoiding_linear_form(star, rng).poly()
    if d == l:
        return [g] * l
    special = [(1, 5), (1, 2), (2, 6), (3, 4), (4, 6)]
    g1, g2, g3, g4, g5 = (
        _linear_form_through(star, key, rng).poly() for key in special)

    def gpow(e: int) -> HomogeneousPoly:
        return poly_product([g] * e, fld, 3)

    m = [
        g1 * g2 * gpow(d - l - 1),
        g3 * gpow(d - l),
        g4 * gpow(d - l),
        gpow(d - l + 1),
        gpow(d - l + 1),
        g5 * gpow(d - l),
    ]
    m += [gpow(d - l + 1)] * (l - 6)
    return m


def random_multipliers(star: StarConfiguration, d: int,
                       rng: random.Random) -> list[HomogeneousPoly]:
    """Random dense forms of degree d - l + n - 1, one per generator, in
    generator-key order."""
    mdeg = d - star.generator_degree
    if mdeg < 0:
        raise ValueError("need d >= l - n + 1")
    fld, nvars = star.field, star.n + 1
    basis = monomials_of_degree(nvars, mdeg)
    return [HomogeneousPoly(fld, nvars, mdeg,
                            {m: fld.random(rng) for m in basis})
            for _ in star.generator_keys()]


# ---------------------------------------------------------------------------
# semicontinuity lower bounds and certificates

@dataclass
class LowerBoundResult:
    d: int
    l: int
    lower_bound: int
    trial_dims: list[int]
    seeds: list[int]


def trial_seed(seed: int, trial: int) -> int:
    return seed * 1_000_003 + trial


def lower_bound_dim_S(d: int, l: int, fld: Field, trials: int = 3,
                      seed: int = 0,
                      forms: Sequence[LinearForm] | None = None,
                      multipliers: Sequence[HomogeneousPoly] | None = None,
                      n: int = 2) -> LowerBoundResult:
    """Semicontinuity lower bound: max over random trials of dim_k I_d - 1,
    for l hyperplanes in P^n (lines in the plane by default).

    Any specific choice of data gives a tangent dimension that can only be
    smaller than the generic one, so the maximum observed dimension minus
    one certifies a lower bound on the dimension of the locus.  Each
    trial takes the point-evaluation rank (algorithm B).  Fixed `forms`
    and/or `multipliers` override the random draws in every trial.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if d < l - n + 1:
        raise ValueError(f"need d >= l - n + 1 = {l - n + 1}")
    dims, seeds = [], []
    for t in range(trials):
        ts = trial_seed(seed, t)
        seeds.append(ts)
        star = build_star(forms) if forms is not None else \
            random_star(l, ts, fld, n)
        mult = multipliers if multipliers is not None else \
            random_multipliers(star, d, random.Random(ts ^ 0x5EED))
        dims.append(tangent_dim_points(star, d, mult))
    return LowerBoundResult(d, l, max(dims) - 1, dims, seeds)


@dataclass
class DimensionCertificate:
    d: int
    l: int
    field_descriptor: dict
    seeds: list[int]
    lower_bound: int | None
    theorem_value: int | None
    upper_bounds: list[tuple[str, int]]
    verdict: str                       # CERTIFIED | GAP | CONTRADICTION | EMPTY
    trial_dims: list[int] = dc_field(default_factory=list)
    external_facts: list[str] = dc_field(default_factory=list)

    def to_json(self) -> dict:
        out = {
            "d": self.d,
            "l": self.l,
            **self.field_descriptor,
            "seeds": self.seeds,
            "lower_bound": self.lower_bound,
            "theorem_value": self.theorem_value,
            "upper_bounds": [{"source": s, "value": v}
                             for s, v in self.upper_bounds],
            "external_facts": self.external_facts,
            "verdict": self.verdict,
        }
        return out


def certify(d: int, l: int, fld: Field, trials: int = 3, seed: int = 0,
            forms: Sequence[LinearForm] | None = None,
            multipliers: Sequence[HomogeneousPoly] | None = None
            ) -> DimensionCertificate:
    """Full verification of one (d, l) pair.

    EMPTY when d < l - 1; otherwise CONTRADICTION when the observed lower
    bound exceeds the least upper bound, CERTIFIED when it matches the
    closed-form value, GAP when the trials fall short.  `external_facts`
    lists the source tags of the outside theorems the verdict relies on.
    """
    tv = closed_form_dimension(d, l)
    if tv.is_empty:
        return DimensionCertificate(d, l, fld.descriptor(), [], None, None,
                                    [], "EMPTY")
    result = lower_bound_dim_S(d, l, fld, trials=trials, seed=seed,
                               forms=forms, multipliers=multipliers)
    bounds = upper_bounds(d, l)
    if result.lower_bound > min(v for _, v in bounds):
        verdict = "CONTRADICTION"
    elif result.lower_bound == tv.value:
        verdict = "CERTIFIED"
    else:
        verdict = "GAP"
    facts = [STAR_IDEAL_SOURCE] + [s for s, _ in bounds if s == LUROTH_SOURCE]
    return DimensionCertificate(
        d, l, fld.descriptor(), result.seeds, result.lower_bound, tv.value,
        bounds, verdict, trial_dims=result.trial_dims, external_facts=facts)
