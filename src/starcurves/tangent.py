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

Two independent algorithms compute that dimension in the plane: a
coefficient-matrix rank over the degree-d monomial basis, and a
point-evaluation rank over the configuration points.  They are
cross-checked in the test suite.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field as dc_field
from math import comb
from typing import Sequence

from .fields import Field, check_same_field
from .formulas import closed_form_dimension, upper_bounds
from .matrices import ExactMatrix
from .polynomials import (HomogeneousPoly, monomials_of_degree, poly_product,
                          poly_sum)
from .starconfig import (GenericityError, LinearForm, ProjectivePoint,
                         StarConfiguration, build_star, random_star)

RETRY_BUDGET = 100


class TangentProblem:
    """A star configuration with chosen multipliers and the derived Q forms."""

    def __init__(self, star: StarConfiguration, d: int,
                 multipliers: Sequence[HomogeneousPoly]):
        if d < star.generator_degree:
            raise ValueError(f"need d >= l - n + 1 = {star.generator_degree},"
                             f" got d = {d}")
        self.star = star
        self.d = d
        self.multipliers = list(multipliers)
        self.q_forms = build_q_forms(star, self.multipliers)

    @property
    def l(self) -> int:
        return self.star.l

    @property
    def field(self) -> Field:
        return self.star.field


def build_q_forms(star: StarConfiguration,
                  multipliers: Sequence[HomogeneousPoly]) -> list[HomogeneousPoly]:
    """The l forms Q_i of degree d - 1, from one product of the forms
    outside each n-subset s, shared by the Q_i with i in s.

    `multipliers` are the M_T in generator-key order.
    """
    keys = star.generator_keys()
    if len(multipliers) != len(keys):
        raise ValueError(f"expected {len(keys)} multipliers, "
                         f"got {len(multipliers)}")
    mdeg = multipliers[0].degree
    for m in multipliers:
        check_same_field(m.field, star.field)
        if m.degree != mdeg:
            raise ValueError("multipliers must share one degree")
    mult = dict(zip(keys, multipliers))
    parts: list[list[HomogeneousPoly]] = [[] for _ in range(star.l)]
    for s in star.point_keys():
        outside = star.hat_product_without(*s)
        for i in s:
            rest = tuple(j for j in s if j != i)
            parts[i - 1].append(mult[rest] * outside)
    return [poly_sum(p, star.field, star.n + 1, mdeg + star.l - star.n)
            for p in parts]


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


def tangent_dim_direct(problem: TangentProblem) -> int:
    """dim_k I_d via the coefficient-matrix rank (algorithm A)."""
    gens = problem.star.generators + problem.q_forms
    return ideal_component_dim(gens, problem.d)


def evaluation_matrix(star: StarConfiguration,
                      rows: Sequence[ProjectivePoint],
                      columns: Sequence[HomogeneousPoly]) -> ExactMatrix:
    data = [[poly.evaluate(p.coordinates) for poly in columns] for p in rows]
    return ExactMatrix(star.field, data, ncols=len(columns))


def tangent_dim_points(problem: TangentProblem) -> int:
    """dim_k I_d via point evaluation (algorithm B).

    Modulo the ideal of the configuration, degree-d forms are determined
    by their values at the C(l,2) points (valid once d >= l - 1).  The Q
    contribution is the rank of the matrix with columns x_k * Q_i, rows
    the points; adding dim of the configuration ideal in degree d gives
    dim_k I_d.
    """
    star, d, l = problem.star, problem.d, problem.l
    fld = star.field
    columns = []
    for q in problem.q_forms:
        for k in range(3):
            columns.append(HomogeneousPoly.variable(fld, 3, k) * q)
    rank = evaluation_matrix(star, star.point_list(), columns).rank()
    return rank + comb(d + 2, 2) - comb(l, 2)


def evaluation_submatrix_rank(problem: TangentProblem,
                              row_points: Sequence[tuple[int, int]],
                              columns: Sequence[tuple[int, int]]) -> int:
    """Rank of a hand-picked evaluation sub-matrix.

    `row_points` are 1-based point labels (i, j); `columns` are pairs
    (r, t) denoting the degree-d product L_r * Q_t.
    """
    star = problem.star
    pts = []
    for key in row_points:
        key = tuple(sorted(key))
        if key not in star.points:
            raise KeyError(f"unknown point label {key}")
        pts.append(star.points[key])
    cols = []
    for r, t in columns:
        if not (1 <= r <= star.l and 1 <= t <= star.l):
            raise KeyError(f"unknown column label ({r}, {t})")
        cols.append(star.forms[r - 1].poly() * problem.q_forms[t - 1])
    return evaluation_matrix(star, pts, cols).rank()


# ---------------------------------------------------------------------------
# structured multipliers for the block-matrix construction (l >= 6)

def _linear_form_through(star: StarConfiguration, key: tuple[int, int],
                         rng: random.Random) -> LinearForm:
    """A linear form vanishing at the labelled point and at no other point
    of the configuration."""
    fld = star.field
    target = star.points[key].coordinates
    others = [p for k, p in star.points.items() if k != key]
    # random element of the 2-dim space of forms through the target
    for _ in range(RETRY_BUDGET):
        a = fld.random(rng)
        b = fld.random(rng)
        # two independent forms vanishing at target: built from coordinates
        basis = _vanishing_basis(fld, target)
        coeffs = [fld.add(fld.mul(a, u), fld.mul(b, v))
                  for u, v in zip(*basis)]
        if all(fld.is_zero(c) for c in coeffs):
            continue
        form = LinearForm(fld, coeffs)
        if all(not fld.is_zero(form.evaluate(p)) for p in others):
            return form
    raise GenericityError("no linear form through the point avoiding the rest")


def _vanishing_basis(fld: Field, coords):
    """Two independent linear forms vanishing at the given point."""
    nz = next(i for i in range(len(coords) - 1, -1, -1)
              if not fld.is_zero(coords[i]))
    basis = []
    for i in range(len(coords)):
        if i == nz:
            continue
        # coords[nz]*x_i - coords[i]*x_nz vanishes at the point
        vec = [fld.zero()] * len(coords)
        vec[i] = coords[nz]
        vec[nz] = fld.neg(coords[i])
        basis.append(vec)
    return basis[0], basis[1]


def _avoiding_linear_form(star: StarConfiguration,
                          rng: random.Random) -> LinearForm:
    """A linear form nonzero at every point of the configuration."""
    fld = star.field
    pts = star.point_list()
    for _ in range(RETRY_BUDGET):
        coeffs = [fld.random(rng) for _ in range(3)]
        if all(fld.is_zero(c) for c in coeffs):
            continue
        form = LinearForm(fld, coeffs)
        if all(not fld.is_zero(form.evaluate(p)) for p in pts):
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
    one certifies a lower bound on the dimension of the locus.  Fixed
    `forms` and/or `multipliers` override the random draws in every trial.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if d < l - n + 1:
        raise ValueError(f"need d >= l - n + 1 = {l - n + 1}")
    dims = []
    seeds = []
    for t in range(trials):
        ts = trial_seed(seed, t)
        seeds.append(ts)
        star = build_star(forms) if forms is not None else \
            random_star(l, ts, fld, n)
        if multipliers is not None:
            mult = list(multipliers)
        else:
            mult = random_multipliers(star, d, random.Random(ts ^ 0x5EED))
        dims.append(tangent_dim_direct(TangentProblem(star, d, mult)))
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
    verdict: str                       # CERTIFIED | GAP | EMPTY
    trial_dims: list[int] = dc_field(default_factory=list)

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
            "verdict": self.verdict,
        }
        return out

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), indent=2)


def certify(d: int, l: int, fld: Field, trials: int = 3, seed: int = 0,
            forms: Sequence[LinearForm] | None = None,
            multipliers: Sequence[HomogeneousPoly] | None = None
            ) -> DimensionCertificate:
    """Full verification of one (d, l) pair.

    EMPTY when d < l - 1; otherwise CERTIFIED when the observed lower
    bound matches the closed-form value and respects every upper bound,
    GAP when the trials fall short.
    """
    tv = closed_form_dimension(d, l)
    if tv.is_empty:
        return DimensionCertificate(d, l, fld.descriptor(), [], None, None,
                                    [], "EMPTY")
    result = lower_bound_dim_S(d, l, fld, trials=trials, seed=seed,
                               forms=forms, multipliers=multipliers)
    bounds = upper_bounds(d, l)
    min_upper = min(v for _, v in bounds)
    ok = result.lower_bound == tv.value and tv.value <= min_upper
    return DimensionCertificate(
        d, l, fld.descriptor(), result.seeds, result.lower_bound, tv.value,
        bounds, "CERTIFIED" if ok else "GAP", trial_dims=result.trial_dims)
