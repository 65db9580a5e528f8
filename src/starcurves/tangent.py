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
points.  As L_i * Q_i vanishes at every point, B drops one x_k * Q_i per
i and ranks a C(l,n) x l*n matrix, of full rank at random data in every
case tried but the Luroth case (4, 5).  Certificates use B; the tests
cross-check it against A.

A multiplier M_T is its coefficient vector over monomials_of_degree(n + 1,
m), m = d - (l - n + 1); only A builds polynomials, from it and from the
forms (`generators`, `build_q_forms`).  B streams its rows (over Q,
residues first) into `matrices.rank` in band order, then
key order (`_TangentLayout`, which keeps only the band's keys), taking a
point's monomial values (at the cached exponent columns of degree m) and
multiplier values only when the rank reads its row.  It stops once it
holds l*n independent rows: at random data over a large prime, after
the band's n*l rows, so no other key is generated.
"""

from __future__ import annotations

import itertools
import random
import time
from math import comb
from operator import add, itemgetter, mul
from typing import Iterator, Sequence

from .fields import Element, Field, check_integral, check_same_field
from .formulas import (LUROTH_SOURCE, STAR_IDEAL_SOURCE,
                       closed_form_dimension, upper_bounds)
from .matrices import rank
from .polynomials import (HomogeneousPoly, exponent_columns, monomial_values,
                          monomials_of_degree, poly_product, poly_sum)
from .starconfig import (RETRY_BUDGET, GenericityError, LinearForm,
                         StarConfiguration, random_star)


#: A multiplier M_T: its coefficient vector over monomials_of_degree(n + 1, m).
Multiplier = Sequence[Element]


def _multiplier_degree(star: StarConfiguration, d: int,
                       multipliers: Sequence[Multiplier]) -> int:
    """The degree m = d - (l - n + 1) of the multipliers, after checking
    that there is one per generator key, each a vector of C(m + n, n)
    coefficients, ints over Q."""
    count, n = len(star.generator_keys()), star.n
    if len(multipliers) != count:
        raise ValueError(f"expected {count} multipliers, "
                         f"got {len(multipliers)}")
    mdeg = d - star.generator_degree
    if mdeg < 0:
        raise ValueError(f"need d >= l - n + 1 = {star.generator_degree}")
    for m in multipliers:
        if len(m) != comb(mdeg + n, n):
            raise ValueError(f"multipliers of degree d - (l - n + 1) = {mdeg}"
                             f" are vectors of {comb(mdeg + n, n)} "
                             f"coefficients, not {len(m)}")
        check_integral(star.field, m, "multiplier coefficients")
    return mdeg


# ---------------------------------------------------------------------------
# algorithm A: the star ideal and the Q forms as polynomials

def _linear_poly(form: LinearForm) -> HomogeneousPoly:
    """The form as a polynomial of degree 1."""
    return HomogeneousPoly(form.field, form.nvars, 1, {
        tuple(int(i == k) for i in range(form.nvars)): c
        for k, c in enumerate(form.coefficients)})


def _hat_product(star: StarConfiguration, *skip: int) -> HomogeneousPoly:
    """Product of all forms L_h with 1-based h outside `skip`."""
    factors = [_linear_poly(f) for h, f in enumerate(star.forms, start=1)
               if h not in skip]
    return poly_product(factors, star.field, star.n + 1)


def generators(star: StarConfiguration) -> list[HomogeneousPoly]:
    """The generators of the star's ideal in generator-key order: the
    products of the forms outside each (n-1)-subset (Lhat_i in the plane)."""
    return [_hat_product(star, *key) for key in star.generator_keys()]


def build_q_forms(star: StarConfiguration, d: int,
                  multipliers: Sequence[Multiplier]) -> list[HomogeneousPoly]:
    """The l forms Q_i of degree d - 1, from one product of the forms
    outside each n-subset s, shared by the Q_i with i in s.

    `multipliers` are the M_T in generator-key order.
    """
    mdeg = _multiplier_degree(star, d, multipliers)
    nvars = star.n + 1
    basis = monomials_of_degree(nvars, mdeg)
    mult = {key: HomogeneousPoly(star.field, nvars, mdeg, dict(zip(basis, m)))
            for key, m in zip(star.generator_keys(), multipliers)}
    parts: list[list[HomogeneousPoly]] = [[] for _ in range(star.l)]
    for s in star.point_keys():
        outside = _hat_product(star, *s)
        for i in s:
            rest = tuple(j for j in s if j != i)
            parts[i - 1].append(mult[rest] * outside)
    return [poly_sum(p, star.field, nvars, mdeg + star.l - star.n)
            for p in parts]


def ideal_component_dim(polys: Sequence[HomogeneousPoly], d: int) -> int:
    """Dimension of the degree-d component of the generated ideal.

    Rows of the rank matrix are coefficient vectors of m * g over the
    degree-d monomial basis, for every generator g and every monomial m of
    degree d - deg(g).  Generators of degree > d contribute nothing; a
    nonzero constant generator makes the component all of S_d (its
    monomial multiples already span the basis).
    """
    gens = [g for g in polys if not g.is_zero()]
    if not gens:
        return 0
    fld = gens[0].field
    nvars = gens[0].nvars
    for g in gens:
        check_same_field(g.field, fld)
    basis = monomials_of_degree(nvars, d)
    index = {m: i for i, m in enumerate(basis)}

    def row(g, mono):
        return {index[tuple(map(add, mono, gm))]: c
                for gm, c in g.terms.items()}
    return rank(fld, lambda _: (
        row(g, mono) for g in gens if g.degree <= d
        for mono in monomials_of_degree(nvars, d - g.degree)), len(basis))


def tangent_dim_direct(star: StarConfiguration, d: int,
                       multipliers: Sequence[Multiplier]) -> int:
    """dim_k I_d via the coefficient-matrix rank (algorithm A)."""
    gens = generators(star) + build_q_forms(star, d, multipliers)
    return ideal_component_dim(gens, d)


# ---------------------------------------------------------------------------
# algorithm B: the values of the multipliers at the points

def _multiplier_values(star, d, multipliers, keys,
                       fld: Field) -> Iterator[tuple[tuple, dict]]:
    """(s, {i: M_{s - i}(p_s)}) in `fld` at the integer vector of p_s for
    each key s in `keys`, computed when the iterator reaches s, once the
    multipliers pass the checks against d.  Each M_T(p_s) is the dot
    product of the point's monomial values at the exponent columns of
    degree m with the vector of M_T; over Q, integer coefficients keep
    every sum in ints."""
    mdeg = _multiplier_degree(star, d, multipliers)
    columns = exponent_columns(star.n + 1, mdeg)
    vectors = dict(zip(star.generator_keys(), multipliers))

    def at(s):
        monos = monomial_values(fld, star.points[s], mdeg, columns)
        return s, {i: fld.from_int(sum(map(mul, vectors[s[:k] + s[k + 1:]],
                                           monos))) for k, i in enumerate(s)}
    return map(at, keys)


class _TangentLayout:
    """The part of algorithm B that depends on the star alone, kept on the
    star by its first rank for every degree d: `band`, for each i the point
    keys of the n-subsets with i in the cyclic window {i, ..., i + n}; for
    each L_i in `pairs`, the (column, k) of each x_k * Q_i kept, all but the
    one at the first nonzero coefficient.  It iterates over the band, then
    the other keys in key order, made only once a rank reads past the band.
    It keeps the star's points, not the star."""

    def __init__(self, star: StarConfiguration):
        l, n, self.points = star.l, star.n, star.points
        self.band = dict.fromkeys(s for s in (
            tuple(sorted({i, *(h % l + 1 for h in rest)}))
            for i in range(1, l + 1)
            for rest in itertools.combinations(range(i, i + n), n - 1))
            if len(s) == n)
        self.pairs = {}
        for i, form in enumerate(star.forms, start=1):
            dropped = next(k for k, c in enumerate(form.coefficients) if c)
            self.pairs[i] = list(enumerate((k for k in range(n + 1)
                                            if k != dropped), (i - 1) * n))

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return itertools.chain(self.band, (s for s in self.points
                                           if s not in self.band))


def tangent_dim_points(star: StarConfiguration, d: int,
                       multipliers: Sequence[Multiplier],
                       record: dict | None = None) -> int:
    """dim_k I_d via point evaluation (algorithm B).

    The rank of the C(l,n) x l*n matrix with entries p_s[k] * Q_i(p_s),
    rows the points and columns the x_k * Q_i but the one at the first
    nonzero coefficient of each L_i (a combination of the others, as
    L_i * Q_i vanishes at every point), plus the dimension
    C(d+n,n) - C(l,n) of the configuration ideal in degree d.  Row s is
    built as p_s[k] * M_{s - i}(p_s) at integer coordinates of p_s: the
    same row up to nonzero factors, prod_{h not in s} L_h(p_s) among them.

    The rows come in band order, each built from the star's
    `_TangentLayout` only when `rank` reads it, and the rank stops reading
    once it holds l*n independent rows.  When it does not, as over Q in
    the Luroth case, every row is read (`_rank_at_points`).  Given a
    `record`, its "rows_read" is the number of rows the rank first read.
    """
    if "_tangent_layout" not in vars(star):
        star._tangent_layout = _TangentLayout(star)
    layout = star._tangent_layout
    pairs = layout.pairs

    def row(s, ms):
        coords = star.points[s]
        return {col: coords[k] * m for i, m in ms.items()
                for col, k in pairs[i]}
    found, read = _rank_at_points(star, d, multipliers, layout, row,
                                  star.l * star.n)
    if record is not None:
        record["rows_read"] = read
    return found + comb(d + star.n, star.n) - comb(star.l, star.n)


def evaluation_submatrix_rank(star: StarConfiguration, d: int,
                              multipliers: Sequence[Multiplier],
                              row_points: Sequence[tuple[int, ...]],
                              columns: Sequence[tuple[int, int]]) -> int:
    """Rank of a hand-picked evaluation sub-matrix.

    `row_points` are 1-based point labels such as (i, j); `columns` are
    pairs (r, t) denoting the degree-d product L_r * Q_t, whose value at
    p_s is L_r(p_s) * Q_t(p_s).  Row s is built as
    L_r(p_s) * M_{s - t}(p_s) at integer coordinates of p_s, and 0 where
    t is not in s: the same row up to nonzero factors, as in
    `tangent_dim_points`.
    """
    keys = [tuple(sorted(key)) for key in row_points]
    for key in keys:
        if key not in star.points:
            raise KeyError(f"unknown point label {key}")
    for r, t in columns:
        if not (1 <= r <= star.l and 1 <= t <= star.l):
            raise KeyError(f"unknown column label ({r}, {t})")

    def row(s, ms):
        return {c: star.forms[r - 1].evaluate(star.points[s]) * ms[t]
                for c, (r, t) in enumerate(columns) if t in ms}
    return _rank_at_points(star, d, multipliers, keys, row, len(columns))[0]


def _rank_at_points(star, d, multipliers, keys, row, ncols) -> tuple[int, int]:
    """The rank (`matrices.rank`) of the rows row(s, {i: M_{s - i}(p_s)})
    for s in `keys`, each built in the field the rank asks for when it is
    read, and the number of rows its first pass read: over Q, residues; a
    short echelon there, as in the Luroth case, builds every exact row."""
    counts = []     # one per pass: one step per key the rank reads

    def rows(fld):
        counts.append(itertools.count())
        taken = map(itemgetter(0), zip(keys, counts[-1]))
        return itertools.starmap(row, _multiplier_values(
            star, d, multipliers, taken, fld))
    return rank(star.field, rows, ncols), next(counts[0])


# ---------------------------------------------------------------------------
# structured multipliers for the block-matrix construction (l >= 6)

def _form_through(star: StarConfiguration, key: tuple[int, int] | None,
                  rng: random.Random) -> LinearForm:
    """A linear form vanishing at the point labelled `key` and at no other
    point of the configuration, or at none when `key` is None: random
    coefficients; through a point, those times its last nonzero entry off
    that entry, and the one there that makes the form vanish."""
    fld = star.field
    coords = None if key is None else star.points[key]
    last = None if key is None else max(i for i, c in enumerate(coords) if c)
    others = [p for k, p in star.points.items() if k != key]
    for _ in range(RETRY_BUDGET):
        coeffs = fld.randoms(rng, 3 if key is None else 2)
        if key is not None:
            coeffs.insert(last, 0)
            through = -sum(map(mul, coeffs, coords))
            coeffs = [c * coords[last] for c in coeffs]
            coeffs[last] = through
        if not all(map(fld.is_zero, coeffs)):
            form = LinearForm(fld, coeffs)
            if not any(fld.is_zero(form.evaluate(p)) for p in others):
                return form
    raise GenericityError("no linear form through the point avoiding the rest"
                          if key else "no avoiding linear form found")


def structured_multipliers(star: StarConfiguration, d: int,
                           seed: int = 0) -> list[list[Element]]:
    """Structured multipliers realizing the block evaluation matrix, as
    coefficient vectors.

    Requires n = 2 (lines), l >= 6 and d >= l - 1.  Three regimes:
    d = l - 1: all multipliers 1; d = l: all equal to a linear form G
    missing every configuration point; d >= l + 1: products of G with
    linear forms G_1..G_5 each passing through exactly one prescribed
    point (p_{1,5}, p_{1,2}, p_{2,6}, p_{3,4}, p_{4,6}), padding with
    powers of G so every multiplier has degree d - l + 1.
    """
    l = star.l
    if star.n != 2:
        raise ValueError("structured multipliers are for lines in the "
                         f"plane, not hyperplanes in P^{star.n}")
    if l < 6:
        raise ValueError("structured multipliers need l >= 6")
    if d < l - 1:
        raise ValueError("need d >= l - 1")
    fld = star.field
    if d == l - 1:
        return [[1] for _ in range(l)]
    rng = random.Random(seed)
    g = _linear_poly(_form_through(star, None, rng))
    m = [g] * l
    if d > l:
        special = [(1, 5), (1, 2), (2, 6), (3, 4), (4, 6)]
        g1, g2, g3, g4, g5 = (
            _linear_poly(_form_through(star, key, rng)) for key in special)

        def gpow(e: int) -> HomogeneousPoly:
            return poly_product([g] * e, fld, 3)

        top = gpow(d - l + 1)
        m = [g1 * g2 * gpow(d - l - 1), g3 * gpow(d - l), g4 * gpow(d - l),
             top, top, g5 * gpow(d - l)] + [top] * (l - 6)
    return [p.coefficient_vector() for p in m]


def random_multipliers(star: StarConfiguration, d: int,
                       rng: random.Random) -> list[list[Element]]:
    """Random dense forms of degree d - l + n - 1, one per generator, in
    generator-key order, as coefficient vectors."""
    mdeg = d - star.generator_degree
    if mdeg < 0:
        raise ValueError("need d >= l - n + 1")
    size = comb(mdeg + star.n, star.n)
    draws = star.field.randoms(rng, size * comb(star.l, star.n - 1))
    return [draws[i:i + size] for i in range(0, len(draws), size)]


# ---------------------------------------------------------------------------
# semicontinuity lower bounds and certificates

def trial_seed(seed: int, trial: int) -> int:
    return seed * 1_000_003 + trial


class TrialStars:
    """The random configuration of each trial for one l, drawn on first use
    and then kept.

    A trial's star depends on (l, trial seed) and not on d, so one
    instance serves every d of an l.  `sweep` and `pn` make a new one for
    each l, so no star outlives its command.
    """

    def __init__(self, l: int, fld: Field, seed: int = 0, n: int = 2):
        self.l, self.field, self.seed, self.n = l, fld, seed, n
        self._drawn: dict[int, StarConfiguration] = {}

    def __getitem__(self, trial: int) -> StarConfiguration:
        if trial not in self._drawn:
            self._drawn[trial] = random_star(
                self.l, trial_seed(self.seed, trial), self.field, self.n)
        return self._drawn[trial]


class DimensionCertificate:
    """The verdict on one (d, l) pair in P^n and the data it was read from."""

    def __init__(self, d: int, l: int, field_descriptor: dict,
                 seeds: list[int], lower_bound: int | None,
                 theorem_value: int | None,
                 upper_bounds: list[tuple[str, int]], verdict: str,
                 trials: list[dict] | None = None,
                 external_facts: list[str] | None = None, n: int = 2):
        self.d, self.l, self.n, self.field_descriptor = \
            d, l, n, field_descriptor
        self.seeds, self.lower_bound = seeds, lower_bound
        self.theorem_value, self.upper_bounds = theorem_value, upper_bounds
        self.verdict = verdict      # CERTIFIED | GAP | CONTRADICTION | EMPTY
        self.trials = [] if trials is None else trials   # see `certify`
        self.external_facts = [] if external_facts is None else external_facts

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "l": self.l,
            "n": self.n,
            **self.field_descriptor,
            "seeds": self.seeds,
            "lower_bound": self.lower_bound,
            "theorem_value": self.theorem_value,
            "upper_bounds": [{"source": s, "value": v}
                             for s, v in self.upper_bounds],
            "external_facts": self.external_facts,
            "verdict": self.verdict,
            "trials": self.trials,
        }


def verdict(lower: int, bound: int, match: str = "CERTIFIED",
            short: str = "GAP") -> str:
    """The one verdict rule: CONTRADICTION when the lower bound exceeds
    the bound, `match` when it meets it, `short` when it falls short.
    `pn` reads CONFIRMED and OPEN, as its bound is a conjecture."""
    if lower > bound:
        return "CONTRADICTION"
    return match if lower == bound else short


def certify(d: int, l: int, fld: Field, trials: int = 3, seed: int = 0,
            stars: Sequence[StarConfiguration] | None = None,
            multipliers: Sequence[Multiplier] | None = None,
            n: int = 2) -> DimensionCertificate:
    """Full verification of one (d, l) pair for l hyperplanes in P^n.

    Fewer than one trial is refused first, for every (d, l).  EMPTY, with
    no star drawn, when n = 2 and d < l - 1, where the plane theorem says
    the locus is empty.  Otherwise trial t takes the
    point-evaluation rank (algorithm B) at `stars[t]` (a `TrialStars` of
    its own by default) with the fixed `multipliers`, or with multipliers
    drawn from trial_seed(seed, t).  Specific data gives a tangent
    dimension no larger than the generic one, so the largest dim_k I_d
    minus one is a semicontinuity lower bound.  Its `verdict` against the
    least of `upper_bounds` (for n = 2 the theorem's `theorem_value`, None
    for n >= 3) is the certificate's.  `external_facts` lists the source
    tags of the outside theorems the verdict relies on.  `trials` holds a
    record of each trial: "seed", tangent "dimension", "rows_read" by the
    rank, and seconds getting the star, drawing the multipliers and
    ranking ("star_s", "multipliers_s", "rank_s").
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    value = closed_form_dimension(d, l) if n == 2 else None
    if n == 2 and value is None:
        return DimensionCertificate(d, l, fld.descriptor(), [], None, None,
                                    [], "EMPTY")
    bounds = upper_bounds(d, l, n)
    stars = TrialStars(l, fld, seed, n) if stars is None else stars
    seeds = [trial_seed(seed, t) for t in range(trials)]
    records = []
    for t, ts in enumerate(seeds):
        start = time.perf_counter()
        star = stars[t]
        if (star.l, star.n, star.field) != (l, n, fld):
            raise ValueError(f"trial {t} has l = {star.l} hyperplanes in "
                             f"P^{star.n} over {star.field!r}, not l = {l} "
                             f"in P^{n} over {fld!r}")
        drawn = time.perf_counter()
        mult = multipliers if multipliers is not None else \
            random_multipliers(star, d, random.Random(ts ^ 0x5EED))
        ranked, record = time.perf_counter(), {"seed": ts}
        record["dimension"] = tangent_dim_points(star, d, mult, record)
        record.update(star_s=drawn - start, multipliers_s=ranked - drawn,
                      rank_s=time.perf_counter() - ranked)
        records.append(record)
    lower = max(r["dimension"] for r in records) - 1
    facts = [STAR_IDEAL_SOURCE] + [s for s, _ in bounds if s == LUROTH_SOURCE]
    return DimensionCertificate(
        d, l, fld.descriptor(), seeds, lower, value, bounds,
        verdict(lower, min(v for _, v in bounds)), trials=records,
        external_facts=facts, n=n)
