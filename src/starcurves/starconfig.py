"""Star configurations of points from general hyperplanes in P^n.

A configuration is built from l linear forms in n + 1 variables, any
n + 1 of which are linearly independent.  It carries the C(l,n) points
where n of the hyperplanes meet, as integer vectors.  The products of the
forms outside each (n-1)-subset generate the ideal of the point set
(Geramita-Harbourne-Migliore, "Star configurations in P^n", J. Algebra
376, 2013); only `tangent`'s algorithm A builds them as polynomials.  The
paper's plane configuration X(l) is the case n = 2: the C(l,2) pairwise
intersections of l lines, whose ideal the l hat products (product of all
forms but one) generate.
"""

from __future__ import annotations

import itertools
import random
from functools import cached_property
from math import comb, gcd
from operator import mul, ne
from typing import Iterator, Sequence

from .fields import (Element, Field, PrimeField, check_integral,
                     check_same_field)
from .matrices import RESIDUES, PackedEchelonModP, rank
from .polynomials import exponent_columns, monomial_values

RETRY_BUDGET = 100
#: The most points made canonical in one pass: longer columns cost more.
BATCH = 1024

#: A point of P^n as its primitive integer vector (`_canonical`).
Point = tuple[int, ...]


class GenericityError(ValueError):
    """A set of forms violates the general-position requirement; `labels`
    names the dependent forms (such as "L1, L2, L6") when known."""

    def __init__(self, message: str, labels: str | None = None):
        super().__init__(message)
        self.labels = labels


class LinearForm:
    """A nonzero linear form, kept as its coefficient vector: ints over Q,
    residues in [0, p) over GF(p)."""

    __slots__ = ("field", "coefficients")

    def __init__(self, field: Field, coefficients: Sequence[Element]):
        check_integral(field, coefficients, "linear form coefficients")
        self.field = field
        self.coefficients = tuple(map(field.from_int, coefficients))
        if all(field.is_zero(c) for c in self.coefficients):
            raise ValueError("zero linear form")

    @property
    def nvars(self) -> int:
        return len(self.coefficients)

    def evaluate(self, point: Point) -> Element:
        """The value at the point's integer vector: a nonzero multiple of
        the value at any other representative of the point."""
        if len(point) != len(self.coefficients):
            raise ValueError(f"a point of {len(point)} coordinates for a "
                             f"form in {self.nvars} variables")
        return self.field.from_int(sum(map(mul, self.coefficients, point)))

    def __eq__(self, other):
        return (isinstance(other, LinearForm) and self.field == other.field
                and self.coefficients == other.coefficients)

    def __repr__(self):
        return f"LinearForm({self.field!r}, {list(self.coefficients)})"


def _narrow(p: int | None, basis: list[list[int]], pivot: int,
            form: Sequence[int]) -> tuple[list[list[int]], int]:
    """A basis of the common zeros of some forms and one more, from a basis
    of those of the first ones and its pivot: with b0 the first vector at
    which the form's value a is nonzero (mod p over GF(p)), a*b - form(b)*b0
    for every other b, in order, and the pivot a; zero vectors if the form
    vanishes on the whole basis, so depends on the others.  Over GF(p) the
    vectors are reduced mod p; over Q each is divided by the last pivot,
    exactly (Sylvester's identity): from e_0..e_n, r forms give r x r
    minors (Gauss-Jordan's kernel), not entries of degree 2^r - 1."""
    values = [sum(map(mul, form, b)) for b in basis]
    if p is not None:
        values = [v % p for v in values]
    j = next(itertools.compress(itertools.count(), values), None)
    if j is None:
        return [[0] * len(form)] * (len(basis) - 1), pivot
    a, b0 = values.pop(j), basis[j]
    others = zip(basis[:j] + basis[j + 1:], values)
    if p is None:
        return [[(a * x - v * y) // pivot for x, y in zip(b, b0)]
                for b, v in others], a
    return [[(a * x - v * y) % p for x, y in zip(b, b0)]
            for b, v in others], a


def _first_kernel(form: Sequence[int]) -> tuple[list[list[int]], int]:
    """`_narrow` from e_0..e_n and pivot 1, where the form's values are its
    coefficients c: a*e_b - c_b*e_j for b != j, a = c_j the first nonzero;
    over GF(p), where c is reduced, its entries are -c_b, not -c_b mod p."""
    j = next(itertools.compress(itertools.count(), form))
    a, basis = form[j], []
    for b, c in enumerate(form):
        if b != j:
            v = [0] * len(form)
            v[b], v[j] = a, -c
            basis.append(v)
    return basis, a


def _canonical(p: int | None, xs: list[list[int]]) -> list[Point | None]:
    """The points of n + 1 coordinate columns, each its primitive integer
    vector scaled by its last nonzero entry: over GF(p) by its inverse (one
    `_inverses` for all of them), over Q by the gcd of the entries, signed
    as that entry; None for a vector 0."""
    last = xs[-1]
    for column in xs[-2::-1] if 0 in last else ():
        last = [y or x for x, y in zip(column, last)]
    if p is None:
        scales = [-g if x < 0 else g for g, x in zip(map(gcd, *xs), last)]
        xs = [[x // (s or 1) for x, s in zip(c, scales)] for c in xs]
    else:
        scales = _inverses(last, p)
        xs = [[x * s % p for x, s in zip(c, scales)] for c in xs]
    return [pt if s else None for pt, s in zip(zip(*xs), scales)]


def _inverses(values: Sequence[int], p: int) -> list[int]:
    """The inverse mod p of each int, 0 for 0 (none is another multiple
    of p), from one inverse of their product (Montgomery's trick)."""
    factors = [x or 1 for x in values]
    prefix = list(itertools.accumulate(factors, lambda x, y: x * y % p,
                                       initial=1))
    inverse, out = pow(prefix.pop(), -1, p), []
    for x, before in zip(reversed(factors), reversed(prefix)):
        out.append(inverse * before % p)
        inverse = inverse * x % p
    return [y if x else 0 for x, y in zip(values, reversed(out))]


class StarConfiguration:
    """l hyperplanes in general position in P^n (lines when n = 2) and
    their C(l,n) intersection points.

    n is the number of variables minus one.  Points, each its primitive
    integer vector (`_canonical`), are keyed by sorted 1-based n-subsets; the
    products of the forms outside each (n-1)-subset, which generate the
    ideal, by sorted (n-1)-subsets (`generator_keys`).
    """

    def __init__(self, forms: Sequence[LinearForm]):
        if len(forms) < 2:
            raise ValueError("need at least two forms")
        self.forms = list(forms)
        self.l = len(forms)
        self.field = forms[0].field
        self.n = forms[0].nvars - 1
        for f in forms:
            check_same_field(self.field, f.field)
            if f.nvars != self.n + 1:
                raise ValueError("forms have different numbers of variables")
        if self.n < 2:
            raise ValueError("ambient dimension must be at least 2")
        if self.l < self.n:
            raise ValueError(f"need at least n = {self.n} forms")
        # A stack holds the kernels of the prefixes of the (n-1)-subset t
        # (max(t) < l), the first read off its form, then one `_narrow` per
        # depth, each kept while the next subsets share it (`last` starts
        # as (0,), which shares no prefix).  t's line (u, w) meets each
        # later form k in L_k(w)*u - L_k(u)*w (that step up to sign and
        # division), the point of t + (k,), or 0, in key order.
        p = self.field.p if isinstance(self.field, PrimeField) else None
        self.points, keys, columns = {}, [], [[] for _ in range(self.n + 1)]
        coefficients = [f.coefficients for f in forms]
        kernels, last = [], (0,)
        for t in itertools.combinations(range(1, self.l), self.n - 1):
            r = next(itertools.compress(itertools.count(), map(ne, t, last)))
            del kernels[r:]
            if not kernels:
                kernels.append(_first_kernel(coefficients[t[0] - 1]))
            for i in t[len(kernels):]:
                kernels.append(_narrow(p, *kernels[-1], coefficients[i - 1]))
            (u, w), last = kernels[-1][0], t
            ab = [(sum(map(mul, c, u)), sum(map(mul, c, w)))
                  for c in coefficients[t[-1]:]]
            keys += [t + (k,) for k in range(t[-1] + 1, self.l + 1)]
            for column, x, y in zip(columns, u, w):
                column += ([b * x - a * y for a, b in ab] if p is None else
                           [(b * x - a * y) % p for a, b in ab])
            if len(keys) >= BATCH:
                self.points.update(zip(keys, _canonical(p, columns)))
                keys, columns = [], [[] for _ in range(self.n + 1)]
        self.points.update(zip(keys, _canonical(p, columns)))
        # General position: every n + 1 forms are independent.  That holds
        # iff every point exists and no two coincide.  If n + 1 forms are
        # dependent while their n-subsets are independent, a common zero of
        # all n + 1 is the point of each n-subset; a point shared by two
        # n-subsets lies on at least n + 1 forms.  Points are canonical, so
        # one set of tuples decides.
        points = self.points.values()
        if None in points or len(set(points)) < len(points):
            names = _first_dependent(self.forms, self.points, self.n)
            raise GenericityError(
                f"forms {names} are linearly dependent", names)

    @property
    def generator_degree(self) -> int:
        return self.l - self.n + 1

    def point_list(self) -> list[Point]:
        """Points in key order, the order `points` is filled in."""
        return list(self.points.values())

    def point_keys(self) -> list[tuple[int, ...]]:
        return list(self.points)

    def generator_keys(self) -> list[tuple[int, ...]]:
        return list(itertools.combinations(range(1, self.l + 1), self.n - 1))

    @cached_property
    def _hilbert(self) -> tuple[list[int], Iterator[int]]:
        """The Hilbert function values found so far, and the generator
        of the next ones (`hilbert_function`)."""
        return [], _hilbert_values(self.field, self.n, self.point_list())

    def __repr__(self):
        return (f"StarConfiguration(n={self.n}, l={self.l}, "
                f"field={self.field!r})")


def build_star(forms: Sequence[LinearForm]) -> StarConfiguration:
    """Validate general position and compute the points."""
    return StarConfiguration(forms)


def _first_dependent(forms: Sequence[LinearForm], points: dict,
                     n: int) -> str:
    """The labels of the lexicographically first n + 1 dependent forms
    (of all forms when there are only n), read from the points of their
    n-subsets: n + 1 forms are dependent iff the first n are, or the last
    vanishes at their point (expanding the determinant along its last row
    gives that value up to sign)."""
    field, labels = forms[0].field, range(1, len(forms) + 1)
    subsets = (itertools.combinations(labels, n + 1)
               if len(forms) > n else [tuple(labels)])
    for c in subsets:
        p = points[c[:n]]
        if p is None or (len(c) > n and field.is_zero(
                forms[c[-1] - 1].evaluate(p))):
            return ", ".join(f"L{i}" for i in c)
    raise AssertionError("the forms are in general position")


def arc_bound(n: int, q: int) -> int:
    """The most hyperplanes of P^n over GF(q), q prime, in general
    position: the largest arc of the dual space.  That is at most q + 1
    when q > n (Ball, J. Eur. Math. Soc. 14, 2012) and at most n + 2 when
    q <= n (Bush, 1952)."""
    return max(q, n + 1) + 1


def check_arc_bound(l: int, n: int, field: Field) -> None:
    """Refuse l hyperplanes of P^n over GF(q) past the arc bound."""
    if isinstance(field, PrimeField) and l > arc_bound(n, field.p):
        raise ValueError(
            f"no l = {l} hyperplanes of P^{n} over GF({field.p}) are in "
            f"general position (at most {arc_bound(n, field.p)}, the arc "
            "bound); use a smaller l or a larger prime")


def random_star(l: int, seed: int, field: Field,
                n: int = 2) -> StarConfiguration:
    """Deterministic-in-seed configuration of l random hyperplanes in
    general position in P^n; each draw is checked once, by building it.
    When RETRY_BUDGET draws fail over GF(q), fixed forms in general
    position under a random change of coordinates from the same stream
    (`_curve_forms`); `check_arc_bound` has refused every l they miss."""
    if l < n:
        raise ValueError(f"need l >= {n}")
    check_arc_bound(l, n, field)
    rng = random.Random(seed)
    for _ in range(RETRY_BUDGET):
        forms = []      # one per n + 1 coefficients drawn, unless all are 0
        while len(forms) < l:
            draws = iter(field.randoms(rng, (l - len(forms)) * (n + 1)))
            forms += [LinearForm(field, c) for c in zip(*[draws] * (n + 1))
                      if any(c)]
        try:
            return build_star(forms)
        except GenericityError:
            pass
    if isinstance(field, PrimeField):
        return build_star(_curve_forms(l, n, field, rng))
    raise GenericityError(
        f"no l = {l} hyperplanes of P^{n} in general position found over "
        f"{field!r} in {RETRY_BUDGET} draws; try a larger prime")


def _curve_forms(l: int, n: int, field: PrimeField,
                 rng: random.Random) -> list[LinearForm]:
    """l <= arc_bound(n, q) hyperplanes of P^n over GF(q) in general
    position, each composed with one random invertible matrix A, which
    keeps every determinant nonzero.  For l <= q + 1 the forms
    (1, a, ..., a^n) for a = 0, 1, ..., and (0, ..., 0, 1) as the
    (q + 1)-th: points of the normal rational curve, so any n + 1 of them
    form a Vandermonde matrix, or with (0, ..., 0, 1) one bordered by a
    unit row.  Past q + 1 (so q <= n and l <= n + 2) the frame e_0..e_n,
    e_0 + ... + e_n, of which any n + 1 are independent."""
    q, size = field.p, n + 1
    if l <= q + 1:
        rows = [[pow(a, e, q) for e in range(size)] for a in range(min(l, q))]
        rows += [[0] * n + [1]] * (l - len(rows))
    else:
        rows = [[int(i == j) for j in range(size)] for i in range(size)]
        rows.append([1] * size)
    while True:
        a = [field.randoms(rng, size) for _ in range(size)]
        if rank(field, lambda _: a, size) == size:
            break
    return [LinearForm(field, [sum(r[i] * a[i][j] for i in range(size))
                               for j in range(size)]) for r in rows[:l]]


def hilbert_function(star: StarConfiguration, t: int) -> int:
    """HF(X, t): the rank of the evaluation matrix of the points of `star`
    at the degree-t monomials.

    The star keeps the values found so far and the `_hilbert_values`
    generator that finds the next ones, in degree order.  A call reads
    every lower degree first, and none past saturation, the first degree
    whose value is the number of points: every later degree has it too,
    since a form vanishing at every point but p, times a coordinate
    nonzero at p, is such a form of the next degree.

    Take a chart form c = x_n + s*x_{n-1} + ... + s^n*x_0 nonzero mod p at
    every point (`_chart_values`); x_0..x_{n-1}, c are coordinates too.  At
    points scaled to c = 1, c*m and m have the same column, so the
    degree-(t-1) columns are among those of degree t, and degree t adds
    only the degree-t monomials in x_0..x_{n-1}, valued at the affine
    coordinates x_k / c.  Each such column is x_k times a column of degree
    t - 1, entry by entry mod p, so no monomial is ever raised to its
    powers.  One mod-p echelon takes them degree by degree, each column a
    vector of C(l, n) residues, mostly nonzero; HF(t) is its size after
    degree t.  The echelon is a `PackedEchelonModP`, which reduces, pivots
    and scales such long dense columns by operations on whole ints, none
    per entry.

    Over Q the echelon runs mod the prime of `RESIDUES` and gives the
    rational rank when it is full (`SparseEchelonModP.full`).  The whole
    per-degree matrix (`_evaluation_rank`) decides when no chart form is
    nonzero mod p at every point (over a small field), or when a rational
    echelon is not full.  The plane's closed formula min{C(t+2,2), C(l,2)}
    is not used here: `starcurves hilbert` prints it beside each rank and
    exits 1 where the two differ.
    """
    if t < 0:
        raise ValueError("degree must be nonnegative")
    values, pending = star._hilbert
    values += itertools.islice(pending, max(0, t + 1 - len(values)))
    return values[min(t, len(values) - 1)]


def _hilbert_values(field: Field, n: int,
                    points: list[Point]) -> Iterator[int]:
    """HF(0), HF(1), ... of the points, up to the first value that is
    their number (`hilbert_function`).  It holds the points, not their
    star, so reference counting frees the star that holds it.

    The degree-t columns are those of the degree-t monomials in
    x_0..x_{n-1}, in `monomials_of_degree` order.  The ones whose first
    variable is x_k are x_k times the degree-(t - 1) monomials in
    x_k..x_{n-1}, which are the last C(t + n - k - 2, n - k - 1) columns
    of degree t - 1, in order: one product of residues per entry.  In the
    plane that is x times each column of degree t - 1, then y times the
    last one."""
    exact = isinstance(field, PrimeField)
    p = field.p if exact else RESIDUES.p
    charts = _chart_values(points, n, p)
    if charts is not None:
        # X_k / C(X) mod p at the integer coordinates X, one column per
        # k < n, where C(X) is nonzero mod p.
        inverses = _inverses(charts, p)
        affine = [[x * c % p for x, c in zip(xs, inverses)]
                  for xs in list(zip(*points))[:-1]]
        echelon = PackedEchelonModP(p, len(points))
    for t in itertools.count():
        if charts is not None:
            columns = [[1] * len(points)] if t == 0 else [
                [a * b % p for a, b in zip(x, column)]
                for k, x in enumerate(affine)
                for column in columns[len(columns) - comb(t + n - k - 2,
                                                          n - k - 1):]]
            for column in columns:
                echelon.add(column)
        if charts is not None and (exact or echelon.full()):
            value = len(echelon)
        else:
            value = _evaluation_rank(field, n, points, t)
        yield value
        if value == len(points):
            return


def _chart_values(points: list[Point], n: int, p: int) -> list[int] | None:
    """The residues mod p, at the points' integer coordinates, of the first
    chart form x_n + s*x_{n-1} + s^2*x_{n-2} + ... + s^n*x_0 (s = 0, 1,
    2, ...) that is nonzero mod p at all of them, or None.

    A point is primitive, so nonzero mod p, and the form's value there is
    a nonzero polynomial of degree <= n in s mod p, with at most n roots:
    one of n * #points + 1 values of s works whenever p is that large."""
    for s in range(min(n * len(points) + 1, p)):
        chart = [pow(s, n - k, p) for k in range(n + 1)]
        values = [sum(map(mul, chart, pt)) % p for pt in points]
        if all(values):
            return values
    return None


def _evaluation_rank(field: Field, n: int, points: list[Point],
                     t: int) -> int:
    """The rank (`matrices.rank`) of the degree-t monomials' values at the
    points' integer coordinates, a dense row per point: over Q, residues
    first."""
    columns = exponent_columns(n + 1, t)
    return rank(field, lambda fld: (monomial_values(fld, pt, t, columns)
                                    for pt in points), len(columns[0]))
