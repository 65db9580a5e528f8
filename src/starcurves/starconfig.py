"""Star configurations of points from general hyperplanes in P^n.

A configuration is built from l linear forms in n + 1 variables, any
n + 1 of which are linearly independent.  It carries the C(l,n) points
where n of the hyperplanes meet, and the products of the forms outside
each (n-1)-subset, which generate the ideal of the point set
(Geramita-Harbourne-Migliore, "Star configurations in P^n", J. Algebra
376, 2013).  The paper's plane configuration X(l) is the case n = 2: the
C(l,2) pairwise intersections of l lines, with the l hat products
(product of all forms but one) as generators.
"""

from __future__ import annotations

import itertools
import json
import random
from functools import cached_property
from typing import Sequence

from .fields import Element, Field, PrimeField, check_same_field
from .matrices import ExactMatrix, det
from .polynomials import HomogeneousPoly, monomials_of_degree, parse_poly, poly_product

RETRY_BUDGET = 100


class GenericityError(ValueError):
    """A set of forms violates the general-position requirement."""


class LinearForm:
    """A nonzero linear form, kept as its coefficient vector."""

    __slots__ = ("field", "coefficients")

    def __init__(self, field: Field, coefficients: Sequence[Element]):
        if all(field.is_zero(c) for c in coefficients):
            raise ValueError("zero linear form")
        self.field = field
        self.coefficients = tuple(coefficients)

    @property
    def nvars(self) -> int:
        return len(self.coefficients)

    def poly(self) -> HomogeneousPoly:
        return HomogeneousPoly.from_coefficients(self.field, self.nvars,
                                                 self.coefficients)

    def evaluate(self, point: "ProjectivePoint") -> Element:
        f = self.field
        total = f.zero()
        for c, x in zip(self.coefficients, point.coordinates):
            total = f.add(total, f.mul(c, x))
        return total

    @classmethod
    def parse(cls, text: str, field: Field, nvars: int = 3) -> "LinearForm":
        p = parse_poly(text, field, nvars, degree=1)
        coeffs = [p.terms.get(tuple(1 if j == i else 0 for j in range(nvars)),
                              field.zero())
                  for i in range(nvars)]
        return cls(field, coeffs)

    def __eq__(self, other):
        return (isinstance(other, LinearForm) and self.field == other.field
                and self.coefficients == other.coefficients)

    def __repr__(self):
        return f"LinearForm({self.poly()})"


class ProjectivePoint:
    """Point with the canonical representative: last nonzero coordinate 1."""

    __slots__ = ("field", "coordinates")

    def __init__(self, field: Field, coordinates: Sequence[Element]):
        coords = list(coordinates)
        last = None
        for i in range(len(coords) - 1, -1, -1):
            if not field.is_zero(coords[i]):
                last = i
                break
        if last is None:
            raise ValueError("all-zero coordinate vector")
        inv = field.inv(coords[last])
        self.field = field
        self.coordinates = tuple(field.mul(c, inv) for c in coords)

    def __eq__(self, other):
        return (isinstance(other, ProjectivePoint) and self.field == other.field
                and self.coordinates == other.coordinates)

    def __hash__(self):
        return hash((self.field, self.coordinates))

    def __repr__(self):
        return "(" + " : ".join(str(c) for c in self.coordinates) + ")"


def intersection_point(*forms: LinearForm) -> ProjectivePoint:
    """The common zero of n independent forms in n + 1 variables: the
    signed maximal minors of their coefficient matrix (for two lines in
    the plane, the cross product of the coefficient vectors)."""
    field = forms[0].field
    for f in forms[1:]:
        check_same_field(field, f.field)
    if any(f.nvars != len(forms) + 1 for f in forms):
        raise ValueError("need n forms in n + 1 variables")
    coords = []
    for k in range(len(forms) + 1):
        minor = det(field, [f.coefficients[:k] + f.coefficients[k + 1:]
                            for f in forms])
        coords.append(field.neg(minor) if k % 2 else minor)
    if all(field.is_zero(c) for c in coords):
        raise GenericityError("forms are linearly dependent")
    return ProjectivePoint(field, coords)


class StarConfiguration:
    """l hyperplanes in general position in P^n (lines when n = 2), their
    C(l,n) intersection points, and the ideal generators: the products of
    the forms outside each (n-1)-subset (the hat products Lhat_i when
    n = 2).

    n is the number of variables minus one.  Points are keyed by sorted
    1-based n-subsets, generators by sorted (n-1)-subsets; generators are
    built on first use.
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
        labels = range(1, self.l + 1)
        self.points = {}
        for s in itertools.combinations(labels, self.n):
            try:
                self.points[s] = intersection_point(
                    *(forms[i - 1] for i in s))
            except GenericityError:
                self.points[s] = None
        # General position: every n + 1 forms are independent.  Expanding
        # that determinant along its last row gives L_k(p_s) up to sign,
        # so each point must exist and lie on no other form.
        subsets = (itertools.combinations(labels, self.n + 1)
                   if self.l > self.n else [tuple(labels)])
        for c in subsets:
            p = self.points[c[:self.n]]
            if p is None or (len(c) > self.n and self.field.is_zero(
                    forms[c[-1] - 1].evaluate(p))):
                raise GenericityError(
                    f"forms {', '.join(f'L{i}' for i in c)} are linearly "
                    "dependent")

    @property
    def generator_degree(self) -> int:
        return self.l - self.n + 1

    def point_list(self) -> list[ProjectivePoint]:
        """Points in deterministic (sorted key) order."""
        return [self.points[key] for key in sorted(self.points)]

    def point_keys(self) -> list[tuple[int, ...]]:
        return sorted(self.points)

    def generator_keys(self) -> list[tuple[int, ...]]:
        return list(itertools.combinations(range(1, self.l + 1), self.n - 1))

    @cached_property
    def generators(self) -> list[HomogeneousPoly]:
        """The ideal generators in generator-key order, built on first use."""
        return [self.hat_product_without(*key) for key in self.generator_keys()]

    def hat_product_without(self, *skip: int) -> HomogeneousPoly:
        """Product of all forms L_h with 1-based h outside `skip`."""
        factors = [f.poly() for h, f in enumerate(self.forms, start=1)
                   if h not in skip]
        return poly_product(factors, self.field, self.n + 1)

    def to_json(self) -> dict:
        return {
            **self.field.descriptor(),
            "l": self.l,
            "forms": [[str(c) for c in f.coefficients] for f in self.forms],
            "points": {",".join(map(str, key)): [str(c) for c in p.coordinates]
                       for key, p in sorted(self.points.items())},
        }

    def __repr__(self):
        return (f"StarConfiguration(n={self.n}, l={self.l}, "
                f"field={self.field!r})")


def build_star(forms: Sequence[LinearForm]) -> StarConfiguration:
    """Validate general position and compute the points."""
    return StarConfiguration(forms)


def arc_bound(n: int, q: int) -> int:
    """The most hyperplanes of P^n over GF(q), q prime, in general
    position: the largest arc of the dual space.  That is at most q + 1
    when q > n (Ball, J. Eur. Math. Soc. 14, 2012) and at most n + 2 when
    q <= n (Bush, 1952)."""
    return max(q, n + 1) + 1


def random_star(l: int, seed: int, field: Field,
                n: int = 2) -> StarConfiguration:
    """Deterministic-in-seed configuration of l random hyperplanes in
    general position in P^n; each draw is checked once, by building it."""
    if l < n:
        raise ValueError(f"need l >= {n}")
    if isinstance(field, PrimeField) and l > arc_bound(n, field.p):
        raise ValueError(
            f"no l = {l} hyperplanes of P^{n} over GF({field.p}) are in "
            f"general position (at most {arc_bound(n, field.p)}, the arc "
            "bound); use a smaller l or a larger prime")
    rng = random.Random(seed)
    for _ in range(RETRY_BUDGET):
        forms = []
        for _ in range(l):
            while True:
                coeffs = [field.random(rng) for _ in range(n + 1)]
                if any(not field.is_zero(c) for c in coeffs):
                    break
            forms.append(LinearForm(field, coeffs))
        try:
            return build_star(forms)
        except GenericityError:
            pass
    raise GenericityError(
        f"no l = {l} hyperplanes of P^{n} in general position found over "
        f"{field!r} in {RETRY_BUDGET} draws; try a larger prime")


def random_general_forms(l: int, seed: int, field: Field,
                         n: int = 2) -> list[LinearForm]:
    """The forms of `random_star(l, seed, field, n)`."""
    return random_star(l, seed, field, n).forms


def parse_forms(text: str, field: Field, nvars: int = 3) -> list[LinearForm]:
    """One form per line, in plain polynomial notation; blank lines skipped."""
    forms = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            forms.append(LinearForm.parse(line, field, nvars))
    return forms


def hilbert_function(star: StarConfiguration, t: int) -> int:
    """HF(X(l), t) as the rank of the degree-t evaluation matrix.

    Rows are the configuration points, columns the degree-t monomials.
    The closed formula min{C(t+2,2), C(l,2)} is used only as a test oracle.
    """
    if t < 0:
        raise ValueError("degree must be nonnegative")
    basis = monomials_of_degree(star.n + 1, t)
    field = star.field
    rows = []
    for p in star.point_list():
        coords = p.coordinates
        row = []
        for mono in basis:
            val = field.one()
            for x, e in zip(coords, mono):
                for _ in range(e):
                    val = field.mul(val, x)
            row.append(val)
        rows.append(row)
    return ExactMatrix(field, rows, ncols=len(basis)).rank()


def configuration_to_json_str(star: StarConfiguration) -> str:
    return json.dumps(star.to_json(), indent=2, sort_keys=True)
