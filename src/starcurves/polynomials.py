"""Homogeneous multivariate polynomials with sparse exponent-vector storage.

A polynomial is a map from exponent tuples to nonzero field elements, all
of the same total degree.  Sums and products run on plain ints, and the
constructor reduces each term once (`Field.from_int`).  The zero polynomial keeps an empty term map but
still carries a declared degree, so degrees always add under products.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import prod
from operator import getitem, mul
from typing import Iterable, Sequence

from .fields import Element, Field, check_same_field

Monomial = tuple  # exponent vector, one entry per variable


@lru_cache(maxsize=None)
def monomials_of_degree(nvars: int, degree: int) -> tuple[Monomial, ...]:
    """All exponent vectors of total degree `degree`, graded-lex order
    (x0 > x1 > ...).  Length is C(degree + nvars - 1, nvars - 1)."""
    if nvars < 1:
        raise ValueError("need at least one variable")
    if nvars == 1:
        return ((degree,),)
    out = []
    for e0 in range(degree, -1, -1):
        for rest in monomials_of_degree(nvars - 1, degree - e0):
            out.append((e0,) + rest)
    return tuple(out)


def monomial_values(field: Field, coords: Sequence[Element], degree: int,
                    monomials: Iterable[Monomial]) -> list[Element]:
    """Values at `coords` of monomials of total degree at most `degree`,
    from one table of coordinate powers.  GF(p) values are left unreduced;
    the table starts at the integer 1, so integer coordinates give ints."""
    powers = [list(accumulate([x] * degree, field.mul, initial=1))
              for x in coords]
    return [prod(map(getitem, powers, mono)) for mono in monomials]


class HomogeneousPoly:
    """Immutable homogeneous polynomial over an exact field."""

    __slots__ = ("field", "nvars", "degree", "terms")

    def __init__(self, field: Field, nvars: int, degree: int,
                 terms: dict[Monomial, Element] | None = None):
        self.field = field
        self.nvars = nvars
        self.degree = degree
        clean: dict[Monomial, Element] = {}
        for mono, coeff in (terms or {}).items():
            if len(mono) != nvars:
                raise ValueError(f"monomial {mono} has wrong arity")
            if sum(mono) != degree:
                raise ValueError(f"monomial {mono} breaks homogeneity "
                                 f"(declared degree {degree})")
            coeff = field.from_int(coeff)
            if not field.is_zero(coeff):
                clean[tuple(mono)] = coeff
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field: Field, nvars: int, degree: int) -> "HomogeneousPoly":
        return cls(field, nvars, degree, {})

    @classmethod
    def one(cls, field: Field, nvars: int) -> "HomogeneousPoly":
        return cls(field, nvars, 0, {(0,) * nvars: 1})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, HomogeneousPoly):
            return NotImplemented
        return (self.field == other.field and self.nvars == other.nvars
                and self.degree == other.degree and self.terms == other.terms)

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: "HomogeneousPoly"):
        check_same_field(self.field, other.field)
        if self.nvars != other.nvars:
            raise ValueError("ambient variable counts differ")

    def __add__(self, other: "HomogeneousPoly") -> "HomogeneousPoly":
        self._check_compatible(other)
        if self.degree != other.degree:
            raise ValueError("cannot add homogeneous polynomials of "
                             f"degrees {self.degree} and {other.degree}")
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            terms[mono] = terms.get(mono, 0) + c
        return HomogeneousPoly(self.field, self.nvars, self.degree, terms)

    def __mul__(self, other: "HomogeneousPoly") -> "HomogeneousPoly":
        self._check_compatible(other)
        terms: dict[Monomial, Element] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                terms[mono] = terms.get(mono, 0) + c1 * c2
        return HomogeneousPoly(self.field, self.nvars,
                               self.degree + other.degree, terms)

    # -- evaluation and encoding ------------------------------------------

    def evaluate(self, coords: Sequence[Element]) -> Element:
        """Exact value at the given affine representative."""
        if len(coords) != self.nvars:
            raise ValueError("coordinate dimension mismatch")
        values = monomial_values(self.field, coords, self.degree, self.terms)
        return self.field.from_int(sum(map(mul, self.terms.values(), values)))

    def coefficient_vector(self) -> list[Element]:
        """Coefficients against monomials_of_degree(nvars, degree)."""
        return [self.terms.get(m, 0)
                for m in monomials_of_degree(self.nvars, self.degree)]

    def __repr__(self):
        return f"HomogeneousPoly({self.degree}, {self.terms})"


def poly_sum(polys: Iterable[HomogeneousPoly], field: Field, nvars: int,
             degree: int) -> HomogeneousPoly:
    total = HomogeneousPoly.zero(field, nvars, degree)
    for p in polys:
        total = total + p
    return total


def poly_product(polys: Sequence[HomogeneousPoly], field: Field,
                 nvars: int) -> HomogeneousPoly:
    """Product of a (possibly empty) list; empty product is 1."""
    total = HomogeneousPoly.one(field, nvars)
    for p in polys:
        total = total * p
    return total
