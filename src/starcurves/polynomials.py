"""Homogeneous multivariate polynomials with sparse exponent-vector storage.

A polynomial is a map from exponent tuples to nonzero field elements, all
of the same total degree.  Sums and products run on plain ints, and the
constructor reduces each term once (`Field.from_int`).  The zero polynomial keeps an empty term map but
still carries a declared degree, so degrees always add under products.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, chain, repeat
from operator import mul
from typing import Iterable, Sequence

from .fields import Element, Field, check_same_field

Monomial = tuple  # exponent vector, one entry per variable


@lru_cache(maxsize=None)
def monomials_of_degree(nvars: int, degree: int) -> tuple[Monomial, ...]:
    """All exponent vectors of total degree `degree`, graded-lex order
    (x0 > x1 > ...): the rows of `exponent_columns`.  Length is
    C(degree + nvars - 1, nvars - 1)."""
    return tuple(zip(*exponent_columns(nvars, degree)))


@lru_cache(maxsize=None)
def exponent_columns(nvars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """The degree-`degree` monomials in graded-lex order by variable: column
    k holds the exponents of x_k.  For x_0 = degree, ..., 0 in turn, a
    block of the cached columns of the other variables at the rest."""
    if nvars < 1:
        raise ValueError("need at least one variable")
    if nvars < 3:               # one monomial per exponent of x_0
        up = tuple(range(degree + 1))
        return ((degree,),) if nvars == 1 else (up[::-1], up)
    rests = list(map(exponent_columns, repeat(nvars - 1), range(degree + 1)))
    first = map(repeat, range(degree, -1, -1), map(len, next(zip(*rests))))
    return tuple(map(tuple, map(chain.from_iterable, (first, *zip(*rests)))))


def monomial_values(field: Field, coords: Sequence[Element], degree: int,
                    columns: Sequence[Sequence[int]]) -> list[Element]:
    """Values at `coords` of monomials of degree at most `degree`, given as
    exponent columns: each coordinate's table of powers read at its column,
    multiplied by chained maps.  GF(p) values are left unreduced; tables
    start at the integer 1, so integer coordinates give ints."""
    if not degree:              # at most one monomial, of value 1
        return [1] * len(columns[0]) if columns else []
    values = ()
    for x, column in zip(coords, columns):
        powers = list(accumulate([x] * degree, field.mul, initial=1))
        factor = map(powers.__getitem__, column)
        values = map(mul, values, factor) if values else factor
    return list(values)


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
        values = monomial_values(self.field, coords, self.degree,
                                 tuple(zip(*self.terms)))
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
