"""Monomial bases and values one monomial at a time, kept as independent
references for `starcurves.polynomials`: its exponent columns must
transpose to the basis built here, and its kernel `monomial_values` must
give the same values of the same types."""

from __future__ import annotations

from itertools import accumulate
from math import prod
from operator import getitem
from typing import Iterable, Sequence

from starcurves.fields import Field


def graded_lex_basis(nvars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors of total degree `degree` in graded-lex order
    (x0 > x1 > ...), one tuple per monomial, for x0 = degree, ..., 0 in
    turn followed by the vectors of the other variables."""
    if nvars == 1:
        return ((degree,),)
    return tuple((e0,) + rest for e0 in range(degree, -1, -1)
                 for rest in graded_lex_basis(nvars - 1, degree - e0))


def per_monomial_values(field: Field, coords: Sequence, degree: int,
                        monomials: Iterable[tuple[int, ...]]) -> list:
    """Values at `coords` of the exponent vectors `monomials`, of total
    degree at most `degree`: for each, the product of its coordinates'
    powers, read from one table of powers per coordinate that starts at
    the integer 1.  GF(p) values are left unreduced."""
    powers = [list(accumulate([x] * degree, field.mul, initial=1))
              for x in coords]
    return [prod(map(getitem, powers, mono)) for mono in monomials]
