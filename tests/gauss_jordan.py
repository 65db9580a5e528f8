"""Fraction-free Gauss-Jordan elimination, kept as an independent
reference: for the forward-only Bareiss rank of `starcurves.matrices` and
for the kernels that `starcurves.starconfig` narrows one form at a time."""

from __future__ import annotations

from typing import Sequence

from starcurves.fields import Field, PrimeField


def fraction_free(rows: list[list[int]],
                  p: int | None = None) -> list[int | None]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place, in
    row order: each row takes its first nonzero entry as pivot and clears
    that column in every other row.  Returns each row's pivot column, or
    None for a row that became 0.  Every division is exact (Sylvester's
    identity), and each pivot row ends with the last pivot minor at its
    pivot.  Given a prime p, the rows hold residues mod p and stay so:
    a pivot is nonzero mod p, and each division multiplies by an inverse
    mod p, so the same holds of the minors mod p."""
    prev, pivots = 1, []
    for top in rows:
        col = next((c for c, x in enumerate(top) if x), None)
        pivots.append(col)
        if col is None:
            continue
        inverse = None if p is None else pow(prev, -1, p)
        for r in rows:
            if r is not top:
                a, b = top[col], r[col]
                if p is None:
                    r[:] = [(x * a - b * y) // prev for x, y in zip(r, top)]
                else:
                    r[:] = [(x * a - b * y) * inverse % p
                            for x, y in zip(r, top)]
        prev = top[col]
    return pivots


def kernel(field: Field, coefficients: Sequence[Sequence[int]],
           size: int) -> list[list[int]]:
    """A basis of the common zeros of the forms with these coefficient
    rows in `size` variables, one vector per free column, or as many zero
    vectors when the forms are dependent.

    `fraction_free` elimination of the rows leaves the pivot minor D at
    each pivot and 0 at the other pivots.  Each free column f gives a
    kernel vector: D at f, 0 at the other free columns, and minus each
    row's entry in column f at that row's pivot.  Over GF(p) the
    elimination runs mod p: a pivot minor of the residues taken over the
    integers can be 0 mod p while the forms are independent mod p, and the
    vectors read off it would then not span their zeros."""
    p = field.p if isinstance(field, PrimeField) else None
    rows = [list(c) for c in coefficients]
    pivots = fraction_free(rows, p)
    if None in pivots:
        return [[0] * size] * (size - len(rows))
    minor = rows[-1][pivots[-1]] if rows else 1
    basis = []
    for free in (c for c in range(size) if c not in pivots):
        v = [0] * size
        v[free] = minor
        for row, col in zip(rows, pivots):
            v[col] = -row[free]
        basis.append(v)
    return basis
