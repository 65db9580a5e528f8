"""Dense exact matrices and rank computation.

Rank over Q clears denominators row by row.  The integer matrix's rank mod
the fixed prime `DEFAULT_PRIME` is at most its rank over Q (a minor nonzero
mod p is a nonzero integer), so a full rank mod p is the rational rank;
otherwise fraction-free (Bareiss) elimination decides.  Rank over a prime
field uses Gaussian elimination mod p.  `EchelonModP` keeps vectors mod p
in echelon form as they are added one at a time, for ranks that grow
column by column.  Small determinants (the minors behind intersection
points) use cofactor expansion.
"""

from __future__ import annotations

from math import lcm
from typing import Sequence

from .fields import (DEFAULT_PRIME, Element, Field, FieldMismatchError,
                     PrimeField, RationalField)


class ExactMatrix:
    """Immutable row-major matrix of exact field elements."""

    def __init__(self, field: Field, rows: Sequence[Sequence[Element]],
                 ncols: int | None = None):
        self.field = field
        self.nrows = len(rows)
        if self.nrows:
            self.ncols = len(rows[0])
            for r in rows:
                if len(r) != self.ncols:
                    raise ValueError("ragged rows")
        else:
            self.ncols = 0 if ncols is None else ncols
        self.rows = tuple(tuple(r) for r in rows)

    def rank(self) -> int:
        if self.nrows == 0 or self.ncols == 0:
            return 0
        if isinstance(self.field, PrimeField):
            return _rank_mod_p([list(r) for r in self.rows], self.field.p)
        if isinstance(self.field, RationalField):
            cleared = [clear_denominators(r) for r in self.rows]
            p = DEFAULT_PRIME
            rank = _rank_mod_p([[x % p for x in r] for r in cleared], p)
            if rank == min(self.nrows, self.ncols):
                return rank
            return _rank_bareiss(cleared)
        raise FieldMismatchError(f"unsupported field {self.field!r}")

    def __repr__(self):
        return f"ExactMatrix({self.nrows}x{self.ncols} over {self.field!r})"


class EchelonModP:
    """Vectors mod p added one at a time and kept in echelon form: each
    stored vector is 1 at its pivot and 0 at every earlier pivot.  The
    number stored is the rank of the vectors added so far."""

    def __init__(self, p: int):
        self.p = p
        self.basis: list[tuple[int, list[int]]] = []

    def __len__(self) -> int:
        return len(self.basis)

    def add(self, v: Sequence[int]) -> None:
        """Store `v` reduced by the stored vectors, unless it reduces to 0.
        Entries are reduced mod p once, at the end; in between they only
        grow by products of residues."""
        p = self.p
        for piv, b in self.basis:
            c = -v[piv] % p
            if c:
                v = [x + c * y for x, y in zip(v, b)]
        v = [x % p for x in v]
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is not None:
            inv = pow(v[piv], -1, p)
            self.basis.append((piv, [x * inv % p for x in v]))


def det(field: Field, rows: Sequence[Sequence[Element]]) -> Element:
    """Exact determinant of a small square matrix by cofactor expansion
    along the first row; division-free, so it works over any field."""
    if len(rows) == 1:
        return rows[0][0]
    total = field.zero()
    for j, a in enumerate(rows[0]):
        if field.is_zero(a):
            continue
        term = field.mul(a, det(field, [r[:j] + r[j + 1:] for r in rows[1:]]))
        total = field.add(total, term) if j % 2 == 0 else field.sub(total, term)
    return total


def clear_denominators(row: Sequence[Element]) -> list[int]:
    """The rationals times the lcm of their denominators (ints unchanged)."""
    scale = lcm(*{f.denominator for f in row})
    return [f.numerator * (scale // f.denominator) for f in row]


def _rank_bareiss(m: list[list[int]]) -> int:
    """Fraction-free elimination; pivot = first nonzero entry, lowest row."""
    nr, nc = len(m), len(m[0])
    prev = 1
    row = 0
    for col in range(nc):
        if row >= nr:
            break
        piv = next((r for r in range(row, nr) if m[r][col] != 0), None)
        if piv is None:
            continue
        if piv != row:
            m[row], m[piv] = m[piv], m[row]
        pval = m[row][col]
        for r in range(row + 1, nr):
            mrc = m[r][col]
            if mrc == 0 and pval == prev:
                continue
            mr, mrow = m[r], m[row]
            for c in range(col + 1, nc):
                # exact by Sylvester's identity
                mr[c] = (mr[c] * pval - mrc * mrow[c]) // prev
            mr[col] = 0
        prev = pval
        row += 1
    return row


def _rank_mod_p(m: list[list[int]], p: int) -> int:
    nr, nc = len(m), len(m[0])
    row = 0
    for col in range(nc):
        if row >= nr:
            break
        piv = next((r for r in range(row, nr) if m[r][col] % p != 0), None)
        if piv is None:
            continue
        if piv != row:
            m[row], m[piv] = m[piv], m[row]
        inv = pow(m[row][col], -1, p)
        mrow = [x * inv % p for x in m[row]]
        m[row] = mrow
        for r in range(row + 1, nr):
            f = m[r][col] % p
            if f:
                mr = m[r]
                for c in range(col, nc):
                    mr[c] = (mr[c] - f * mrow[c]) % p
        row += 1
    return row
