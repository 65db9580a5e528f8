"""Dense exact matrices and rank computation.

Every rank is read from one mod-p elimination, `EchelonModP`, which keeps
vectors mod p in echelon form as they are added one at a time.  A rank
over a prime field is its size.  Over Q the entries are ints, read mod the
fixed prime `DEFAULT_PRIME`; a full echelon (`EchelonModP.full`) gives the
rational rank, and fraction-free (Bareiss) elimination decides otherwise.
"""

from __future__ import annotations

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
        """Rows go into one `EchelonModP` until it holds one vector per
        column.  Over Q the echelon reads the integer rows mod
        `DEFAULT_PRIME`; Bareiss decides when it is not full."""
        if self.nrows == 0 or self.ncols == 0:
            return 0
        exact = isinstance(self.field, PrimeField)
        if exact:
            p, rows = self.field.p, self.rows
        elif isinstance(self.field, RationalField):
            p = DEFAULT_PRIME
            rows = ([x % p for x in r] for r in self.rows)
        else:
            raise FieldMismatchError(f"unsupported field {self.field!r}")
        echelon = EchelonModP(p, self.ncols)
        for row in rows:
            echelon.add(row)
            if len(echelon) == self.ncols:
                break
        if exact or echelon.full():
            return len(echelon)
        return _rank_bareiss([list(r) for r in self.rows])

    def __repr__(self):
        return f"ExactMatrix({self.nrows}x{self.ncols} over {self.field!r})"


class EchelonModP:
    """Vectors mod p of one length, added one at a time and kept in
    echelon form: each stored vector is 1 at its pivot, 0 before it and 0
    at every earlier pivot, and is kept from its pivot on.  The number
    stored is the rank mod p of the integer vectors added so far."""

    def __init__(self, p: int, length: int):
        self.p = p
        self.length = length
        self.basis: list[tuple[int, list[int]]] = []
        self.added = 0

    def __len__(self) -> int:
        return len(self.basis)

    def full(self) -> bool:
        """Whether the size is min(#vectors added, vector length).  Then it
        is also the rank over Q of the integer vectors added: their rank
        mod p is at most their rational rank (a minor nonzero mod p is a
        nonzero integer), and no rank exceeds that minimum."""
        return len(self.basis) == min(self.added, self.length)

    def add(self, v: Sequence[int]) -> None:
        """Store `v` reduced by the stored vectors, unless it reduces to 0.
        Entries are reduced mod p once, at the end, with the scaling to 1
        at the pivot; in between they only grow by products of residues."""
        p = self.p
        self.added += 1
        v = list(v)
        for piv, tail in self.basis:
            c = -v[piv] % p
            if c:
                v[piv:] = [x + c * y for x, y in zip(v[piv:], tail)]
        for piv, x in enumerate(v):
            if x % p:
                scale = pow(x, -1, p)
                self.basis.append((piv, [y * scale % p for y in v[piv:]]))
                return


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
