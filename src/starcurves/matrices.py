"""Exact rank of a stream of rows.

Every rank is read from a mod-p echelon: vectors added one at a time and
kept in echelon form, behind one interface (`add`, `len`, `full`), in one
of two forms.  `SparseEchelonModP` keeps each vector as its nonzero
entries, `{column: residue}`.  It takes the rows of `rank` that are maps,
whose heaviest load is the tangent rows of `tangent.tangent_dim_points`:
n*l columns, n^2 of them nonzero.  `PackedEchelonModP` keeps each vector
as one int of fixed-width slots and reduces, pivots and scales by
operations on whole ints, none per slot.  It takes the rows of `rank`
that are sequences, and the Hilbert function's columns (`starconfig`).
Each is the faster one on its own load.  `rank` checks each row as read
and applies the one rank rule (`rank_of_built_rows`): over GF(p) the
echelon's size; over Q that of the residues if `full`, else the exact
forward-only fraction-free elimination (`_rank_bareiss`).
"""

from __future__ import annotations

from bisect import insort
from itertools import chain
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .fields import (DEFAULT_PRIME, Field, FieldMismatchError, PrimeField,
                     RationalField, check_integral)

RESIDUES = PrimeField(DEFAULT_PRIME)   # the first pass of a rank over Q


def rank(field: Field, rows: Callable[[Field], Iterable], ncols: int) -> int:
    """The rank of the matrix of `ncols` columns whose rows `rows(f)` gives
    afresh over the field f: ints congruent mod p to the exact entries over
    GF(p), the exact ints over Q.  Map rows go into a `SparseEchelonModP`,
    sequences into a `PackedEchelonModP`, until it holds `ncols` vectors.
    Over Q it reads `rows(RESIDUES)`, and only when that echelon is not
    full every row of `rows(field)`, for `_rank_bareiss`."""
    return rank_of_built_rows(field, lambda fld: _checked(
        field, rows(fld), ncols), ncols)[0]


def rank_of_built_rows(field: Field, rows: Callable[[Field], Iterable],
                       ncols: int) -> tuple[int, int]:
    """`rank` of rows in one form, with ints over Q, none checked, and the
    number of rows its first pass read."""
    if not isinstance(field, (PrimeField, RationalField)):
        raise FieldMismatchError(f"unsupported field {field!r}")
    residues = field if isinstance(field, PrimeField) else RESIDUES
    read = iter(rows(residues))
    first = next(read, None)
    if first is None:
        return 0, 0
    p, sparse = residues.p, isinstance(first, dict)
    echelon = (SparseEchelonModP if sparse else PackedEchelonModP)(p, ncols)
    for row in chain((first,), read):
        echelon.add(row if sparse else [x % p for x in row])
        if len(echelon) == ncols:
            break
    if residues is field or echelon.full():
        return len(echelon), echelon.added
    return _rank_bareiss([
        [r.get(c, 0) for c in range(ncols)] if isinstance(r, dict) else
        list(r) for r in rows(field)]), echelon.added


def _checked(field: Field, rows: Iterable, ncols: int) -> Iterator:
    """The rows, refused as read unless of the first row's form (a map into
    0..ncols - 1 or a sequence of `ncols` entries), with ints over Q."""
    forms, rational = set(), isinstance(field, RationalField)
    for row in rows:
        forms.add(sparse := isinstance(row, dict))
        if len(forms) > 1:
            raise ValueError("maps and sequences as rows of one matrix")
        if not sparse and len(row) != ncols:
            raise ValueError(f"a row of {len(row)} entries, not {ncols}")
        if sparse and row and not (0 <= min(row) and max(row) < ncols):
            raise ValueError(f"a row with a column outside 0..{ncols - 1}")
        if rational:
            check_integral(field, row.values() if sparse else row,
                           "matrix entries")
        yield row


class SparseEchelonModP:
    """Vectors mod p of one length, added one at a time as `{column:
    int}` maps and kept in echelon form: each stored vector is 1 at its
    pivot and 0 before it, and is kept as its other nonzero entries.  The
    number stored is the rank mod p of the integer vectors added so far."""

    def __init__(self, p: int, length: int):
        self.p = p
        self.length = length
        self.basis: dict[int, list[tuple[int, int]]] = {}   # pivot -> tail
        self.added = 0

    def __len__(self) -> int:
        return len(self.basis)

    def full(self) -> bool:
        """Whether the size is min(#vectors added, vector length).  Then it
        is also the rank over Q of the integer vectors added: their rank
        mod p is at most their rational rank (a minor nonzero mod p is a
        nonzero integer), and no rank exceeds that minimum."""
        return len(self.basis) == min(self.added, self.length)

    def add(self, v: Mapping[int, int]) -> None:
        """Store a copy of `v` reduced by the stored vectors, unless it
        reduces to 0.  Columns are taken in increasing order, each reduced
        mod p: one with a stored pivot is cleared by that vector, which
        only adds entries to its right (inserted in order among the columns
        still to take), and the first other nonzero one is the new pivot."""
        p, basis = self.p, self.basis
        self.added += 1
        v = dict(v)
        columns, i = sorted(v), 0
        while i < len(columns):
            col = columns[i]
            i += 1
            c = v.pop(col) % p
            if not c:
                continue
            tail = basis.get(col)
            if tail is None:
                scale = pow(c, -1, p)
                basis[col] = [(k, r) for k, x in v.items()
                              if (r := x * scale % p)]
                return
            for k, y in tail:
                if k not in v:
                    insort(columns, k, i)
                v[k] = v.get(k, 0) - c * y


class PackedEchelonModP(SparseEchelonModP):
    """The echelon of dense vectors, each packed into one int: entry i in
    the little-endian slot i of `size` bytes, below 2^k for k the bit
    length of max((p-1)^2, (p-1) + length*(p-1)^2).

    Stored vectors hold residues in [0, p), are 1 at their pivot and 0
    before it and at every earlier pivot.  A vector is packed from its
    residues, and each stored vector T with c = (entry at T's pivot) mod p
    nonzero adds (p - c)*T to it: one multiply-add of whole ints.  Each of
    at most `length` such steps adds at most (p - 1)^2 to a slot, so no
    slot carries into the next.  `_mod` then reduces all slots at once in
    slots of `wide` bytes, at least 2k - bit_length(p) + 2 bits, which
    hold a slot a < 2^k times mu = floor(2^k / p) with no carry: shifted
    by k and masked, each holds the Barrett quotient q, a - q*p is in
    [0, 2p), and one masked subtraction of p leaves a mod p."""

    def __init__(self, p: int, length: int):
        super().__init__(p, length)
        bound = max((p - 1) ** 2, (p - 1) + length * (p - 1) ** 2)
        self.k = k = bound.bit_length()
        self.size, self.wide = (k + 7) // 8, (2 * k - p.bit_length() + 9) // 8
        self.mask, self.mu = (1 << 8 * self.size) - 1, (1 << k) // p
        top = 1 << p.bit_length()
        self.quotients, self.tops, self.offsets = (   # in every wide slot
            int.from_bytes(x.to_bytes(self.wide, "little") * length, "little")
            for x in ((1 << 8 * self.wide - k) - 1, top, top - p))
        self.basis: list[tuple[int, int]] = []   # (pivot bit offset, vector)

    def _pack(self, residues: Iterable[int]) -> int:
        size = self.size
        return int.from_bytes(b"".join([x.to_bytes(size, "little")
                                        for x in residues]), "little")

    def _respace(self, x: int, source: int, target: int) -> int:
        """x's slots of `source` bytes, below 2^(8*size), in `target`."""
        data = x.to_bytes(source * self.length, "little")
        out = bytearray(target * self.length)
        for j in range(self.size):
            out[j::target] = data[j::source]
        return int.from_bytes(out, "little")

    def _mod(self, x: int) -> int:
        """Every wide slot of x, below 2^k, reduced mod p."""
        x -= ((x * self.mu) >> self.k & self.quotients) * self.p
        return x - ((x + self.offsets & self.tops)
                    >> self.p.bit_length()) * self.p

    def add(self, v: Sequence[int]) -> None:
        """Store a vector of residues in [0, p), packed as they are,
        reduced by the stored vectors and mod p unless that leaves 0,
        scaled to 1 at its pivot, its lowest nonzero slot, and reduced mod
        p again: scaled slots are below (p-1)^2 < 2^k."""
        p, mask, size, wide = self.p, self.mask, self.size, self.wide
        self.added += 1
        packed = self._pack(v)
        for offset, stored in self.basis:
            c = (packed >> offset & mask) % p
            if c:
                packed += (p - c) * stored
        packed = self._mod(self._respace(packed, size, wide))
        if packed:
            piv = ((packed & -packed).bit_length() - 1) // (8 * wide)
            scale = pow(packed >> 8 * wide * piv & (1 << 8 * wide) - 1, -1, p)
            self.basis.append((8 * size * piv, self._respace(
                self._mod(packed * scale), wide, size)))


def _rank_bareiss(m: list[list[int]]) -> int:
    """The rank of the integer rows `m`, by forward-only fraction-free
    elimination (Bareiss), in place: each pivot clears its column in the
    rows below it only, which is all a rank needs.  Every division is
    exact, by Sylvester's identity: after k pivots each entry below them
    is, up to sign, a (k+1) x (k+1) minor of `m`."""
    prev, top = 1, 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(top, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[top], m[piv] = m[piv], m[top]
        pivot_row, a = m[top], m[top][col]
        for r in m[top + 1:]:
            b = r[col]
            r[col:] = [(x * a - b * y) // prev
                       for x, y in zip(r[col:], pivot_row[col:])]
        prev, top = a, top + 1
    return top
