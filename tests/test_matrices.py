import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starcurves.fields import DEFAULT_PRIME, PrimeField, QQ, is_prime
from starcurves.matrices import (RESIDUES, PackedEchelonModP,
                                 SparseEchelonModP, _rank_bareiss, rank)

from gauss_jordan import fraction_free

P = DEFAULT_PRIME
MERSENNE_89 = 2**89 - 1     # the largest prime the tests feed an echelon


class BothEchelons:
    """A `SparseEchelonModP` and a `PackedEchelonModP` fed the same
    vectors, the sparse one as `{column: entry}` maps, the packed one as
    residues in [0, p), which must agree on their size, their pivot
    columns and `full` after every `add`."""

    def __init__(self, p, length):
        self.p = p
        self.listed = SparseEchelonModP(p, length)
        self.packed = PackedEchelonModP(p, length)

    def add(self, v):
        self.listed.add(dict(enumerate(v)))
        self.packed.add([x % self.p for x in v])
        assert len(self.packed) == len(self.listed)
        bits = 8 * self.packed.size
        assert sorted(self.listed.basis) == sorted(
            offset // bits for offset, _ in self.packed.basis)
        assert self.packed.full() == self.listed.full()

    def __len__(self):
        return len(self.listed)

    def full(self):
        return self.listed.full()


def naive_rational_rank(rows):
    """Independent oracle: plain Gaussian elimination on Fractions."""
    m = [[Fraction(x) for x in r] for r in rows]
    if not m:
        return 0
    nr, nc = len(m), len(m[0])
    rank = 0
    for col in range(nc):
        piv = next((r for r in range(rank, nr) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pr = m[rank]
        for r in range(rank + 1, nr):
            f = m[r][col] / pr[col]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], pr)]
        rank += 1
    return rank


def naive_rank_mod_p(rows, p):
    """Independent oracle: Gaussian elimination mod p, column by column."""
    m = [[x % p for x in r] for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], -1, p)
        for r in range(rank + 1, len(m)):
            f = m[r][col] * inv
            m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def matrix_rank(field, rows):
    return rank(field, lambda _: rows, len(rows[0]))


def qrank(rows):
    return matrix_rank(QQ, rows)


def test_identity_rank():
    assert qrank([[1, 0], [0, 1]]) == 2


def test_all_ones_rank():
    assert qrank([[1, 1, 1]] * 3) == 1


def test_empty_matrix_rank():
    assert rank(QQ, lambda _: [], 4) == 0
    assert rank(QQ, lambda _: [[], [], []], 0) == 0
    assert rank(QQ, lambda _: [{}, {}], 0) == 0


def test_rank_equals_transpose_rank():
    rng = random.Random(11)
    for _ in range(20):
        rows = [[rng.randint(-9, 9) for _ in range(rng.randint(1, 6))]]
        nc = len(rows[0])
        for _ in range(rng.randint(0, 5)):
            rows.append([rng.randint(-9, 9) for _ in range(nc)])
        columns = [list(c) for c in zip(*rows)]
        assert qrank(rows) == qrank(columns)


def test_rank_invariant_under_scaling_and_permutation():
    rng = random.Random(5)
    rows = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(4)]
    base = qrank(rows)
    scaled = [[-21 * x for x in r] for r in rows]
    assert qrank(scaled) == base
    perm = [rows[2], rows[0], rows[3], rows[1]]
    assert qrank(perm) == base
    colscaled = [[x * (c + 1) for c, x in enumerate(r)] for r in rows]
    assert qrank(colscaled) == base


def test_bareiss_agrees_with_naive_elimination():
    rng = random.Random(42)
    for _ in range(60):
        nr = rng.randint(1, 10)
        nc = rng.randint(1, 10)
        rows = [[rng.randint(-6, 6) * rng.randint(1, 4)
                 for _ in range(nc)] for _ in range(nr)]
        assert matrix_rank(QQ, rows) == naive_rational_rank(rows)


def test_rank_deficient_bareiss():
    # rows 3 and 4 are combinations of rows 1 and 2
    rows = [[1, 2, 3], [4, 5, 6], [5, 7, 9], [3, 3, 3]]
    assert qrank(rows) == 2


def test_rational_vs_prime_field_agreement():
    rng = random.Random(99)
    primes = []
    while len(primes) < 3:
        c = rng.randrange(2**29, 2**30)
        if is_prime(c):
            primes.append(c)
    for _ in range(100):
        rows = [[rng.randint(-50, 50) for _ in range(8)] for _ in range(8)]
        rq = qrank(rows)
        for p in primes:
            fp = PrimeField(p)
            rp = matrix_rank(fp, [[x % p for x in r] for r in rows])
            assert rp == rq


def test_prime_field_rank_examples():
    f = PrimeField(7)
    assert matrix_rank(f, [[1, 0], [0, 1]]) == 2
    # second row is 7 * first row, hence zero mod 7
    assert matrix_rank(f, [[1, 2], [0, 7 % 7]]) == 1


#: Small integers that are often multiples of P, so that the matrix is
#: often singular mod P while regular over Q.
entries = st.builds(lambda a, i: a * P**i, st.integers(-3, 3),
                    st.integers(0, 1))


@st.composite
def matrices_of_prescribed_rank(draw):
    """An nr x nc product of nr x r and r x nc matrices, r <= min(nr, nc);
    its rank is r unless the factors are unlucky."""
    nr, nc = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    r = draw(st.integers(0, min(nr, nc)))
    left = draw(st.lists(st.lists(entries, min_size=r, max_size=r),
                         min_size=nr, max_size=nr))
    right = draw(st.lists(st.lists(entries, min_size=nc, max_size=nc),
                          min_size=r, max_size=r))
    return [[sum(left[i][k] * right[k][j] for k in range(r))
             for j in range(nc)] for i in range(nr)], r


@settings(max_examples=200, deadline=None)
@given(matrices_of_prescribed_rank())
def test_rational_rank_matches_bareiss(case):
    rows, r = case
    found = qrank(rows)
    assert found == _rank_bareiss([list(row) for row in rows]) == \
        naive_rational_rank(rows)
    assert found <= r


@st.composite
def integer_matrices(draw):
    """An nr x nc integer matrix: drawn entry by entry, or the product of
    an nr x r and an r x nc one with r < min(nr, nc), so rank-deficient."""
    nr, nc = draw(st.integers(1, 9)), draw(st.integers(0, 9))
    small = st.integers(-20, 20)

    def matrix(rows, cols):
        return draw(st.lists(st.lists(small, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))

    if draw(st.booleans()) or min(nr, nc) == 0:
        return matrix(nr, nc)
    r = draw(st.integers(0, min(nr, nc) - 1))
    left, right = matrix(nr, r), matrix(r, nc)
    return [[sum(left[i][k] * right[k][j] for k in range(r))
             for j in range(nc)] for i in range(nr)]


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_forward_bareiss_matches_gauss_jordan(m):
    assert _rank_bareiss([list(r) for r in m]) == \
        len(m) - fraction_free([list(r) for r in m]).count(None)


@pytest.mark.parametrize("rows", [
    [[P, 1], [0, 1]],
    [[1, 0], [0, P]],
    [[1, P], [1, 0]],
])
def test_rank_singular_mod_prime_only(rows):
    """Full rank over Q, rank 1 once reduced mod P: the rational rank must
    come from the exact elimination."""
    assert matrix_rank(PrimeField(P), [[x % P for x in r]
                                       for r in rows]) == 1
    assert qrank(rows) == naive_rational_rank(rows) == 2
    echelon = BothEchelons(P, 2)
    for row in rows:
        echelon.add(row)
    assert len(echelon) == 1 and not echelon.full()


def test_echelon_full():
    """Full: one pivot per vector added, or per coordinate."""
    echelon = BothEchelons(7, 3)
    echelon.add([0, 3, 0])
    assert echelon.full()                 # 1 vector, rank 1
    echelon.add([0, 10, 0])
    assert not echelon.full()             # 2 vectors, rank 1 (10 = 3 mod 7)
    echelon.add([1, 0, 0])
    echelon.add([-6, 0, 8])
    assert len(echelon) == 3 and echelon.full()   # 4 vectors of length 3
    wide = BothEchelons(7, 4)
    for row in ([1, 2, 3, 4], [0, 0, 7, 1]):
        wide.add(row)
    assert len(wide) == 2 and wide.full()


@st.composite
def residue_matrices_of_prescribed_rank(draw, widths=st.integers(1, 7)):
    """(p, rows, r): an nr x nc product of nr x r and r x nc integer
    matrices over GF(p), so of rank at most r.  Its entries lie anywhere,
    mostly outside [0, p).  Tall shapes have up to three times as many
    rows as columns (at most 16 more), so a full-rank echelon fills before
    the last row.  Rows of more than 7 entries take their factors from a
    drawn `random.Random`, as hypothesis draws too few values per example
    for them."""
    p = draw(st.sampled_from([2, 7, P, MERSENNE_89]))
    nc = draw(widths)
    nr = draw(st.sampled_from([
        draw(st.integers(nc + 1, nc + 1 + min(2 * nc, 16))),     # tall
        draw(st.integers(1, nc)),                  # wide or square
    ]))
    r = draw(st.integers(0, min(nr, nc)))
    if nc <= 7:
        entry = st.integers(-3 * p, 3 * p)
        left = draw(st.lists(st.lists(entry, min_size=r, max_size=r),
                             min_size=nr, max_size=nr))
        right = draw(st.lists(st.lists(entry, min_size=nc, max_size=nc),
                              min_size=r, max_size=r))
    else:
        rng = draw(st.randoms(use_true_random=False))
        left = [[rng.randint(-3 * p, 3 * p) for _ in range(r)]
                for _ in range(nr)]
        right = [[rng.randint(-3 * p, 3 * p) for _ in range(nc)]
                 for _ in range(r)]
    return p, [[sum(left[i][k] * right[k][j] for k in range(r))
                for j in range(nc)] for i in range(nr)], r


@settings(max_examples=300, deadline=None)
@given(residue_matrices_of_prescribed_rank())
def test_prime_field_rank_matches_naive_elimination(case):
    p, rows, r = case
    found = matrix_rank(PrimeField(p), rows)
    assert found == naive_rank_mod_p(rows, p)
    assert found <= r


@settings(max_examples=100, deadline=None)
@given(residue_matrices_of_prescribed_rank(
    widths=st.one_of(st.integers(1, 7), st.integers(100, 120))))
def test_packed_echelon_matches_list_echelon(case):
    """The packed echelon agrees with the sparse one after every vector, on
    vectors of up to 120 entries and over primes up to 2^89 - 1."""
    p, rows, r = case
    echelon = BothEchelons(p, len(rows[0]))
    for row in rows:
        echelon.add(row)
    assert len(echelon) <= r


@pytest.mark.parametrize("p", [2, 3, 7, 13, P, 2**61 - 1, MERSENNE_89])
@pytest.mark.parametrize("length", [1, 2, 9, 130])
def test_packed_echelon_slots_do_not_overflow(p, length):
    """The largest slot values: a full basis of vectors 1 at their pivot
    and p - 1 after it, then a vector that reads c = 1 at every pivot, so
    that each stored vector adds (p - 1)*(p - 1) to every later slot, and
    the vector with every entry p - 1.  Both reduce to 0 on the full
    basis.  So do the first stored vector again and p - 1 times it, which
    leave every slot a nonzero multiple of p before the slots are reduced
    mod p."""
    echelon = BothEchelons(p, length)
    for k in range(length):
        echelon.add([0] * k + [1] + [p - 1] * (length - k - 1))
    assert len(echelon) == length and echelon.full()
    echelon.add([(1 - k) % p for k in range(length)])
    echelon.add([p - 1] * length)
    assert len(echelon) == length and echelon.full()

    packed, reduced = echelon.packed, []
    real = packed._mod
    packed._mod = lambda x: reduced.append(x) or real(x)
    first = [1] + [p - 1] * (length - 1)
    for v in (first, [(p - 1) * x % p for x in first]):
        echelon.add(v)
        slots = reduced[0].to_bytes(packed.wide * length, "little")
        assert all(x and x % p == 0 for x in (
            int.from_bytes(slots[i:i + packed.wide], "little")
            for i in range(0, len(slots), packed.wide)))
        reduced.clear()
    assert len(echelon) == length


def test_tall_rank_stops_once_the_echelon_is_full(monkeypatch):
    """Rows after the echelon holds one vector per column are not read,
    and the rows go into the echelon of their form: maps into the sparse
    one as they are, sequences into the packed one as residues."""
    added = []
    real = {form: form.add for form in (SparseEchelonModP, PackedEchelonModP)}

    def counting(self, v):
        added.append((type(self), v))
        real[type(self)](self, v)

    for form in real:
        monkeypatch.setattr(form, "add", counting)
    dense = [[1, 0, 0], [0, 8, 0], [5, 5, -2]] + [[9, 9, 9]] * 7
    for field, p in ((PrimeField(7), 7), (QQ, P)):
        for read in (dense, [dict(enumerate(r)) for r in dense]):
            added.clear()
            rows = iter(read)
            assert rank(field, lambda _: rows, 3) == 3
            assert added == [(SparseEchelonModP, r) if isinstance(r, dict)
                             else (PackedEchelonModP, [x % p for x in r])
                             for r in read[:3]]
            assert list(rows) == read[3:]     # the rest is never read


@pytest.mark.parametrize("bad", [Fraction(1, 2), 0.5, Fraction(2, 1)])
def test_rational_rank_refuses_non_int_entries(bad):
    """A non-int entry over Q is refused as its row is read, the first
    row or a later one, with the one message for non-int input."""
    for rows in ([[bad, 1], [1, 0]], [[1, 0], [bad, 1]]):
        with pytest.raises(ValueError, match="lcm of their denominators"):
            rank(QQ, lambda _: rows, 2)


def test_rank_refuses_rows_of_the_wrong_length():
    for field in (QQ, PrimeField(7)):
        with pytest.raises(ValueError, match="a row of 3 entries, not 2"):
            rank(field, lambda _: [[1, 0], [0, 1, 2]], 2)


def as_maps(rows, rng):
    """The rows as {column: entry} maps, in a shuffled column order, with
    some of their zero entries kept."""
    maps = []
    for row in rows:
        items = [(c, x) for c, x in enumerate(row) if x or rng.random() < 0.3]
        rng.shuffle(items)
        maps.append(dict(items))
    return maps


@settings(max_examples=200, deadline=None)
@given(case=st.one_of(
    residue_matrices_of_prescribed_rank(),
    st.builds(lambda case: (None, *case), matrices_of_prescribed_rank())),
    rng=st.randoms(use_true_random=False))
def test_map_rows_and_dense_rows_give_one_rank(case, rng):
    """Over GF(p) and over Q, where the rank may fall back to Bareiss on
    the kept maps."""
    p, rows, _ = case
    field = QQ if p is None else PrimeField(p)
    ncols = len(rows[0])
    maps = as_maps(rows, rng)
    assert rank(field, lambda _: maps, ncols) == \
        matrix_rank(field, rows) == (naive_rational_rank(rows) if p is None
                                     else naive_rank_mod_p(rows, p))


def test_rank_refuses_map_rows_outside_the_columns():
    for field in (QQ, PrimeField(7)):
        for row in ({2: 1}, {-1: 1}):
            with pytest.raises(ValueError, match="column outside 0..1"):
                rank(field, lambda _: [{0: 1}, row], 2)


def test_rank_refuses_maps_and_sequences_in_one_matrix():
    """A row unlike the first is refused, either way round: a map read as
    a sequence would give the packed echelon its keys."""
    for field in (QQ, PrimeField(7)):
        for rows in ([{0: 1}, [0, 1]], [[1, 0], {1: 1}],
                     [[0, 1], [0, 2], {0: 1}]):
            with pytest.raises(ValueError, match="maps and sequences"):
                rank(field, lambda _: rows, 2)


@pytest.mark.parametrize("rows, asked", [
    ([[1, 2], [3, 4]], [P]),                   # full mod P: no exact pass
    ([[P, 1], [0, 1]], [P, None]),             # short mod P: one exact pass
    ([[1, 2], [2, 4], [3, 6]], [P, None]),     # short over Q as well
])
def test_rational_rank_asks_for_residues_then_exact_rows(rows, asked):
    """Over Q the rows are asked for mod the residue prime first, and as
    exact ints only when that echelon is not full; over GF(p) once."""
    fields = []

    def given(fld):
        fields.append(getattr(fld, "p", None))
        return iter([[x % fld.p for x in r] for r in rows]
                    if fld is RESIDUES else rows)
    assert rank(QQ, given, 2) == naive_rational_rank(rows)
    assert fields == asked and RESIDUES == PrimeField(P)
    fields.clear()
    assert rank(PrimeField(7), given, 2) == naive_rank_mod_p(rows, 7)
    assert fields == [7]


def test_sparse_echelon_leaves_its_input_alone():
    echelon = SparseEchelonModP(7, 3)
    first, second = {0: 1, 2: 3}, {0: 2, 1: 1}
    echelon.add(first)
    echelon.add(second)
    assert (first, second) == ({0: 1, 2: 3}, {0: 2, 1: 1})
    assert len(echelon) == 2 and echelon.full()
