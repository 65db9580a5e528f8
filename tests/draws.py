"""`Field.randoms` against single draws of CPython's `random`.

`randoms` reads one `getrandbits` stream and keeps the values below the
range, which gives the values of `randrange` and `randint` only while
those stay a filter of that stream.  `tests/test_fields.py` runs `check`
under hypothesis; this file runs it on a fixed grid with no test runner,
for interpreters that have none:

    PYTHONPATH=src python3 tests/draws.py
"""

from __future__ import annotations

import random
import sys

from starcurves.fields import DEFAULT_PRIME, QQ, PrimeField

FIELDS = [PrimeField(2), PrimeField(3), PrimeField(13),
          PrimeField(DEFAULT_PRIME), PrimeField(2**89 - 1), QQ]


def single_draw(field, rng: random.Random) -> int:
    """One draw of a field element from CPython's `randrange` or
    `randint`: the oracle the tests draw through, never `randoms`."""
    if field == QQ:
        return rng.randint(-QQ.RANDOM_BOUND, QQ.RANDOM_BOUND)
    return rng.randrange(field.p)


def check(field, seed: int, count: int) -> None:
    """`count` values from `randoms` and from single draws agree, and
    leave their generators in one state."""
    bulk, single = random.Random(seed), random.Random(seed)
    assert field.randoms(bulk, count) == [single_draw(field, single)
                                          for _ in range(count)]
    assert bulk.random() == single.random()


if __name__ == "__main__":
    for field in FIELDS:
        for seed in range(20):
            for count in (0, 1, 2, 7, 2000):
                check(field, seed, count)
    print(f"Field.randoms matches single draws on Python "
          f"{sys.version.split()[0]}")
