"""Exact scalar arithmetic over the rationals and prime fields.

Elements are plain ``int``s: integers for the rationals (no operation
divides, and `check_integral` refuses other input), and residues in
``[0, p)`` for a prime field, so 0 and 1 are written as ints and sums
are int sums.  A ``Field`` object carries the rest: the reduction of an
int (`from_int`), the product (`mul`), the zero test (`is_zero`), the
random draws from a `random.Random` (`randoms`) and a JSON-friendly
`descriptor()`; containers (polynomials, matrices) hold a field
reference and refuse to mix elements from different fields.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable

Element = int

#: Largest prime below 2**30; products of two residues stay well inside
#: 64-bit integer range.
DEFAULT_PRIME = 1073741789


class FieldMismatchError(ValueError):
    """Raised when an operation mixes elements of different fields."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all 64-bit integers."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _below(rng, n: int, count: int) -> list[int]:
    """`count` draws of `rng.randrange(n)`, leaving `rng` as they would.
    `randrange` draws `getrandbits(n.bit_length())` until it is below n;
    one stream of those is read for the draws still missing, as often as
    needed, and the values below n are kept."""
    k, out = n.bit_length(), []
    while len(out) < count:
        out += [r for r in map(rng.getrandbits, repeat(k, count - len(out)))
                if r < n]
    return out


class RationalField:
    """The field Q; elements are ``int``."""

    #: Random coefficients are drawn uniformly from [-RANDOM_BOUND, RANDOM_BOUND].
    RANDOM_BOUND = 10**4

    def from_int(self, n):
        return n

    def mul(self, a, b):
        return a * b

    def is_zero(self, a):
        return a == 0

    def randoms(self, rng, count: int) -> list[int]:
        """`count` draws of `rng.randint(-RANDOM_BOUND, RANDOM_BOUND)`."""
        b = self.RANDOM_BOUND
        return [x - b for x in _below(rng, 2 * b + 1, count)]

    def descriptor(self):
        return {"field": "rational"}

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The field GF(p); elements are ints in ``[0, p)``."""

    def __init__(self, p: int = DEFAULT_PRIME):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    def from_int(self, n):
        return n % self.p

    def mul(self, a, b):
        return a * b % self.p

    def is_zero(self, a):
        return a % self.p == 0

    def randoms(self, rng, count: int) -> list[int]:
        """`count` draws of `rng.randrange(p)`."""
        return _below(rng, self.p, count)

    def descriptor(self):
        return {"field": "prime", "prime": self.p}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"GF({self.p})"


#: A field is one of the two classes, with the interface described above.
Field = RationalField | PrimeField

QQ = RationalField()


def check_same_field(a: Field, b: Field) -> None:
    if a != b:
        raise FieldMismatchError(f"cannot mix elements of {a!r} and {b!r}")


def check_integral(field: Field, values: Iterable, what: str) -> None:
    """Refuse values over Q that are not ints."""
    if isinstance(field, RationalField) and not all(
            map(isinstance, values, repeat(int))):
        raise ValueError(f"{what} over Q must be ints; scale them by the "
                         "lcm of their denominators")
