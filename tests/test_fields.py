import random
from fractions import Fraction

import pytest

from starcurves.fields import (DEFAULT_PRIME, PrimeField, QQ, is_prime)


def egcd_inverse(a, p):
    """Independent oracle: modular inverse by extended Euclid."""
    old_r, r = a % p, p
    old_s, s = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    assert old_r == 1
    return old_s % p


def test_rational_arithmetic():
    a = Fraction(2, 3)
    b = Fraction(1, 6)
    assert QQ.add(a, b) == Fraction(5, 6)
    assert QQ.mul(a, b) == Fraction(1, 9)
    assert QQ.inv(a) == Fraction(3, 2)


def test_rational_elements_stay_int():
    """Only a division makes a Fraction; the inverse of an int is exact,
    never a float."""
    rng = random.Random(0)
    for value in (QQ.zero(), QQ.one(), QQ.from_int(-7), QQ.random(rng)):
        assert type(value) is int
    for a in (3, -3):
        inv = QQ.inv(a)
        assert type(inv) is Fraction and inv == Fraction(1, a)


def test_rational_lowest_terms():
    s = QQ.add(Fraction(1, 4), Fraction(1, 4))
    assert s.numerator == 1 and s.denominator == 2


def test_gf7():
    f = PrimeField(7)
    assert f.mul(3, 5) == 1
    assert f.add(4, 5) == 2
    assert f.neg(3) == 4


def test_default_prime_inverse():
    p = DEFAULT_PRIME
    f = PrimeField(p)
    inv2 = f.inv(2)
    assert inv2 == egcd_inverse(2, p) == 536870895
    assert f.mul(2, inv2) == 1


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))
    with pytest.raises(ZeroDivisionError):
        PrimeField(7).inv(0)


def test_nonprime_modulus_rejected():
    with pytest.raises(ValueError):
        PrimeField(91)   # 7 * 13


def test_is_prime():
    assert is_prime(2) and is_prime(DEFAULT_PRIME)
    assert not is_prime(1) and not is_prime(2**30)
    assert is_prime(1073741827)   # smallest prime above 2^30


def test_field_equality():
    assert PrimeField(7) == PrimeField(7)
    assert PrimeField(7) != PrimeField(11)
    assert QQ != PrimeField(7)


def test_descriptors():
    assert QQ.descriptor() == {"field": "rational"}
    assert PrimeField(7).descriptor() == {"field": "prime", "prime": 7}
