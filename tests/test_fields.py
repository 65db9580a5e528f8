import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starcurves.fields import DEFAULT_PRIME, PrimeField, QQ, is_prime

import draws


def test_rational_arithmetic():
    assert QQ.from_int(2 - 7) == -5
    assert QQ.mul(-3, 6) == -18


def test_rational_elements_stay_int():
    """Every rational element the field makes is an int."""
    rng = random.Random(0)
    for value in (QQ.from_int(-7), *QQ.randoms(rng, 3), QQ.mul(3, -4)):
        assert type(value) is int


def test_gf7():
    f = PrimeField(7)
    assert f.mul(3, 5) == 1
    assert f.from_int(4 + 5) == 2
    assert f.from_int(-3) == 4


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


@settings(max_examples=150, deadline=None)
@given(field=st.sampled_from(draws.FIELDS), seed=st.integers(0, 2**64),
       count=st.one_of(st.integers(0, 2), st.integers(500, 3000)))
def test_bulk_draws_are_single_draws(field, seed, count):
    draws.check(field, seed, count)
