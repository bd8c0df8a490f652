"""Prime-field arithmetic: axioms, inverses, primality validation."""

import random

import pytest

from polarvar.field import PrimeField, is_prime


def test_default_prime_is_the_documented_one(K):
    assert K.q == 10_000_000_019
    assert is_prime(K.q)


def test_non_prime_modulus_rejected():
    with pytest.raises(ValueError):
        PrimeField(10)
    with pytest.raises(ValueError):
        PrimeField(2)  # must be odd and > 2
    with pytest.raises(ValueError):
        PrimeField(2**62 + 1)


def test_miller_rabin_against_sieve():
    sieve = [True] * 2000
    sieve[0] = sieve[1] = False
    for i in range(2, 2000):
        if sieve[i]:
            for j in range(2 * i, 2000, i):
                sieve[j] = False
    for n in range(2000):
        assert is_prime(n) == sieve[n]


def test_inverse_examples(K):
    assert K.inv(1) == 1
    assert K.inv(2) == 5_000_000_010  # (q+1)/2
    with pytest.raises(ZeroDivisionError):
        K.inv(0)


def extended_euclid_inverse(a, q):
    old_r, r = a % q, q
    old_s, s = 1, 0
    while r:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_s, s = s, old_s - quo * s
    assert old_r == 1
    return old_s % q


def test_inverse_against_extended_euclid_oracle(K):
    rng = random.Random(101)
    for _ in range(1000):
        a = rng.randrange(1, K.q)
        inv = K.inv(a)
        assert a * inv % K.q == 1
        assert inv == extended_euclid_inverse(a, K.q)

