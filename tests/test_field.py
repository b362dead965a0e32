"""Tests for the prime field F_q: primality, the Legendre symbol, and its
arithmetic as the degree-one extension ExtField(q, 1)."""

import pytest

from hyperell.extfield import ExtField
from hyperell.field import check_odd_prime, is_prime, legendre_scalar, prime_divisors
from hyperell.polyring import _int_mobius


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23]
    for n in range(25):
        assert is_prime(n) == (n in primes)


def test_prime_divisors_and_mobius_brute_force():
    primes = [p for p in range(2, 500) if all(p % d for d in range(2, p))]
    for n in range(-2, 500):
        divisors = [p for p in primes if n > 0 and n % p == 0]
        assert prime_divisors(n) == divisors  # [] for n < 2
        if n >= 1:
            squareful = any(n % (p * p) == 0 for p in divisors)
            assert _int_mobius(n) == (0 if squareful else (-1) ** len(divisors))


@pytest.mark.parametrize("q", [3, 5, 7, 13])
def test_add_mul_wrap(q):
    F = ExtField(q, 1)
    assert F.add((q - 1,), (2,)) == (1,)
    assert F.mul((q - 1,), (q - 1,)) == (1,)


@pytest.mark.parametrize("q", [3, 5, 7, 13])
def test_inverse(q):
    # Fermat: a^(q-2) is the inverse of every unit
    F = ExtField(q, 1)
    for a in range(1, q):
        assert F.mul((a,), F.pow_((a,), q - 2)) == F.one


def test_bad_order_rejected():
    for q in (1, 2, 4, 9, 15):
        with pytest.raises(ValueError):
            check_odd_prime(q)
        with pytest.raises(ValueError):
            ExtField(q, 1)


def test_residue_mod_4():
    # -1 is a square exactly when q = 1 mod 4, the sign reciprocity flips on
    assert legendre_scalar(-1, 3) == -1
    assert legendre_scalar(-1, 5) == 1
    assert legendre_scalar(-1, 13) == 1


@pytest.mark.parametrize("q", [3, 5, 7, 13])
def test_legendre_against_square_set(q):
    squares = {(a * a) % q for a in range(1, q)}
    assert legendre_scalar(0, q) == 0
    for a in range(1, q):
        assert legendre_scalar(a, q) == (1 if a in squares else -1)
        assert legendre_scalar(a + q, q) == legendre_scalar(a, q)


def test_legendre_multiplicative():
    for a in range(1, 13):
        for b in range(1, 13):
            assert legendre_scalar(a * b, 13) == legendre_scalar(a, 13) * legendre_scalar(b, 13)


def test_pow():
    F = ExtField(7, 1)
    assert F.pow_((3,), 0) == (1,)
    assert F.pow_((3,), 6) == (1,)  # Fermat
    assert F.pow_((2,), 5) == (32 % 7,)
