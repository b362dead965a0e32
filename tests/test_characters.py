"""Tests for residue symbols, the Jacobi symbol, and reciprocity.

The Jacobi symbol has two deliberately independent implementations: the
defining product over prime factors and the reciprocity-driven Euclidean
ladder used in hot loops.  Most tests here hold the two equal.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from hyperell.characters import (
    chi,
    jacobi,
    jacobi_factorization,
    reciprocity_holds,
    residue_symbol_prime,
)
from hyperell.field import legendre_scalar
from hyperell.polyring import (
    degree,
    gcd,
    monic_by_code,
    monic_polys,
    mul,
    poly_of_code,
)

X = (0, 1)
X1 = (1, 1)  # x + 1
X2 = (2, 1)  # x + 2 over F_3


def test_prime_symbol_pins():
    assert residue_symbol_prime(X1, X, 3) == 1
    assert residue_symbol_prime(X, X1, 3) == -1
    assert residue_symbol_prime(X, X, 3) == 0


def test_prime_symbol_reducible_modulus_detected():
    # x^2 + 2 = (x+1)(x+2): the Euler power of x+1 is 2x+2, not a scalar
    with pytest.raises(ValueError):
        residue_symbol_prime(X1, (2, 0, 1), 3)


def test_jacobi_pins():
    assert jacobi((1,), (1, 0, 1), 3) == 1
    assert jacobi(X, (1, 0, 1), 3) == 1  # x^4 = 1 mod x^2+1
    assert jacobi((0, 1, 0, 1), X2, 3) == -1
    assert jacobi((1,), (1,), 3) == 1
    # shared factor gives 0
    assert jacobi(X, mul(X, X1, 3), 3) == 0
    assert jacobi((), X1, 3) == 0


@pytest.mark.parametrize("q", [3, 5])
def test_dual_algorithms_agree_exhaustive(q):
    max_f = 3 if q == 3 else 2
    for dq in range(1, 4):
        for Q in monic_polys(dq, q):
            for code in range(q ** (max_f + 1)):
                f = poly_of_code(code, q)
                assert jacobi(f, Q, q) == jacobi_factorization(f, Q, q)


@pytest.mark.parametrize("q", [3, 5])
def test_dual_algorithms_agree_sampled_deg6(q):
    rng = random.Random(17)
    for _ in range(300):
        f = poly_of_code(rng.randrange(q**7), q)
        dq = rng.randint(1, 6)
        low = poly_of_code(rng.randrange(q**dq), q)
        Q = tuple(list(low) + [0] * (dq - len(low)) + [1])
        assert jacobi(f, Q, q) == jacobi_factorization(f, Q, q)


def test_jacobi_multiplicative_in_numerator():
    q = 3
    rng = random.Random(5)
    for _ in range(120):
        f = poly_of_code(rng.randrange(q**4), q)
        g = poly_of_code(rng.randrange(q**4), q)
        low = poly_of_code(rng.randrange(q**3), q)
        Q = tuple(list(low) + [0] * (3 - len(low)) + [1])
        assert jacobi(mul(f, g, q), Q, q) == jacobi(f, Q, q) * jacobi(g, Q, q)


def test_jacobi_multiplicative_in_denominator():
    q = 5
    rng = random.Random(6)
    for _ in range(120):
        f = poly_of_code(rng.randrange(q**4), q)
        lows = [poly_of_code(rng.randrange(q**2), q) for _ in range(2)]
        Qs = [tuple(list(low) + [0] * (2 - len(low)) + [1]) for low in lows]
        prod = mul(Qs[0], Qs[1], q)
        assert jacobi(f, prod, q) == jacobi(f, Qs[0], q) * jacobi(f, Qs[1], q)


def test_non_monic_denominator_rejected():
    with pytest.raises(ValueError):
        jacobi(X, (0, 2), 3)


@pytest.mark.parametrize("q", [3, 5])
def test_reciprocity_exhaustive_small(q):
    for da in range(1, 4):
        for A in monic_polys(da, q):
            for db in range(1, 4):
                for B in monic_polys(db, q):
                    if degree(gcd(A, B, q)) != 0:
                        continue
                    assert reciprocity_holds(A, B, q)


@pytest.mark.parametrize("q", [3, 5, 13])
def test_reciprocity_sampled_deg5(q):
    rng = random.Random(23)
    checked = 0
    while checked < 150:
        da, db = rng.randint(1, 5), rng.randint(1, 5)
        lowa = poly_of_code(rng.randrange(q**da), q)
        lowb = poly_of_code(rng.randrange(q**db), q)
        A = tuple(list(lowa) + [0] * (da - len(lowa)) + [1])
        B = tuple(list(lowb) + [0] * (db - len(lowb)) + [1])
        if degree(gcd(A, B, q)) != 0:
            continue
        assert reciprocity_holds(A, B, q)
        checked += 1


def test_reciprocity_sign_trivial_for_q_1_mod_4():
    # with q = 1 mod 4 the sign exponent is even: (A/B) = (B/A)
    q = 5
    for da in (1, 2):
        for A in monic_polys(da, q):
            for db in (1, 2):
                for B in monic_polys(db, q):
                    if degree(gcd(A, B, q)) != 0:
                        continue
                    assert jacobi(A, B, q) == jacobi(B, A, q)


def test_scalar_rule_exhaustive_q5():
    q = 5
    for alpha in range(1, q):
        for dq in range(1, 4):
            for Q in monic_polys(dq, q):
                assert jacobi((alpha,), Q, q) == legendre_scalar(alpha, q) ** dq


def test_chi_pins():
    D = (0, 1, 0, 1)  # x^3 + x
    assert chi(D, (1,), 3) == 1
    assert chi(D, X, 3) == 0
    assert chi(D, X1, 3) == 1


@settings(max_examples=80, deadline=None)
@given(
    nf=st.integers(0, 3),
    ng=st.integers(0, 3),
    fc=st.integers(0, 3**3 - 1),
    gc=st.integers(0, 3**3 - 1),
    dcode=st.integers(0, 3**3 - 1),
)
def test_chi_completely_multiplicative(nf, ng, fc, gc, dcode):
    # the character is defined on monic arguments
    q = 3
    low = poly_of_code(dcode, q)
    D = tuple(list(low) + [0] * (3 - len(low)) + [1])
    f = monic_by_code(fc % q**nf, nf, q)
    g = monic_by_code(gc % q**ng, ng, q)
    assert chi(D, mul(f, g, q), q) == chi(D, f, q) * chi(D, g, q)
