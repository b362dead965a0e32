"""Tests for the character-sum L-polynomial and the central-value identity."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyperell.lfunction import (
    LPolynomial,
    afe_central_value,
    center_value,
    dirichlet_coefficient,
    evaluate_center,
    functional_equation_holds,
    l_polynomial,
    rh_certified,
    rh_root_check,
    rh_root_deviation,
    scaled_center_coords,
    two_block_weights,
)
from hyperell.ensemble import enumerate_ensemble
from hyperell.polyring import monic_polys, mul, squarefree
from hyperell.sqrtq import SqrtQRational
from support import is_perfect_square, poly_of_code

D0 = (0, 1, 0, 1)  # x^3 + x over F_3


def test_coefficient_pins():
    assert dirichlet_coefficient(D0, 0, 3) == 1
    assert dirichlet_coefficient(D0, 1, 3) == 0
    assert dirichlet_coefficient(D0, 2, 3) == 3


def test_coefficient_vanishes_at_degree():
    for D in enumerate_ensemble(3, 1):
        assert dirichlet_coefficient(D, 3, 3) == 0
        assert dirichlet_coefficient(D, 4, 3) == 0


def test_l_polynomial_pin():
    L = l_polynomial(D0, 3)
    assert L.coeffs == (1, 0, 3)
    assert L.lam == 0
    assert L.delta == 1
    assert L.q == 3


def test_l_polynomial_degree_one():
    L = l_polynomial((0, 1), 3)
    assert L.coeffs == (1,)
    assert evaluate_center(L) == SqrtQRational(1, 0, 3)


def test_leading_coefficient_is_q_to_g():
    for D in enumerate_ensemble(3, 1):
        L = l_polynomial(D, 3)
        assert L.coeffs[0] == 1
        assert L.coeffs[-1] == 3


def test_perfect_square_rejected():
    sq = mul((1, 1), (1, 1), 3)
    with pytest.raises(ValueError):
        l_polynomial(sq, 3)


def test_non_squarefree_rejected():
    D = mul(mul((0, 1), (0, 1), 3), (1, 1), 3)  # x^2 (x+1)
    with pytest.raises(ValueError):
        l_polynomial(D, 3)


def test_even_degree_divides_out_trivial_zero():
    # x^2 + x = x(x+1), square-free, even degree: lambda = 1 and the
    # completed polynomial has degree deg D - 2
    L = l_polynomial((0, 1, 1), 3)
    assert L.lam == 1
    assert L.coeffs == (1,)


def test_even_degree_larger_case():
    # first square-free non-square monic quartic over F_5 in code order
    q = 5
    from hyperell.polyring import squarefree
    from support import is_perfect_square

    found = None
    for low in range(q**4):
        lowp = poly_of_code(low, q)
        D = tuple(list(lowp) + [0] * (4 - len(lowp)) + [1])
        if squarefree(D, q) and not is_perfect_square(D, q):
            found = D
            break
    L = l_polynomial(found, q)
    assert L.lam == 1
    assert len(L.coeffs) == 3  # degree deg(D) - 2 = 2
    assert functional_equation_holds(L)


def test_functional_equation_pins():
    assert functional_equation_holds(LPolynomial(3, (1, 0, 3), 0))
    assert not functional_equation_holds(LPolynomial(3, (1, 1, 1), 0))
    assert functional_equation_holds(LPolynomial(3, (1,), 0))


def test_functional_equation_whole_small_ensembles():
    for q, g in ((3, 1), (3, 2)):
        for D in enumerate_ensemble(q, g):
            assert functional_equation_holds(l_polynomial(D, q))


def test_evaluate_center_pins():
    assert evaluate_center(LPolynomial(3, (1,), 0)) == SqrtQRational(1, 0, 3)
    assert evaluate_center(l_polynomial(D0, 3)) == SqrtQRational(2, 0, 3)


def test_two_block_identity_pin():
    assert afe_central_value(D0, 3) == SqrtQRational(2, 0, 3)


@pytest.mark.parametrize("q,g", [(3, 1), (3, 2)])
def test_two_block_equals_center_exhaustive(q, g):
    for D in enumerate_ensemble(q, g):
        assert afe_central_value(D, q) == evaluate_center(l_polynomial(D, q))


def test_rh_pins():
    ok, dev = rh_root_check(l_polynomial(D0, 3))
    assert ok and dev <= 1e-9
    ok, dev = rh_root_check(LPolynomial(3, (1, 1, 1), 0))
    assert not ok
    assert rh_root_deviation(LPolynomial(3, (1,), 0)) == 0.0


def test_rh_repeated_root_regression():
    # (5u^2-3u+1)^2 (5u^2+2u+1): double-precision eigenvalues only localize
    # the repeated pair to ~1e-8, the exact certificate must pass it
    L = LPolynomial(5, (1, -4, 12, -22, 60, -100, 125), 0)
    ok, dev = rh_root_check(L)
    assert ok and dev <= 1e-9


def symmetric_row(low, q):
    """The coefficient row a_0..a_2delta with a_0..a_delta = low and the functional equation."""
    d = len(low) - 1
    return tuple(low) + tuple(low[2 * d - n] * q ** (n - d) for n in range(d + 1, 2 * d + 1))


def row_of_h(h, q):
    """The symmetric row whose T^delta h(T + q/T) is the reversed L-polynomial; h monic, constant first."""
    d = len(h) - 1
    basis = [[2], [0, 1]]  # D_k(T + q/T) = T^k + q^k T^(-k)
    while len(basis) <= d:
        nxt = [0] + basis[-1]
        for i, c in enumerate(basis[-2]):
            nxt[i] -= q * c
        basis.append(nxt)
    h = list(h)
    low = [0] * (d + 1)
    for k in range(d, 0, -1):  # peel off b_k D_k from the top
        low[d - k] = h[k]
        for i, c in enumerate(basis[k]):
            h[i] -= low[d - k] * c
    low[d] = h[0]
    return symmetric_row(low, q)


def poly_product(factors):
    out = [1]
    for f in factors:
        nxt = [0] * (len(out) + len(f) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(f):
                nxt[i + j] += x * y
        out = nxt
    return out


@st.composite
def symmetric_rows(draw):
    """(q, row): rows that satisfy the functional equation at q in {3, 5, 7}, delta <= 4.

    Half are drawn from the box |a_n| <= C(2 delta, n) q^(n/2) that the
    Riemann hypothesis forces; half are built from h as a product of factors
    x - t and x^2 - s, repeats allowed, with roots on both sides of 2 sqrt q.
    """
    q = draw(st.sampled_from([3, 5, 7]))
    d = draw(st.integers(1, 4))
    if draw(st.booleans()):
        low = [1] + [
            draw(st.integers(-(b := math.comb(2 * d, n) * math.isqrt(q**n)), b))
            for n in range(1, d + 1)
        ]
        return q, symmetric_row(low, q)
    reach = math.isqrt(4 * q) + 1
    factors = []
    while sum(len(f) - 1 for f in factors) < d:
        if d - sum(len(f) - 1 for f in factors) >= 2 and draw(st.booleans()):
            f = [-draw(st.integers(-2, 4 * q + 2)), 0, 1]
        else:
            f = [-draw(st.integers(-reach, reach)), 1]
        factors.append(f)
        if draw(st.booleans()) and sum(len(f) - 1 for f in factors) + len(f) - 1 <= d:
            factors.append(f)  # a repeated root
    return q, row_of_h(poly_product(factors), q)


@settings(max_examples=400, deadline=None)
@given(case=symmetric_rows())
def test_rh_certificate_agrees_with_float_roots(case):
    q, row = case
    L = LPolynomial(q, row, 0)
    dev = rh_root_deviation(L)
    if dev < 1e-6 or dev > 1e-3:  # away from the float tolerance
        assert rh_certified(L) == (dev < 1e-6), (q, row, dev)


def test_rh_certificate_negative_controls():
    # both satisfy the functional equation; their roots sit at |u| = 1 and 1/3
    assert not rh_certified(LPolynomial(3, (1, 4, 3), 0))
    assert not rh_certified(LPolynomial(3, (1, -4, 3), 0))
    # roots on the circle, but a_0 q != a_2: only the functional equation fails it
    assert not rh_certified(LPolynomial(3, (1, 1, 1), 0))
    # x^2 - 12 twice: a double root of h at 2 sqrt 3, on the edge of the interval
    assert rh_certified(LPolynomial(3, row_of_h(poly_product([[-12, 0, 1]] * 2), 3), 0))
    assert not rh_certified(LPolynomial(3, row_of_h([-13, 0, 1], 3), 0))


def test_rh_certificate_even_degree():
    # lam = 1: the trivial zero at u = 1 is divided out and the rest certifies
    q = 3
    checked = 0
    for n in (2, 4, 6):
        for D in monic_polys(n, q):
            if squarefree(D, q) and not is_perfect_square(D, q):
                L = l_polynomial(D, q)
                assert L.lam == 1
                assert rh_certified(L), D
                checked += 1
    assert checked == sum(q**n - q ** (n - 1) for n in (2, 4, 6))  # square-free monic D


def test_coefficient_window_matches_polynomial():
    for D in enumerate_ensemble(3, 2):
        L = l_polynomial(D, 3)
        for n in range(5):
            assert L.coeffs[n] == dirichlet_coefficient(D, n, 3)


def test_center_value_matches_powers_of_the_center():
    q = 5
    u = SqrtQRational(0, Fraction(1, q), q)  # q^(-1/2), by field multiplication
    values = [3, -1, 4, 1, -5, 9]
    for weights in (None, (2, 2, 2, 2, 2, 1)):
        expected = SqrtQRational.zero(q)
        power = SqrtQRational(1, 0, q)
        for n, v in enumerate(values):
            expected = expected + power.scale(v * (1 if weights is None else weights[n]))
            power = power * u
        assert center_value(values, q, weights) == expected
    assert two_block_weights(5) == (2, 2, 2, 2, 2, 1)
    assert two_block_weights(1) == (2, 1)


def test_scaled_center_coords_do_not_wrap_int64():
    # 10^12 * 7^12 is past 2^63: the coordinates must come out as exact ints
    q, g = 7, 12
    a = np.full((2 * g + 1, 3), 10**12, dtype=np.int64)
    rat, irr = scaled_center_coords(a, q, g)
    want_rat = sum(10**12 * q ** (g - n // 2) for n in range(0, 2 * g + 1, 2))
    want_irr = sum(10**12 * q ** (g - (n + 1) // 2) for n in range(1, 2 * g + 1, 2))
    assert list(rat) == [want_rat] * 3
    assert list(irr) == [want_irr] * 3
