"""Tests for the character-sum L-polynomial and the central-value identity."""

from fractions import Fraction

import numpy as np
import pytest

from hyperell.lfunction import (
    LPolynomial,
    afe_central_value,
    center_value,
    dirichlet_coefficient,
    evaluate_center,
    functional_equation_holds,
    l_polynomial,
    rh_root_check,
    rh_root_deviation,
    scaled_center_coords,
    two_block_weights,
)
from hyperell.ensemble import enumerate_ensemble
from hyperell.polyring import monic_polys, mul
from hyperell.sqrtq import SqrtQRational
from support import poly_of_code

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
    from hyperell.polyring import is_perfect_square, squarefree

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
    assert functional_equation_holds(LPolynomial(3, D0, (1, 0, 3), 0))
    assert not functional_equation_holds(LPolynomial(3, D0, (1, 1, 1), 0))
    assert functional_equation_holds(LPolynomial(3, (0, 1), (1,), 0))


def test_functional_equation_whole_small_ensembles():
    for q, g in ((3, 1), (3, 2)):
        for D in enumerate_ensemble(q, g):
            assert functional_equation_holds(l_polynomial(D, q))


def test_evaluate_center_pins():
    assert evaluate_center(LPolynomial(3, (0, 1), (1,), 0)) == SqrtQRational(1, 0, 3)
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
    ok, dev = rh_root_check(LPolynomial(3, D0, (1, 1, 1), 0))
    assert not ok
    assert rh_root_deviation(LPolynomial(3, (0, 1), (1,), 0)) == 0.0


def test_rh_repeated_root_regression():
    # (5u^2-3u+1)^2 (5u^2+2u+1): double-precision eigenvalues only localize
    # the repeated pair to ~1e-8, the multiprecision fallback must recover it
    L = LPolynomial(5, (0,), (1, -4, 12, -22, 60, -100, 125), 0)
    ok, dev = rh_root_check(L)
    assert ok and dev <= 1e-9


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
