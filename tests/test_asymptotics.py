"""Tests for the ring zeta value, Euler constants, main terms, and the
random-matrix moment formula."""

from fractions import Fraction

import pytest

from hyperell.asymptotics import (
    aggregated_density_identity_holds,
    default_cutoff,
    density_factor,
    euler_constants,
    euler_factor,
    first_moment_main_term,
    log_deriv_numeric,
    mobius_expansion_identity_holds,
    square_block_main_term,
    usp_moment,
    zeta_ring,
)
from hyperell.polyring import monic_polys, mul, shared_table
from support import average_leading_term, main_term_split

X = (0, 1)


def test_zeta_ring_pins():
    assert zeta_ring(3, 2) == Fraction(3, 2)
    assert zeta_ring(5, 2) == Fraction(5, 4)
    assert zeta_ring(3, 0) == Fraction(1, 1 - 3)


def test_zeta_ring_pole():
    with pytest.raises(ValueError):
        zeta_ring(3, 1)


def test_euler_factor_pin():
    assert euler_factor(3, 1) == Fraction(11, 12)
    assert euler_factor(5, 1) == Fraction(29, 30)


def test_default_cutoffs():
    assert default_cutoff(3) == 12
    assert default_cutoff(5) == 10
    assert default_cutoff(7) == 7
    assert default_cutoff(13) == 6


def test_degree_one_block():
    # truncating at degree 1 leaves exactly the three linear factors (11/12)^3,
    # up to the fixed-point representation error
    ec = euler_constants(3, 1)
    assert abs(ec.p_one - Fraction(11, 12) ** 3) < Fraction(1, 2**180)


def test_constants_fields():
    ec = euler_constants(5, 8)
    assert ec.q == 5 and ec.cutoff == 8
    assert ec.zeta_a2 == Fraction(5, 4)
    assert ec.tail_bound == Fraction(2, 8 * 5**8)
    assert 0 < ec.p_one < 1
    assert ec.log_deriv > 0


@pytest.mark.parametrize("q", [3, 5])
def test_cutoff_stability(q):
    # drift of the truncated product is controlled by the recorded tail bound
    for n in range(6, 13):
        a = euler_constants(q, n)
        b = euler_constants(q, n + 1)
        assert abs(a.p_one - b.p_one) <= a.tail_bound
        assert b.tail_bound < a.tail_bound


def test_log_deriv_exact_matches_prime_sum():
    # recompute the exact sum using the sieved irreducible counts instead of
    # the closed-form counts the constants route uses
    q = 3
    expect = Fraction(0)
    for d in range(1, 5):
        expect += len(shared_table(q).irreducibles(d)) * Fraction(d, q**d * (q**d + 1) - 1)
    assert euler_constants(q, 4).log_deriv == expect


@pytest.mark.parametrize("q", [3, 5])
def test_log_deriv_two_path(q):
    # the numeric log-derivative of the truncated product agrees with the
    # exact prime sum within step plus tail error
    n = 8
    ec = euler_constants(q, n)
    numeric = log_deriv_numeric(q, n)
    assert abs(numeric - float(ec.log_deriv)) < 1e-5 + float(ec.tail_bound)


def test_main_term_split_identity():
    # the one-sided blocks with windows g and g-1 recombine exactly
    for q in (3, 5):
        ec = euler_constants(q, 6)
        for g in range(1, 7):
            total = first_moment_main_term(q, g, ec)
            a = square_block_main_term(q, g, ec, g)
            b = square_block_main_term(q, g, ec, g - 1)
            assert total == a + b
            assert main_term_split(q, g, ec)


def test_average_leading_term_relation():
    # per-curve average minus the leading-order prediction is independent of g
    q = 5
    ec = euler_constants(q, 8)
    diffs = []
    for g in (1, 2, 3, 4):
        family_size = (q - 1) * q ** (2 * g)
        avg = first_moment_main_term(q, g, ec) / family_size
        diffs.append(avg - average_leading_term(q, g, ec))
    assert len(set(diffs)) == 1
    assert diffs[0] == Fraction(ec.p_one, 2) * (1 + 4 * ec.log_deriv)


def test_density_factor_pins():
    q = 3
    assert density_factor((1,), q) == 1
    assert density_factor(X, q) == Fraction(3, 4)
    assert density_factor(mul(X, (1, 1), q), q) == Fraction(9, 16)


@pytest.mark.parametrize("q", [3, 5])
def test_mobius_expansion_identity(q):
    for d in range(1, 5):
        for l in monic_polys(d, q):
            assert mobius_expansion_identity_holds(l, q)


@pytest.mark.parametrize("q", [3, 5])
def test_aggregated_density_identity(q):
    for n in (0, 2, 4, 6):
        assert aggregated_density_identity_holds(n, q)


def test_aggregated_density_pin():
    # closed-form cross-check at (q, n) = (3, 2): both sides are 9/4
    lhs = sum((density_factor(l, 3) for l in monic_polys(1, 3)), Fraction(0))
    assert lhs == Fraction(9, 4)


def test_usp_moment_pins():
    assert usp_moment(1, 1) == 2
    assert usp_moment(2, 1) == 3
    assert usp_moment(1, 0) == 1
    assert usp_moment(5, 0) == 1
    assert usp_moment(3, 1) == 4


def test_usp_moment_growth_in_s():
    # moments increase with s at fixed genus
    vals = [usp_moment(2, s) for s in range(4)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(isinstance(v, Fraction) for v in vals)


def test_usp_moment_rejects_bad_s():
    with pytest.raises(ValueError):
        usp_moment(2, -1)
