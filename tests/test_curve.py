"""Tests for the point-counting oracle."""

import pytest

from hyperell.curve import (
    count_points,
    count_points_quadratic_recount,
    oracle_matches,
    power_sums,
    zeta_numerator,
)
from hyperell.ensemble import enumerate_ensemble
from hyperell.lfunction import l_polynomial
from support import rh_bound_holds

D0 = (0, 1, 0, 1)  # x^3 + x over F_3


def test_count_points_pin():
    # x=0: y^2=0 one point; x=1: y^2=2 none; x=2: y^2=2+2=1? D(2)=8+2=10=1 two
    # points; plus infinity
    assert count_points(D0, 3, 1) == 4


def test_count_points_lower_bound():
    for D in enumerate_ensemble(3, 1):
        assert count_points(D, 3, 1) >= 1


def test_power_sums_pin():
    ps = power_sums(D0, 3)
    assert ps.counts == (4,)
    assert ps.traces == (4 - 3 - 1,)
    assert rh_bound_holds(ps)


def test_rh_bound_all_small():
    for D in enumerate_ensemble(3, 2):
        assert rh_bound_holds(power_sums(D, 3))


def test_quadratic_recount_consistency():
    for D in enumerate_ensemble(3, 1):
        assert count_points_quadratic_recount(D, 3) == count_points(D, 3, 1)
    for D in list(enumerate_ensemble(5, 1))[:20]:
        assert count_points_quadratic_recount(D, 5) == count_points(D, 5, 1)


def test_zeta_numerator_pin():
    zn = zeta_numerator(D0, 3)
    assert zn.coeffs == (1, 0, 3)
    assert zn.lam == 0


def test_genus_one_first_newton_step():
    for D in enumerate_ensemble(3, 1):
        zn = zeta_numerator(D, 3)
        assert zn.coeffs[1] == count_points(D, 3, 1) - 3 - 1


def test_integer_coefficients_whole_ensemble():
    # Newton recursion divides by k; every step must land on an integer
    for D in enumerate_ensemble(3, 1):
        zn = zeta_numerator(D, 3)
        assert all(isinstance(c, int) for c in zn.coeffs)


@pytest.mark.parametrize("q,g", [(3, 1), (3, 2)])
def test_oracle_matches_exhaustive(q, g):
    for D in enumerate_ensemble(q, g):
        assert oracle_matches(D, q)


def test_oracle_equals_character_sums_directly():
    for D in list(enumerate_ensemble(5, 1))[:30]:
        assert zeta_numerator(D, 5).coeffs == l_polynomial(D, 5).coeffs
