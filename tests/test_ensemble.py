"""Tests for ensemble enumeration, moments, the sieve identity, and bounds."""

from fractions import Fraction

import pytest

from hyperell.asymptotics import euler_constants
from hyperell.characters import jacobi
from hyperell.ensemble import (
    EnsembleSpec,
    MomentAccumulator,
    char_sum_over_ensemble,
    coprime_monic_count,
    central_value_square_split,
    ensemble_char_sum_bound_holds,
    enumerate_ensemble,
    expected_value,
    expected_value_sieved,
    first_moment,
    fixed_degree_bound_holds,
    fixed_degree_char_sum,
)
from hyperell.extfield import ExtField
from hyperell.field import check_odd_prime
from hyperell.lfunction import afe_central_value, dirichlet_coefficient, l_polynomial
from hyperell.polyring import IrreducibleTable, mul, shared_table, squarefree
from hyperell.scan import moment_scan
from hyperell.sqrtq import SqrtQRational
from support import coefficient_vanishes_at

X = (0, 1)


def test_family_sizes():
    assert EnsembleSpec(3, 1).size == 18
    assert EnsembleSpec(5, 1).size == 100
    assert EnsembleSpec(3, 2).size == 162
    assert EnsembleSpec(5, 3).size == 62500


def test_ensemble_spec_rejects_bad_input():
    with pytest.raises(ValueError):
        EnsembleSpec(4, 1)
    with pytest.raises(ValueError):
        EnsembleSpec(3, 0)


def test_non_prime_q_rejected_at_library_boundary():
    # 9 is odd and >= 3, so only a primality test catches it
    with pytest.raises(ValueError):
        check_odd_prime(9)
    with pytest.raises(ValueError):
        ExtField(9, 1)
    with pytest.raises(ValueError):
        EnsembleSpec(9, 1)
    with pytest.raises(ValueError):
        SqrtQRational(1, 0, 9)
    with pytest.raises(ValueError):
        moment_scan(9, 1)
    with pytest.raises(ValueError):
        IrreducibleTable(9)
    with pytest.raises(ValueError):
        shared_table(4)
    for q in (0, 9):  # q = 0 must fail before a default cutoff is looked for
        with pytest.raises(ValueError):
            euler_constants(q)
    with pytest.raises(ValueError):
        euler_constants(1, 3)
    # l_polynomial, dirichlet_coefficient and afe_central_value reach the check through jacobi
    with pytest.raises(ValueError):
        jacobi((0, 1), (1, 0, 1), 9)
    with pytest.raises(ValueError):
        l_polynomial((0, 1, 0, 1), 9)
    with pytest.raises(ValueError):
        dirichlet_coefficient((0, 1, 0, 1), 1, 9)
    with pytest.raises(ValueError):
        afe_central_value((0, 1, 0, 1), 9)


@pytest.mark.parametrize("q,g", [(3, 1), (3, 2), (5, 1)])
def test_enumeration_count_and_squarefree(q, g):
    seen = list(enumerate_ensemble(q, g))
    assert len(seen) == EnsembleSpec(q, g).size
    assert len(set(seen)) == len(seen)
    for D in seen:
        assert len(D) == 2 * g + 2 and D[-1] == 1
        assert squarefree(D, q)


def test_expected_value_of_constant():
    one = SqrtQRational(1, 0, 3)
    assert expected_value(lambda D: one, 3, 1) == one


def test_expected_central_value_pin():
    # family average of the central value at genus 1 is exactly 2
    mean = expected_value(lambda D: afe_central_value(D, 3), 3, 1)
    assert mean == SqrtQRational(2, 0, 3)


def test_first_moment_pin_and_split():
    acc = first_moment(3, 1)
    assert acc.count == 18
    assert acc.total == SqrtQRational(36, 0, 3)
    assert acc.square_part == SqrtQRational(36, 0, 3)
    assert acc.nonsquare_part == SqrtQRational(0, 0, 3)
    assert acc.consistent()


def test_first_moment_genus_two():
    acc = first_moment(3, 2)
    assert acc.total == SqrtQRational(448, 0, 3)
    assert acc.total == acc.square_part + acc.nonsquare_part
    # independent route: plain expected value times the family size
    mean = expected_value(lambda D: afe_central_value(D, 3), 3, 2)
    assert mean.scale(Fraction(acc.count)) == acc.total


def test_accumulator_merge():
    a = first_moment(3, 1)
    z = MomentAccumulator.empty(3)
    assert z + a == a
    both = a + a
    assert both.count == 2 * a.count
    assert both.total == a.total + a.total


def test_square_split_per_curve():
    # each curve's center splits into square-f and non-square-f sums
    for D in list(enumerate_ensemble(3, 2))[:40]:
        square, total = central_value_square_split(D, 3)
        assert total == afe_central_value(D, 3)
        assert square.b == 0  # squares contribute only even degrees


@pytest.mark.parametrize("q,g", [(3, 1), (3, 2)])
def test_sieve_identity_on_central_value(q, g):
    direct = expected_value(lambda D: afe_central_value(D, q), q, g)
    sieved = expected_value_sieved(lambda D: afe_central_value(D, q), q, g)
    assert direct == sieved


def test_sieve_identity_on_count():
    # F = 1 recovers the ensemble count identity
    one = SqrtQRational(1, 0, 3)
    assert expected_value_sieved(lambda D: one, 3, 2) == one


def test_coprime_count_pins():
    assert coprime_monic_count(2, X, 3) == 6
    assert coprime_monic_count(3, (1,), 3) == 27
    assert coprime_monic_count(3, mul(X, (1, 1), 3), 3) == 12
    # exact also between deg rad(l) and deg l: l = x^2, d = 1
    assert coprime_monic_count(1, (0, 0, 1), 3) == 2


def test_coprime_count_direct_cross_check():
    from hyperell.polyring import degree, gcd, monic_polys

    q = 3
    for l in [X, (1, 1), mul(X, (1, 1), q), (0, 0, 1)]:
        for d in (2, 3):
            direct = sum(
                1 for D in monic_polys(d, q) if degree(gcd(D, l, q)) == 0
            )
            assert coprime_monic_count(d, l, q) == direct


def test_coprime_count_precondition():
    # d below deg rad(l): the closed form does not hold and must be refused
    l = mul(mul(X, (1, 1), 3), (2, 1), 3)  # three distinct linear factors
    with pytest.raises(ValueError):
        coprime_monic_count(1, l, 3)


def test_ensemble_char_sum_pin():
    assert char_sum_over_ensemble(X, 3, 1) == 0


def test_ensemble_char_sum_bound_q3():
    holds, s = ensemble_char_sum_bound_holds(X, 3, 1)
    assert holds and s == 0


def test_ensemble_char_sum_bound_exhaustive_q5():
    from hyperell.polyring import is_perfect_square, monic_polys

    q = 5
    for deg_f in (1, 2):
        for f in monic_polys(deg_f, q):
            if is_perfect_square(f, q):
                continue
            holds, _ = ensemble_char_sum_bound_holds(f, q, 1)
            assert holds


def test_square_f_excluded_from_bound():
    sq = mul(X, X, 3)
    with pytest.raises(ValueError):
        ensemble_char_sum_bound_holds(sq, 3, 1)


def test_fixed_degree_char_sum_vanishes_past_degree():
    q = 3
    f = (1, 0, 1)  # x^2+1 irreducible, certainly non-square
    for n in (2, 3, 4):
        assert fixed_degree_char_sum(f, n, q) == 0


def test_fixed_degree_bound_small():
    from hyperell.polyring import is_perfect_square, monic_polys

    q = 3
    for deg_f in (1, 2, 3):
        for f in monic_polys(deg_f, q):
            if is_perfect_square(f, q):
                continue
            for n in range(deg_f):
                holds, _ = fixed_degree_bound_holds(f, n, q)
                assert holds


def test_coefficient_vanishes_at_degree():
    for D in enumerate_ensemble(3, 1):
        assert coefficient_vanishes_at(D, 3)


def test_prop4_magnitude_generous_bound():
    # reported, and asserted only with a deliberately generous constant
    for q, g in ((3, 1), (3, 2), (5, 1)):
        acc = first_moment(q, g)
        mag = abs(float(acc.nonsquare_part))
        assert mag <= 10 * 2**g * q ** (1.5 * g + 0.75)
