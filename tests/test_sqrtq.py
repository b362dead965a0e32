"""Tests for exact a + b*sqrt(q) arithmetic."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hyperell.sqrtq import SqrtQRational

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)


def test_construction_coerces():
    v = SqrtQRational(1, 2, 3)
    assert v.a == Fraction(1) and v.b == Fraction(2)
    assert SqrtQRational(5, 0, 3).a == Fraction(5)
    assert SqrtQRational.zero(3) == SqrtQRational(0, 0, 3)
    with pytest.raises(TypeError):
        SqrtQRational(0.5, 0, 3)


def test_add_sub():
    x = SqrtQRational(Fraction(1, 2), Fraction(1, 3), 5)
    y = SqrtQRational(Fraction(1, 2), Fraction(-1, 3), 5)
    assert (x + y) == SqrtQRational(1, 0, 5)
    assert (x - x) == SqrtQRational.zero(5)


def test_mul_cross_terms():
    # (1 + sqrt5)(2 + 3 sqrt5) = 2 + 3 sqrt5 + 2 sqrt5 + 15 = 17 + 5 sqrt5
    x = SqrtQRational(1, 1, 5)
    y = SqrtQRational(2, 3, 5)
    assert x * y == SqrtQRational(17, 5, 5)


def test_scalar_ops():
    # scale is the one product with a rational
    x = SqrtQRational(1, 2, 3)
    assert x.scale(2) == SqrtQRational(2, 4, 3)
    assert x.scale(Fraction(1, 2)) == SqrtQRational(Fraction(1, 2), 1, 3)
    assert x.scale(-1) == SqrtQRational(-1, -2, 3)
    with pytest.raises(TypeError):
        2 * x


def test_float_value():
    x = SqrtQRational(1, 1, 5)
    assert abs(float(x) - (1 + 5**0.5)) < 1e-12
    y = SqrtQRational(2, 0, 3)
    assert float(y) == 2.0


def test_mixed_q_rejected():
    with pytest.raises(ValueError):
        SqrtQRational(1, 0, 3) + SqrtQRational(1, 0, 5)
    with pytest.raises(ValueError):
        SqrtQRational(1, 0, 3) * SqrtQRational(1, 0, 5)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_plain_number_operand_is_type_error(op):
    # scale is the one product with a number; the operators take only values
    x = SqrtQRational(1, 2, 3)
    with pytest.raises(TypeError):
        op(x, 1)
    with pytest.raises(TypeError):
        op(1, x)


def test_str():
    assert str(SqrtQRational(2, 0, 3)) == "2 + 0*sqrt(3)"


@settings(max_examples=100, deadline=None)
@given(a1=rationals, b1=rationals, a2=rationals, b2=rationals, a3=rationals, b3=rationals)
def test_ring_axioms(a1, b1, a2, b2, a3, b3):
    q = 5
    x = SqrtQRational(a1, b1, q)
    y = SqrtQRational(a2, b2, q)
    z = SqrtQRational(a3, b3, q)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@settings(max_examples=60, deadline=None)
@given(a=rationals, b=rationals)
def test_float_consistent_with_exact(a, b):
    q = 7
    x = SqrtQRational(a, b, q)
    expect = float(a) + float(b) * q**0.5
    assert abs(float(x) - expect) < 1e-9 * (1 + abs(expect))
