"""Tests for extension-field arithmetic F_{q^n}."""

import pytest

from hyperell.extfield import find_irreducible, get_field
from hyperell.polyring import is_irreducible


def test_find_irreducible_pins():
    assert find_irreducible(3, 2) == (1, 0, 1)  # x^2 + 1
    assert find_irreducible(5, 2) == (2, 0, 1)  # x^2 + 2
    assert find_irreducible(3, 1) == (0, 1)


@pytest.mark.parametrize("q,n", [(3, 2), (3, 3), (5, 2), (7, 2)])
def test_find_irreducible_is_irreducible(q, n):
    m = find_irreducible(q, n)
    assert len(m) == n + 1
    assert is_irreducible(m, q)


def test_f9_t_squared():
    F9 = get_field(3, 2)
    t = F9.element((0, 1))
    assert F9.mul(t, t) == F9.embed(2)  # t^2 = -1 = 2


def test_f9_squares():
    # every nonzero base element becomes a square in F_9; t itself is one too:
    # t^((9-1)/2) = (t^2)^2 = (-1)^2 = 1
    F9 = get_field(3, 2)
    assert F9.is_square(F9.embed(2)) == 1
    assert F9.is_square(F9.element((0, 1))) == 1
    assert F9.is_square(F9.zero) == 0
    squares = {F9.mul(e, e) for e in F9.elements() if e != F9.zero}
    for e in F9.elements():
        if e == F9.zero:
            continue
        assert F9.is_square(e) == (1 if e in squares else -1)


@pytest.mark.parametrize("q,n", [(3, 2), (3, 3), (5, 2)])
def test_element_count_and_group(q, n):
    F = get_field(q, n)
    elems = list(F.elements())
    assert len(elems) == q**n
    one = F.one
    # multiplicative order divides q^n - 1
    for e in elems[:10]:
        if e == F.zero:
            continue
        assert F.pow_(e, q**n - 1) == one


@pytest.mark.parametrize("q,n", [(3, 2), (3, 3), (5, 2)])
def test_inverse(q, n):
    # the modulus is irreducible, so every unit has the inverse e^(q^n - 2)
    F = get_field(q, n)
    for e in F.elements():
        if e == F.zero:
            continue
        assert F.mul(e, F.pow_(e, F.order - 2)) == F.one


def test_negative_exponent_refused():
    # there is no inverse to take; square-and-multiply would never finish
    F = get_field(3, 2)
    with pytest.raises(ValueError):
        F.pow_(F.one, -1)


def test_frobenius_fixes_base_field():
    F = get_field(3, 3)
    for a in range(3):
        assert F.frobenius(F.embed(a)) == F.embed(a)
    # frobenius is the q-power map
    for e in list(F.elements())[:12]:
        assert F.frobenius(e) == F.pow_(e, 3)


def test_eval_poly():
    # evaluate x^3 + x at t in F_9
    F9 = get_field(3, 2)
    t = F9.element((0, 1))
    v = F9.eval_poly((0, 1, 0, 1), t)
    # t^3 + t = t*(t^2 + 1) = t*(2+1) = 0
    assert v == F9.zero


def test_embed_matches_scalar_arithmetic():
    F = get_field(5, 2)
    for a in range(5):
        for b in range(5):
            assert F.add(F.embed(a), F.embed(b)) == F.embed((a + b) % 5)
            assert F.mul(F.embed(a), F.embed(b)) == F.embed((a * b) % 5)
