"""Tests for extension-field arithmetic F_{q^n}."""

import random

import pytest

from hyperell import polyring
from hyperell.curve import count_points, zeta_numerator
from hyperell.ensemble import enumerate_ensemble
from hyperell.extfield import ExtField, find_irreducible, get_field
from hyperell.field import legendre_scalar
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
    t = (0, 1)
    assert F9.mul(t, t) == (2,)  # t^2 = -1 = 2


def test_f9_squares():
    # every nonzero base element becomes a square in F_9; t itself is one too:
    # t^((9-1)/2) = (t^2)^2 = (-1)^2 = 1
    F9 = get_field(3, 2)
    assert F9.is_square((2,)) == 1
    assert F9.is_square((0, 1)) == 1
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
    for a in [(), (1,), (2,)]:
        assert F.frobenius(a) == a
    # frobenius is the q-power map
    for e in list(F.elements())[:12]:
        assert F.frobenius(e) == F.pow_(e, 3)


def test_eval_poly():
    # evaluate x^3 + x at t in F_9
    F9 = get_field(3, 2)
    t = (0, 1)
    v = F9.eval_poly((0, 1, 0, 1), t)
    # t^3 + t = t*(t^2 + 1) = t*(2+1) = 0
    assert v == F9.zero


def test_embed_matches_scalar_arithmetic():
    F = get_field(5, 2)

    def embed(a):  # F_5 inside F_25, as reduced tuples
        return (a,) if a else ()

    for a in range(5):
        for b in range(5):
            assert F.add(embed(a), embed(b)) == embed((a + b) % 5)
            assert F.mul(embed(a), embed(b)) == embed((a * b) % 5)


@pytest.mark.parametrize("q,n", [(3, 2), (3, 3), (5, 2), (7, 2), (3, 1), (5, 1), (7, 1), (13, 1)])
def test_squares_table(q, n):
    # the table behind is_square: half the units, a character, and on the
    # prime field the Legendre symbol
    F = get_field(q, n)
    units = [e for e in F.elements() if e]
    assert sum(F.is_square(e) == 1 for e in units) == (q**n - 1) // 2
    for a in units[:12]:
        for b in units:
            assert F.is_square(F.mul(a, b)) == F.is_square(a) * F.is_square(b)
    if n == 1:
        for a in range(q):
            assert F.is_square((a,) if a else ()) == legendre_scalar(a, q)


def horner(F, f, x):
    """The reference evaluation: Horner's rule, one `mul_mod` per digit of f."""
    acc = F.zero
    for c in reversed(f):
        acc = polyring.add(polyring.mul_mod(acc, x, F.modulus, F.q), (c,), F.q)
    return acc


@pytest.mark.parametrize("q,n", [(3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (7, 1), (7, 2)])
def test_eval_poly_matches_horner(q, n):
    # a fresh field, so the power cache starts empty and grows with deg D
    F = ExtField(q, n)
    rng = random.Random(q * 10 + n)
    for deg in (0, 3, 1, 9, 5, 12):
        D = tuple(rng.randrange(q) for _ in range(deg)) + (rng.randrange(1, q),)
        for x in F.elements():
            assert F.eval_poly(D, x) == horner(F, D, x), (D, x)


def test_cached_powers_need_no_multiplication(monkeypatch):
    F = ExtField(3, 3)
    D = (1, 2, 0, 1, 1, 2, 0, 1)
    first = [F.eval_poly(D, x) for x in F.elements()]
    short = [horner(F, D[:3], x) for x in F.elements()]
    calls = []
    mul_mod = polyring.mul_mod
    monkeypatch.setattr(polyring, "mul_mod", lambda *a: calls.append(a) or mul_mod(*a))
    assert [F.eval_poly(D, x) for x in F.elements()] == first
    assert [F.eval_poly(D[:3], x) for x in F.elements()] == short
    assert calls == []
    F.eval_poly(D + (1,), F.one)  # one power past the cache: one product
    assert len(calls) == 1


@pytest.mark.parametrize("q,n", [(3, 1), (3, 2), (3, 3), (5, 2)])
def test_power_cache_is_bounded_by_the_field(q, n):
    F = ExtField(q, n)
    for D in list(enumerate_ensemble(q, 2))[:60]:
        sum(1 + F.is_square(F.eval_poly(D, x)) for x in F.elements())
    assert 0 < len(F._powers) <= q**n
    assert all(len(p) == 6 for p in F._powers.values())  # deg D = 5: x^0..x^5


def test_point_counts_unchanged():
    # N_n from Horner's evaluation, against count_points, on the genus-2 family at q=3
    for D in list(enumerate_ensemble(3, 2))[:40]:
        for n in (1, 2, 3):
            F = get_field(3, n)
            direct = 1 + sum(1 + F.is_square(horner(F, D, x)) for x in F.elements())
            assert count_points(D, 3, n) == direct
    assert zeta_numerator((0, 1, 0, 1), 3).coeffs == (1, 0, 3)


@pytest.mark.parametrize("a", [(4,), (1, 0), (-2,), (0, 0, 1)])
def test_non_canonical_elements_are_refused(a):
    # each of the first three is 1 in F_9, a square; (0, 0, 1) = t^2 has degree >= n
    F9 = get_field(3, 2)
    with pytest.raises(ValueError, match=r"an element of F_3\^2"):
        F9.is_square(a)
    with pytest.raises(ValueError, match=r"an element of F_3\^2"):
        F9.eval_poly((1, 1), a)
    assert a not in F9._powers
