"""Tests for dense polynomial arithmetic and the irreducible sieve."""

import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from hyperell import polyring as pr
from hyperell.polyring import (
    IrreducibleTable,
    degree,
    divmod_,
    euler_phi,
    factorize,
    gcd,
    irreducible_count,
    is_irreducible,
    is_perfect_square,
    mobius,
    monic_by_code,
    monic_polys,
    mul,
    norm,
    normalize,
    radical,
    shared_table,
    squarefree,
)
from support import poly_code, poly_of_code

X = (0, 1)


def product(fs, q):
    out = (1,)
    for f in fs:
        out = mul(out, f, q)
    return out


def coeff_polys(q, max_deg):
    return st.lists(st.integers(0, q - 1), min_size=0, max_size=max_deg + 1).map(
        lambda cs: normalize(cs)
    )


def test_normalize_strips_zeros():
    assert normalize([1, 2, 0, 0]) == (1, 2)
    assert normalize([0, 0, 0]) == ()
    assert degree(()) == -1
    assert degree((0, 0, 1)) == 2


def test_norm():
    assert norm((), 3) == 0
    assert norm((1,), 3) == 1
    assert norm((0, 0, 1), 3) == 9


def test_mul_basic():
    q = 3
    # (x+1)(x+2) = x^2 + 2 over F_3
    assert mul((1, 1), (2, 1), q) == (2, 0, 1)
    assert mul((), (1, 1), q) == ()
    assert product([(1, 1), (1, 1), (2, 1)], q) == mul(mul((1, 1), (1, 1), q), (2, 1), q)


def test_divmod_examples():
    q = 3
    quot, rem = divmod_((2, 0, 1), (1, 1), q)  # x^2+2 = (x+1)(x+2)
    assert quot == (2, 1) and rem == ()
    quot, rem = divmod_((1, 1), (2, 0, 1), q)
    assert quot == () and rem == (1, 1)


@settings(max_examples=200, deadline=None)
@given(f=coeff_polys(5, 6), g=coeff_polys(5, 4))
def test_divmod_invariant(f, g):
    q = 5
    if degree(g) < 0:
        return
    quot, rem = divmod_(f, g, q)
    assert pr.add(mul(quot, g, q), rem, q) == f
    assert degree(rem) < degree(g)


@settings(max_examples=150, deadline=None)
@given(f=coeff_polys(3, 5), g=coeff_polys(3, 5))
def test_gcd_divides_both(f, g):
    q = 3
    d = gcd(f, g, q)
    if degree(d) < 0:
        assert f == () and g == ()
        return
    assert pr.is_monic(d)
    for h in (f, g):
        if degree(h) >= 0:
            assert divmod_(h, d, q)[1] == ()


def test_code_round_trip():
    q = 3
    for code in range(q**3):
        f = poly_of_code(code, q)
        assert poly_code(f, q) == code
    # monic enumeration order: constant coefficient varies fastest
    deg2 = list(monic_polys(2, q))
    assert deg2[0] == (0, 0, 1)
    assert deg2[1] == (1, 0, 1)
    assert deg2[q] == (0, 1, 1)
    assert len(deg2) == q**2
    for i, f in enumerate(deg2):
        assert monic_by_code(i, 2, q) == f


def test_squarefree():
    q = 3
    assert squarefree((0, 1), q)
    assert squarefree((0, 1, 0, 1), q)  # x^3+x = x(x+1)(x+2)
    assert not squarefree(mul((0, 1), (0, 1), q), q)
    assert not squarefree((1, 0, 0, 1), q)  # x^3+1 = (x+1)^3


def test_is_irreducible_small():
    q = 3
    assert is_irreducible((1, 0, 1), q)  # x^2+1
    assert not is_irreducible((2, 0, 1), q)  # x^2+2 = (x+1)(x+2)
    assert is_irreducible((0, 1), q)
    assert not is_irreducible((0, 0, 1), q)


@pytest.mark.parametrize("q", [3, 5])
def test_table_matches_direct_test(q):
    table = IrreducibleTable(q)
    for d in range(1, 5):
        listed = set(table.irreducibles(d))
        for f in monic_polys(d, q):
            assert (f in listed) == is_irreducible(f, q)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_gauss_count_identity(q):
    # sum over d|n of d * (number of degree-d irreducibles) = q^n
    table = shared_table(q)
    for n in range(1, 5):
        total = sum(d * table.count(d) for d in range(1, n + 1) if n % d == 0)
        assert total == q**n
        assert table.count(n) == irreducible_count(q, n)
    assert shared_table(q) is table  # one table per q


def test_cutoff_guard():
    # the cutoff advances only as far as a caller asks, never past it;
    # x^3 - x + 1 and x^3 - x - 1 are irreducible over F_3 (Artin-Schreier)
    P, Q = (1, 2, 0, 1), (2, 2, 0, 1)
    table = IrreducibleTable(3)
    assert table.cutoff == 0
    assert table.factorize(mul(P, Q, 3)) == (1, ((P, 1), (Q, 1)))
    assert table.cutoff == 3
    for d in (1, 2, 3):
        assert table.count(d) == irreducible_count(3, d)
    assert table.cutoff == 3


def test_concurrent_growth_matches_serial():
    serial = IrreducibleTable(3)
    serial.extend(7)
    table = IrreducibleTable(3)
    start = threading.Barrier(4)
    got = {}

    def grow(d):
        start.wait()
        got[d] = table.irreducibles(d)

    workers = [threading.Thread(target=grow, args=(d,)) for d in (4, 7, 5, 6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the builders as much as possible
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join()
    finally:
        sys.setswitchinterval(interval)
    assert table.cutoff == 7
    assert table.by_degree == serial.by_degree
    # each degree is built once, so every caller holds the tuple the table keeps
    assert all(got[d] is table.by_degree[d] for d in got)


def test_factorize_round_trip():
    q = 5
    table = shared_table(q)
    import random

    rng = random.Random(11)
    pool = [P for d in (1, 2, 3) for P in table.irreducibles(d)]
    for _ in range(40):
        parts = rng.sample(pool, rng.randint(1, 3))
        f = product(parts, q)
        unit, factors = factorize(f, q)
        assert unit == 1
        rebuilt = product([P for P, e in factors for _ in range(e)], q)
        assert rebuilt == f
        # sorted by (degree, code)
        keys = [(degree(P), poly_code(P, q)) for P, _ in factors]
        assert keys == sorted(keys)


def test_factorize_with_unit():
    q = 3
    unit, factors = factorize((0, 2), 3)  # 2x
    assert unit == 2
    assert factors == (((0, 1), 1),)


def test_mobius_pins():
    q = 3
    assert mobius(X, q) == -1
    assert mobius(mul(X, (1, 1), q), q) == 1
    assert mobius((0, 0, 1), q) == 0
    assert mobius((1,), q) == 1


def test_euler_phi_pins():
    q = 3
    assert euler_phi((1,), q) == 1
    assert euler_phi((0, 0, 1), q) == 6  # x^2: 9*(1-1/3)
    # direct count: residues mod x^2 coprime to x^2
    direct = sum(
        1
        for code in range(q**2)
        if degree(gcd(poly_of_code(code, q), (0, 0, 1), q)) == 0
    )
    assert direct == 6


@pytest.mark.parametrize("q", [3, 5])
def test_phi_degree_sum_identity(q):
    # sum of phi over monic f of degree n equals q^(2n) (1 - 1/q)
    for n in range(1, 5):
        total = sum(euler_phi(f, q) for f in monic_polys(n, q))
        assert total == q ** (2 * n) - q ** (2 * n - 1)


@pytest.mark.parametrize("q", [3, 5])
def test_mobius_square_counts_squarefree(q):
    for n in range(2, 7):
        total = sum(mobius(f, q) ** 2 for f in monic_polys(n, q))
        assert total == q**n - q ** (n - 1)


def test_radical_and_square():
    q = 3
    f = product([X, X, (1, 1)], q)
    assert radical(f, q) == mul(X, (1, 1), q)
    sq = mul((1, 1), (1, 1), q)
    assert is_perfect_square(sq, q)
    assert not is_perfect_square((2, 1), q)
    assert not is_perfect_square(mul(sq, X, q), q)
    assert is_perfect_square((1,), q)


def test_shared_table_grows():
    t = shared_table(3)
    assert len(t.irreducibles(3)) == irreducible_count(3, 3)
    assert t.cutoff >= 3
    assert shared_table(3) is t  # grown in place, not replaced
