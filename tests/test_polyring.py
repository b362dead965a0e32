"""Tests for dense polynomial arithmetic and the irreducible sieve."""

import random
import sys
import threading
import time
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyperell import polyring as pr
from hyperell import scan
from hyperell.polyring import (
    IrreducibleTable,
    ResourceCapError,
    degree,
    divmod_,
    euler_phi,
    factorize,
    gcd,
    irreducible_count,
    is_irreducible,
    is_perfect_square,
    mobius,
    monic,
    monic_by_code,
    monic_polys,
    mul,
    norm,
    normalize,
    radical,
    rem,
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


@settings(max_examples=300, deadline=None)
@given(data=st.data(), q=st.sampled_from([3, 5, 7, 11]))
def test_divmod_invariant(data, q):
    # f = Q g + R with deg R < deg g, by mul and add alone: the division kernel's oracle
    f = data.draw(coeff_polys(q, 11))
    g = data.draw(coeff_polys(q, 6).filter(bool))
    quot, r = divmod_(f, g, q)
    assert pr.add(mul(quot, g, q), r, q) == f
    assert degree(r) < degree(g)
    assert rem(f, g, q) == r


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


@pytest.mark.parametrize("q", [3, 5])
def test_division_by_zero_polynomial(q):
    for f in ((), (1,), (1, 2, 1)):
        with pytest.raises(ZeroDivisionError):
            rem(f, (), q)
        with pytest.raises(ZeroDivisionError):
            divmod_(f, (), q)


def test_first_operand_is_reduced_mod_q():
    # dividends and gcd operands are reduced mod q and stripped, as rem's dividend is
    assert divmod_((5,), (1, 1), 3) == ((), (2,))
    assert gcd((1, 0), (), 3) == (1,)
    assert gcd((1, 2, 1), (4, 1), 3) == (1, 1)


@lru_cache(maxsize=None)
def monic_divisors(q, max_deg):
    """Each monic product of degree <= max_deg, mapped to the set of its monic divisors, by mul."""
    polys = [f for n in range(max_deg + 1) for f in monic_polys(n, q)]
    divisors = {}
    for a in polys:
        for b in polys:
            if degree(a) + degree(b) <= max_deg:
                divisors.setdefault(mul(a, b, q), set()).update((a, b))
    return divisors


@pytest.mark.parametrize("q,max_deg", [(3, 5), (5, 4)])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_gcd_is_the_largest_common_divisor(q, max_deg, data):
    # the reference enumerates divisors as products, with no division at all;
    # f and g share a drawn factor c, so most pairs have a gcd past 1
    c = data.draw(coeff_polys(q, 2).filter(bool))
    f, g = (mul(data.draw(coeff_polys(q, max_deg - degree(c))), c, q) for _ in "fg")
    if not f or not g:
        expected = pr.monic(f or g, q)
    else:
        divisors = monic_divisors(q, max_deg)
        common = divisors[pr.monic(f, q)] & divisors[pr.monic(g, q)]
        expected = max(common, key=degree)
    assert gcd(f, g, q) == expected


@pytest.mark.parametrize("q,max_deg", [(3, 6), (5, 4)])
def test_squarefree_matches_factorization(q, max_deg):
    # exhaustive: square-free iff no prime divides twice
    for n in range(max_deg + 1):
        for f in monic_polys(n, q):
            assert squarefree(f, q) == all(e == 1 for _, e in factorize(f, q)[1]), f


def euclid_steps(f, g, q):
    """Divisions of Euclid's algorithm on (f, g) down to a remainder of degree <= 0."""
    steps = 0
    while degree(g) > 0:
        f, g = g, rem(f, g, q)
        steps += 1
    return steps


@pytest.mark.parametrize("q,n,count", [(3, 7, 400), (5, 11, 400), (7, 6, 200)])
def test_squarefree_divides_only_down_to_a_constant_remainder(monkeypatch, q, n, count):
    # gcd(f, f') stops at the first remainder of degree <= 0, with no
    # division by a constant and no monic of one
    rng = random.Random(q * 1000 + n)
    fs = [monic_by_code(rng.randrange(q**n), n, q) for _ in range(count)]
    fs += [mul((0, 1), mul((0, 1), (1, 1), q), q), (1, 0, 1)]  # x^2 (x+1) and x^2+1
    expected = [euclid_steps(f, pr.derivative(f, q), q) for f in fs]
    answers = [squarefree(f, q) for f in fs]
    calls = []
    kernel = pr._reduce
    monkeypatch.setattr(pr, "_reduce", lambda *a: calls.append(1) or kernel(*a))
    for f, steps, answer in zip(fs, expected, answers):
        calls.clear()
        assert squarefree(f, q) == answer, f
        assert len(calls) == steps, f
    assert max(expected) >= n - 2 and min(expected) <= 1


def test_gcd_stops_at_a_constant_remainder():
    assert gcd((1, 0, 1), (0, 1), 3) == (1,)  # x^2+1 mod x = 1
    assert gcd((0, 2, 1), (4,), 3) == (1,)  # a nonzero constant divisor, reduced mod q
    assert gcd((), (2,), 3) == (1,)
    assert gcd((), (4, 2), 3) == (2, 1)  # gcd(0, g) = monic(g mod q)
    with pytest.raises(ValueError, match="leading coefficient 0"):
        gcd((1, 1), (3,), 3)


def test_divisor_with_zero_leading_coefficient_is_refused():
    # (1, 0) is the constant 1 with a trailing zero: its leading coefficient is no unit
    for call in (rem, divmod_, gcd):
        with pytest.raises(ValueError, match="leading coefficient 0"):
            call((1, 2, 1), (1, 0), 3)
    with pytest.raises(ValueError, match="leading coefficient 0"):
        rem((1, 2, 1), (1, 3), 3)  # 3 = 0 mod 3


@pytest.mark.parametrize("call", [squarefree, factorize])
@pytest.mark.parametrize("f", [(1, 0), (0, 1, 0), (5, 1), (1, -1, 1), (3,)])
def test_non_canonical_polynomials_are_refused(call, f):
    with pytest.raises(ValueError, match=r"digits in \[0, 3\)"):
        call(f, 3)


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
        total = sum(d * len(table.irreducibles(d)) for d in range(1, n + 1) if n % d == 0)
        assert total == q**n
        assert len(table.irreducibles(n)) == irreducible_count(q, n)
    assert shared_table(q) is table  # one table per q


@pytest.mark.parametrize("q,max_deg", [(3, 6), (5, 6), (7, 4)])
def test_sieved_tables_pass_rabin(q, max_deg):
    table = IrreducibleTable(q)
    for d in range(1, max_deg + 1):
        assert all(is_irreducible(P, q) for P in table.irreducibles(d))


@pytest.mark.parametrize("q,max_deg", [(3, 10), (5, 8)])
def test_sieved_counts_match_gauss(q, max_deg):
    # with every entry irreducible (Rabin above), the right count makes a degree complete
    table = IrreducibleTable(q)
    for d in range(1, max_deg + 1):
        ps = table.irreducibles(d)
        assert len(ps) == irreducible_count(q, d)
        codes = [pr.monic_code(P, q) for P in ps]
        assert codes == sorted(set(codes))


@pytest.mark.parametrize("q,max_deg", [(3, 8), (5, 5), (7, 4)])
def test_factor_table_names_a_dividing_prime_or_minus_one_at_the_irreducibles(q, max_deg):
    table = IrreducibleTable(q)
    table.extend(max_deg)
    for n in range(1, max_deg + 1):
        index = table.factor_index[n]
        assert [monic_by_code(int(c), n, q) for c in np.flatnonzero(index < 0)] == list(table.by_degree[n])
        for code in np.flatnonzero(index >= 0).tolist():
            P = table.primes[index[code]]
            assert degree(P) <= n // 2 and not rem(monic_by_code(code, n, q), P, q), (n, code)


def marks_by_multiplication(factors, labels, d, q):
    """code(F·h) -> label, for each F in list order and each monic h of degree d - deg F."""
    marks = {}
    for F, label in zip(factors, labels):
        for h in monic_polys(d - degree(F), q):
            marks[pr.monic_code(mul(F, h, q), q)] = label  # a later factor overwrites
    return marks


def assert_marks_multiples(factors, labels, d, q):
    marked = np.full(q**d, -1, dtype=np.int32)
    pr.mark_multiples(marked, factors, d, q, labels=np.array(labels))
    written = {c: int(marked[c]) for c in np.flatnonzero(marked >= 0).tolist()}
    assert written == marks_by_multiplication(factors, labels, d, q)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), q=st.sampled_from([3, 5, 7]), d=st.integers(1, 7))
def test_mark_multiples_writes_the_last_dividing_factor(data, q, d):
    # h runs over q^(d-k) monic polynomials per factor: at most 3^7 or 7^4
    k = data.draw(st.integers(max(1, d - (7 if q == 3 else 4)), d), label="k")
    codes = st.lists(st.integers(0, q**k - 1), min_size=1, max_size=min(q**k, 6), unique=True)
    factors = [monic_by_code(c, k, q) for c in data.draw(codes, label="factor codes")]
    labels = data.draw(
        st.lists(st.integers(0, 10**6), min_size=len(factors), max_size=len(factors), unique=True),
        label="labels",
    )
    assert_marks_multiples(factors, labels, d, q)


def test_mark_multiples_across_blocks(monkeypatch):
    # 5^6 high parts per linear factor: one residue pass per block, several blocks
    q, d = 5, 7
    passes = []
    kernel = pr._residue_codes

    def counting(dig, f, q):
        passes.append(f)
        return kernel(dig, f, q)

    monkeypatch.setattr(pr, "_residue_codes", counting)
    factors = [(1, 1), (3, 1), (0, 1)]
    assert_marks_multiples(factors, [7, 3, 5], d, q)
    blocks = Counter(passes)
    assert set(blocks) == set(factors) and min(blocks.values()) > 1, blocks


def test_extend_refuses_past_the_budget(monkeypatch):
    monkeypatch.setattr(pr, "_TABLE_BUDGET", 3**4)
    table = IrreducibleTable(3)
    with pytest.raises(ResourceCapError, match="past the cap"):
        table.extend(5)
    assert table.cutoff == 0 and table.by_degree == {} == table.factor_index  # refused before building anything
    assert len(table.irreducibles(4)) == irreducible_count(3, 4)
    with pytest.raises(scan.ResourceCapError):
        table.irreducibles(5)
    assert table.cutoff == 4
    table.extend(4)  # nothing left to build: no refusal


def test_cutoff_guard():
    # the cutoff advances only as far as a caller asks, never past it;
    # x^3 - x + 1 and x^3 - x - 1 are irreducible over F_3 (Artin-Schreier)
    P, Q = (1, 2, 0, 1), (2, 2, 0, 1)
    table = IrreducibleTable(3)
    assert table.cutoff == 0
    assert table.factorize(mul(P, Q, 3)) == (1, ((P, 1), (Q, 1)))
    assert table.cutoff == 3
    for d in (1, 2, 3):
        assert len(table.irreducibles(d)) == irreducible_count(3, d)
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


def trial_factorize(f, q):
    """The reference: trial division by the irreducibles up to half of what is left."""
    table = shared_table(q)
    g = monic(f, q)
    factors = []
    d = 1
    while degree(g) >= 2 * d:
        for p in table.irreducibles(d):
            if degree(g) < 2 * d:
                break
            e = 0
            while not rem(g, p, q):
                g = divmod_(g, p, q)[0]
                e += 1
            if e:
                factors.append((p, e))
        d += 1
    if degree(g) >= 1:
        factors.append((g, 1))
    factors.sort(key=lambda pe: (degree(pe[0]), poly_code(pe[0], q)))
    return f[-1], tuple(factors)


@pytest.mark.parametrize("q,cutoff", [(3, 5), (5, 3), (7, 2)])
def test_factor_table_factorizations(q, cutoff):
    # degrees below, at and above the built cutoff, with a unit in front
    rng = random.Random(q)
    table = IrreducibleTable(q)
    table.extend(cutoff)
    degrees = (cutoff - 1, cutoff, cutoff + 1, 2 * cutoff + 1)
    past = IrreducibleTable(q)
    past.extend(max(degrees) + 1)
    for n in degrees:
        for _ in range(30):
            f = tuple(rng.randrange(q) for _ in range(n)) + (rng.randrange(1, q),)
            unit, factors = got = table.factorize(f)
            assert unit == f[-1]
            assert product([P for P, e in factors for _ in range(e)], q) == monic(f, q)
            assert all(is_irreducible(P, q) for P, _ in factors)
            keys = [(degree(P), poly_code(P, q)) for P, _ in factors]
            assert keys == sorted(set(keys))
            # a fresh table runs the trial loop; one past deg f only reads the factor tables
            assert IrreducibleTable(q).factorize(f) == got == past.factorize(f)
    assert table.cutoff == cutoff  # the trial loop needs no degree past half of deg f


@pytest.mark.parametrize("q,max_deg", [(3, 8), (5, 5), (7, 4)])
def test_factor_table_matches_trial_division_exhaustively(q, max_deg):
    table = IrreducibleTable(q)
    table.extend(max_deg)
    for n in range(1, max_deg + 1):
        for f in monic_polys(n, q):
            assert table.factorize(f) == trial_factorize(f, q), f


def test_factorize_within_the_table_divides_once_per_factor(monkeypatch):
    # no trial division (no `rem`) within the built degrees, and one exact
    # division per prime factor, counted with multiplicity, but the last
    calls = Counter()

    def counting(name, fn):
        def wrapper(*a):
            calls[name] += 1
            return fn(*a)

        return wrapper

    q = 3
    table = IrreducibleTable(q)
    table.extend(6)
    monkeypatch.setattr(pr, "rem", counting("rem", rem))
    monkeypatch.setattr(pr, "divmod_", counting("divmod_", divmod_))
    for n in range(1, 7):
        for f in monic_polys(n, q):
            before = calls["divmod_"]
            _, factors = table.factorize(f)
            assert calls["divmod_"] - before == sum(e for _, e in factors) - 1
    assert calls["rem"] == 0
    assert table.cutoff == 6


def test_factorize_past_every_table():
    # (x^27 - 1) / (x - 1) = (x - 1)^26 over F_3, with no table past degree 1
    table = IrreducibleTable(3)
    assert table.factorize((1,) * 27) == (1, (((2, 1), 26),))
    assert table.cutoff == 1


def test_concurrent_factorize_while_the_table_grows():
    q = 3
    rng = random.Random(7)
    fs = [tuple(rng.randrange(q) for _ in range(n)) + (1,) for n in range(1, 11) for _ in range(30)]
    expected = [trial_factorize(f, q) for f in fs]
    table = IrreducibleTable(q)

    class SlowDict(dict):
        # widens the window between publishing a degree's tables and its cutoff
        def __setitem__(self, key, value):
            time.sleep(0.002)
            super().__setitem__(key, value)

    table.by_degree, table.factor_index = SlowDict(), SlowDict()
    start = threading.Barrier(4, timeout=60)
    got = {}

    def factor(k):
        start.wait()
        got[k] = [table.factorize(f) for f in fs]

    def grow():
        start.wait()
        for d in range(1, 9):
            table.extend(d)

    workers = [threading.Thread(target=factor, args=(k,)) for k in range(3)]
    workers.append(threading.Thread(target=grow))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave readers and the builder as much as possible
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert table.cutoff == 8
    assert got == {k: expected for k in range(3)}


def odd_primes_below(n):
    return [p for p in range(3, n, 2) if all(p % r for r in range(3, int(p**0.5) + 1, 2))]


def test_factor_index_dtype_and_bound():
    # every factor table indexes primes in int16, whatever the degree
    table = IrreducibleTable(5)
    table.extend(8)
    for d in range(1, 9):
        assert table.factor_index[d].dtype == np.int16
    # int16 always suffices under the budget: past q = 10^4 only degree 1 fits,
    # and it needs no prime
    for q in odd_primes_below(10**4):
        d = 1
        while q ** (d + 1) <= pr._TABLE_BUDGET:
            d += 1
        assert sum(irreducible_count(q, k) for k in range(1, d // 2 + 1)) < 2**15, q


def test_factor_index_refuses_to_wrap():
    table = IrreducibleTable(3)
    table.by_degree[1] = ((0, 1),) * 2**15  # more primes than int16 can index
    with pytest.raises(ResourceCapError, match="int16"):
        table._sieve(2)


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
