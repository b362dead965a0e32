"""Tests for the vectorized ensemble scan engine."""

import gc
import json
import math
import shutil
import threading
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hyperell.polyring as polyring
import hyperell.scan as scan
from hyperell.characters import jacobi, residue_symbol_prime
from hyperell.ensemble import EnsembleSpec, first_moment
from hyperell.extfield import find_irreducible
from hyperell.field import is_prime
from hyperell.lfunction import afe_central_value, dirichlet_coefficient, l_polynomial
from hyperell.polyring import (
    ResourceCapError,
    degree,
    factorize,
    gcd,
    irreducible_count,
    is_irreducible,
    monic_by_code,
    monic_polys,
    mul,
    pow_mod,
    rem,
    shared_table,
    squarefree,
)
from hyperell.scan import (
    batch_coefficients,
    batch_coprime_counts,
    char_sum_table_scan,
    jacobi_residue_table,
    moment_scan,
    prime_residue_table,
    sample_codes,
    sampled_moment,
    squarefree_mask,
)
from support import poly_code, poly_of_code, sample_codes_by_scalar_test


@pytest.mark.parametrize("q,g", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2)])
def test_squarefree_mask_count(q, g):
    d = 2 * g + 1
    mask = squarefree_mask(q, d)
    assert int(mask.sum()) == EnsembleSpec(q, g).size


def test_squarefree_mask_agrees_pointwise():
    q, d = 3, 5
    mask = squarefree_mask(q, d)
    for code in range(q**d):
        D = monic_by_code(code, d, q)
        assert bool(mask[code]) == squarefree(D, q)


def test_squarefree_mask_agrees_pointwise_across_blocks():
    # 3^10 codes: the 3^8 high parts over each prime square of degree 2 take
    # two blocks of 4096
    q, d = 3, 10
    mask = squarefree_mask(q, d)
    assert [bool(b) for b in mask] == [squarefree(D, q) for D in monic_polys(d, q)]


@pytest.mark.parametrize("q,d", [(5, 6), (7, 4)])
def test_squarefree_mask_agrees_pointwise_past_q3(q, d):
    mask = squarefree_mask(q, d)
    assert [bool(b) for b in mask] == [squarefree(D, q) for D in monic_polys(d, q)]


def primes_upto(q, n):
    """The monic irreducibles of degree 1..n, degree by degree in code order."""
    return [P for m in range(1, n + 1) for P in shared_table(q).irreducibles(m)]


def prime_table(P, q):
    """P's prime table, from square digits built for it alone."""
    return prime_residue_table(P, q, scan._square_digits(q, degree(P)))


def prime_rows(dig, primes, q):
    """P -> (x/P) over the digit columns x of dig, through scan's residue kernel."""
    return {P: prime_table(P, q).take(scan._residue_codes(dig, P, q)) for P in primes}


@pytest.mark.parametrize("q", [3, 5])
def test_prime_residue_table_matches_symbol(q):
    for dp in (1, 2):
        for P, t in scan._prime_tables(q, dp):
            for code in range(q**dp):
                f = poly_of_code(code, q)
                assert t[code] == residue_symbol_prime(f, P, q)


def euler_table(P, q):
    """x^((q^m - 1)/2) mod P for every residue code x, read as 1, -1 or 0 (Euler's criterion).

    Square-and-multiply on the digit rows of all residues at once, with its
    own long division by P; `test_euler_table_matches_pow_mod` ties it to
    polyring.pow_mod.
    """
    m = degree(P)
    codes = np.arange(q**m)
    digits = [codes // q**i % q for i in range(m)]  # one vector per coefficient

    def mul_mod(a, b):
        c = [0] * (2 * m - 1)
        for i in range(m):
            for j in range(m):
                c[i + j] = c[i + j] + a[i] * b[j]
        for k in range(2 * m - 2, m - 1, -1):  # x^k = x^(k-m) (x^m - P)
            for i in range(m):
                c[k - m + i] = c[k - m + i] - c[k] * P[i]
        return [x % q for x in c[:m]]

    one = [np.ones_like(codes)] + [np.zeros_like(codes)] * (m - 1)
    out, base, e = one, digits, (q**m - 1) // 2
    while e:
        if e & 1:
            out = mul_mod(out, base)
        base = mul_mod(base, base)
        e >>= 1
    assert not any(x.any() for x in out[1:]) and np.isin(out[0], (0, 1, q - 1)).all()
    return np.where(out[0] == q - 1, -1, out[0]).astype(np.int8)


@pytest.mark.parametrize("q,n_max", [(3, 4), (5, 3), (7, 2)])
def test_euler_table_matches_pow_mod(q, n_max):
    for P in primes_upto(q, n_max):
        t = euler_table(P, q)
        e = (q ** degree(P) - 1) // 2
        for code in range(q ** degree(P)):
            r = pow_mod(poly_of_code(code, q), e, P, q)
            assert t[code] == {(): 0, (1,): 1, (q - 1,): -1}[r], (P, code)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_prime_residue_table_is_the_euler_criterion(q):
    for m in range(1, 5):
        for P, t in scan._prime_tables(q, m):
            assert np.array_equal(t, euler_table(P, q)), P


def test_degree_8_prime_tables_are_the_euler_criterion():
    primes = shared_table(3).irreducibles(8)
    squares = scan._square_digits(3, 8)
    for P in primes[:: len(primes) // 20][:20]:
        assert np.array_equal(prime_residue_table(P, 3, squares), euler_table(P, 3)), P


def record_square_digits(monkeypatch):
    """The (q, m) of every `_square_digits` build, and a weak reference to each result."""
    builds, refs = [], []
    square_digits = scan._square_digits

    def recording(q, m):
        out = square_digits(q, m)
        builds.append((q, m))
        refs.append(weakref.ref(out))
        return out

    monkeypatch.setattr(scan, "_square_digits", recording)
    return builds, refs


def test_square_digits_build_once_per_degree_of_a_pass(monkeypatch):
    # every prime of a degree reads one build of its square digits: a build
    # per prime would cost verify's 810 primes of degree 8 at q=3 about 0.4 s
    builds, _ = record_square_digits(monkeypatch)
    batch_coefficients(5, 11, np.arange(0, 5**11, 5**11 // 40), 5)
    assert builds == [(5, m) for m in range(1, 6)]
    builds.clear()
    moment_scan(5, 4)
    assert builds == [(5, m) for m in range(1, 5)]
    assert not scan._square_digits(5, 2).flags.writeable


def test_prime_table_past_int32_squares():
    # at a degree-1 prime with q > 46341, (q-1)^2 > 2^31 - 1: the squares are formed in int64
    q = 46349
    assert (q - 1) ** 2 > np.iinfo(np.int32).max
    t = prime_table((1, 1), q)  # x + 1: the residue of a constant c is c
    euler = [0] + [1 if pow(c, (q - 1) // 2, q) == 1 else -1 for c in range(1, q)]
    assert t.tolist() == euler


@pytest.mark.parametrize("q", [3, 5, 7, 11])
def test_half_the_residues_square_to_every_square(q):
    # x and -x share a square, so the codes whose lead is in [1, (q-1)/2]
    # give every nonzero square: as polynomials, and mod each prime
    for m in range(1, 5):
        half = scan._square_digits(q, m)
        assert half.shape == (2 * m - 1, (q**m - 1) // 2)
        dig = polyring._digit_matrix(np.arange(q**m), q, m).astype(np.int64)
        full = np.zeros((2 * m - 1, q**m), dtype=np.int64)  # x^2 for every residue x
        for i in range(m):
            for j in range(m):
                full[i + j] += dig[i] * dig[j]
        full = (full % q).astype(half.dtype)
        assert {tuple(c) for c in half.T.tolist()} == {tuple(c) for c in full[:, 1:].T.tolist()}
        primes = shared_table(q).irreducibles(m)
        for P in primes[:: max(1, len(primes) // 4)]:
            image = np.unique(scan._residue_codes(half, P, q))
            assert np.array_equal(np.union1d(image, [0]), np.unique(scan._residue_codes(full, P, q)))
            assert image[0] > 0  # no nonzero x of degree < m squares to 0 mod P


@pytest.mark.parametrize(
    "P,message",
    [
        ((0, 0, 1), "monic irreducible"),  # x^2, reducible
        ((1, 1, 1), "monic irreducible"),  # (x - 1)^2 at q=3
        ((2, 2), "monic irreducible"),  # 2(x + 1), not monic
        ((4, 0, 1), r"digits in \[0, 3\)"),  # x^2 + 1 written with a 4
        ((1, 0, 1, 0), "trailing zero"),
        ((2,), "degree >= 1"),
    ],
)
def test_prime_residue_table_refuses_a_modulus_that_is_no_prime(P, message):
    with pytest.raises(ValueError, match=message):
        prime_residue_table(P, 3, np.empty((0, 0), dtype=np.uint8))  # refused before squares are read


def test_prime_residue_table_refuses_a_degree_past_the_budget():
    # 3^17 > 10^8: the sieve's read of degree 17 refuses before it sieves any degree
    P = find_irreducible(3, 17)
    table = shared_table(3)
    cutoff = table.cutoff
    with pytest.raises(ResourceCapError, match="past the cap"):
        prime_residue_table(P, 3, np.empty((0, 0), dtype=np.uint8))
    assert table.cutoff == cutoff


def test_prime_residue_table_checks_only_what_it_builds(monkeypatch):
    # every call builds its table, so every call checks its modulus
    checked = []
    check = scan._check_poly
    monkeypatch.setattr(scan, "_check_poly", lambda *a: checked.append(a[0]) or check(*a))
    squares = scan._square_digits(3, 2)
    first = prime_residue_table((1, 0, 1), 3, squares)  # x^2 + 1
    second = prime_residue_table((1, 0, 1), 3, squares)
    assert checked == [(1, 0, 1), (1, 0, 1)]
    assert np.array_equal(first, second) and first is not second
    assert not first.flags.writeable and not second.flags.writeable


def test_no_prime_table_outlives_its_call(monkeypatch):
    tables = []
    build = scan.prime_residue_table

    def traced(P, q, squares):
        out = build(P, q, squares)
        tables.append(weakref.ref(out))
        return out

    monkeypatch.setattr(scan, "prime_residue_table", traced)
    _, squares = record_square_digits(monkeypatch)
    moment_scan(5, 3)
    sampled_moment(5, 3, 200, seed=1)
    batch_coefficients(3, 9, np.random.default_rng(3).integers(0, 3**9, 50), 8)
    gc.collect()
    assert tables and all(ref() is None for ref in tables)
    assert squares and all(ref() is None for ref in squares)  # nor do the square digits
    assert scan._prime_table_cache == {}


def residue_codes_by_division(columns, P, q):
    """Code of rem(D, P) for each digit list D (constant first), by polyring's long division."""
    return [poly_code(rem(tuple(D), P, q), q) for D in columns]


def residue_codes(columns, P, q):
    dig = np.array(columns, dtype=np.int32).T.copy()  # digit-major, as _digit_matrix lays out
    return polyring._residue_codes(dig, P, q).tolist()


def prime_at(start, n, q):
    """The first irreducible of degree n at or after the monic code start, cyclically."""
    return next(
        P
        for P in (monic_by_code((start + k) % q**n, n, q) for k in range(q**n))
        if is_irreducible(P, q)
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data(), q=st.sampled_from([3, 5, 7]), n=st.integers(1, 6))
def test_residue_codes_equal_polynomial_remainder(data, q, n):
    P = prime_at(data.draw(st.integers(0, q**n - 1), label="start"), n, q)
    w = data.draw(st.integers(1, 2 * 6 + 2), label="width")  # below deg P too: no reduction
    digit = st.integers(0, q - 1)
    column = st.lists(digit, min_size=w, max_size=w)
    columns = data.draw(st.lists(column, min_size=1, max_size=30), label="columns")
    columns.append([q - 1] * w)  # every accumulator at its bound
    assert residue_codes(columns, P, q) == residue_codes_by_division(columns, P, q)


# the largest q whose degree-1 prime tables (q primes of q entries) fit the budget
Q_MAX = next(q for q in range(math.isqrt(polyring._TABLE_BUDGET), 2, -1) if is_prime(q))


def test_q_max_is_the_budget_edge():
    scan._check_table_budget(Q_MAX, 1)
    with pytest.raises(ResourceCapError):
        scan._check_table_budget(next(q for q in range(Q_MAX + 1, 2 * Q_MAX) if is_prime(q)), 1)


@settings(max_examples=40, deadline=None)
@given(
    a=st.integers(0, Q_MAX - 1),
    columns=st.lists(st.lists(st.integers(0, Q_MAX - 1), min_size=4, max_size=4), max_size=20),
)
def test_residue_codes_at_the_largest_q(a, columns):
    q, P = Q_MAX, (a, 1)  # x + a, width 4: entries up to (q-1) + 3 (q-1)^2 ~ 3 * 10^8
    columns = columns + [[q - 1] * 4]
    assert residue_codes(columns, P, q) == residue_codes_by_division(columns, P, q)


def test_residue_codes_refuse_int32_overflow():
    dig = np.zeros((30, 2), dtype=np.int32)
    with pytest.raises(ValueError, match="overflow int32"):  # (q-1) + 29 (q-1)^2 > 2^31
        polyring._residue_codes(dig, (1, 1), Q_MAX)
    with pytest.raises(ValueError, match="overflow int32"):  # codes up to 3^20 > 2^31
        polyring._residue_codes(dig, (0,) * 20 + (1,), 3)
    assert polyring._residue_codes(dig, (0,) * 19 + (1,), 3).tolist() == [0, 0]  # 3^19 < 2^31


@settings(max_examples=150, deadline=None)
@given(data=st.data(), q=st.sampled_from([3, 5, 7, 11, 13]), n=st.integers(1, 3))
def test_residue_codes_agree_in_every_dtype_that_holds_the_bound(data, q, n):
    P = prime_at(data.draw(st.integers(0, q**n - 1), label="start"), n, q)
    w = data.draw(st.integers(1, 14), label="width")
    column = st.lists(st.integers(0, q - 1), min_size=w, max_size=w)
    columns = data.draw(st.lists(column, min_size=1, max_size=20), label="columns")
    columns.append([q - 1] * w)  # every accumulator at its bound
    rows = np.array(columns).T.copy()
    bound = polyring._residue_bound(q, w, n)
    dtypes = [t for t in (np.uint8, np.int16, np.int32) if bound <= np.iinfo(t).max]
    assert dtypes[0] is polyring._exact_dtype(bound)
    # digits as _digit_matrix writes them, and int8, may be narrower than
    # the bound: the kernel widens its sums
    dtypes += [polyring._exact_dtype(q - 1), np.int8]
    codes = [polyring._residue_codes(rows.astype(t), P, q).tolist() for t in dtypes]
    assert codes == [residue_codes_by_division(columns, P, q)] * len(dtypes)


def test_exact_dtype_edges():
    assert polyring._exact_dtype(255) is np.uint8
    assert polyring._exact_dtype(256) is np.int16
    assert polyring._exact_dtype(32767) is np.int16
    assert polyring._exact_dtype(32768) is np.int32
    assert polyring._exact_dtype(2**31 - 1) is np.int32
    with pytest.raises(ValueError, match="overflow int32"):
        polyring._exact_dtype(2**31)
    # codes: int16 while q^n < 2^15, else int32
    assert polyring._exact_dtype(32767, polyring._CODE_DTYPES) is np.int16
    assert polyring._exact_dtype(32768, polyring._CODE_DTYPES) is np.int32
    assert polyring._exact_dtype(3, polyring._CODE_DTYPES) is np.int16


def row_dtypes(monkeypatch):
    """Record (width, dtype) of every row block scan gives `_residue_codes`.

    scan's callers look the kernel up in scan's namespace, which imports it
    from polyring, so the recording stands in for it there.
    """
    seen = []
    kernel = scan._residue_codes

    def recording(dig, f, q):
        seen.append((dig.shape[0], dig.dtype))
        return kernel(dig, f, q)

    monkeypatch.setattr(scan, "_residue_codes", recording)
    return seen


@pytest.mark.parametrize("q,dtype", [(5, np.uint8), (7, np.uint8)])
def test_batch_rows_at_width_12(monkeypatch, q, dtype):
    # the sampled workload's rows: monic curves of degree 11, handed over as
    # digits even where B = (q-1) + 11 (q-1)^2 = 402 at q = 7 needs int16 sums
    codes = np.arange(0, q**11, q**11 // 50)
    dig = polyring._digit_matrix(codes, q, 11, monic=True)
    symbols = prime_rows(dig, primes_upto(q, 1), q)
    seen = row_dtypes(monkeypatch)
    assert batch_coefficients(q, 11, codes, 1)[:, 1].tolist() == list(
        sum(symbols[P].astype(int) for P in primes_upto(q, 1))
    )
    assert seen and {t for w, t in seen if w == 12} == {np.dtype(dtype)}


def test_square_digits_are_bytes_at_q3_to_degree_8():
    for m in range(1, 9):
        assert scan._square_digits(3, m).dtype == np.uint8, m
    # digits, though the convolution (8 * 36 = 288) and the kernel's sums
    # mod degree 8 (6 + 7 * 36 = 258) need int16
    assert scan._square_digits(7, 8).dtype == np.uint8


def test_rows_at_the_largest_q_are_int16_digits(monkeypatch):
    seen = row_dtypes(monkeypatch)
    codes = np.arange(0, Q_MAX**4, Q_MAX**4 // 30)
    rows = scan._digit_matrix(codes, Q_MAX, 4)
    primes = [(5, 1), (Q_MAX - 1, 1)]
    symbols = prime_rows(rows, primes, Q_MAX)
    # scan hands over int16 digits, both of the curves (width 4) and of the
    # squares the prime tables reduce (width 1)
    assert sorted(set(seen)) == [(1, np.dtype(np.int16)), (4, np.dtype(np.int16))]
    assert set(symbols) == set(primes)
    # the kernel's sums reach (q-1) + 3 (q-1)^2 ~ 3 * 10^8, so int16 sums would wrap
    columns = rows.T.tolist()
    for P in primes:
        assert polyring._residue_codes(rows, P, Q_MAX).tolist() == residue_codes_by_division(columns, P, Q_MAX)


def test_residue_codes_widen_narrow_rows_and_refuse_float_rows():
    # q=7, width 12, mod x^3 + 3x^2 + 2x + 2: the x row sums to 6 + 6 * 44 = 270 > 255
    P, columns = (2, 2, 3, 1), [[0] * 12, [6] * 12, [6, 1] * 6]
    rows = np.array(columns, dtype=np.uint8).T.copy()
    assert polyring._residue_codes(rows, P, 7).tolist() == residue_codes_by_division(columns, P, 7)
    # q=5, width 14, mod x + 1: 4 + 4 * (7 * 4 + 6 * 1) = 140 > 127
    P, columns = (1, 1), [[0] * 14, [4] * 14, [4, 1] * 7]
    rows = np.array(columns, dtype=np.int8).T.copy()
    assert polyring._residue_codes(rows, P, 5).tolist() == residue_codes_by_division(columns, P, 5)
    with pytest.raises(ValueError, match="integer digits, not float64"):
        polyring._residue_codes(rows.astype(np.float64), P, 5)


def test_symbol_rows_are_one_signed_row_per_prime():
    q, n = 3, 4
    symbols = symbols_upto(q, n)
    primes = primes_upto(q, n)
    assert list(symbols) == primes
    rows = list(symbols.values())
    assert all(row.dtype == np.int8 and row.shape == (q**n,) for row in rows)  # one row per prime
    for i, row in enumerate(rows):  # each its own
        assert not any(np.shares_memory(row, other) for other in rows[:i])
    for P in primes[: len(primes) // 2 : -1] + primes[:8]:  # in any order
        row = symbols[P]
        assert row.tolist() == [jacobi(poly_of_code(x, q), P, q) for x in range(q**n)], P


def symbols_upto(q, n):
    """(x/P) over the codes x < q^n for every prime P of degree < n, as moment_scan builds them.

    Each x is its own residue mod a prime of degree n, whose row is its table.
    """
    dig = scan._digit_matrix(np.arange(q**n), q, n)
    symbols = {}
    for m in range(1, n):
        symbols.update((P, t.take(scan._residue_codes(dig, P, q))) for P, t in scan._prime_tables(q, m))
    symbols.update(scan._prime_tables(q, n))
    return symbols


def test_jacobi_residue_table_matches_jacobi():
    q = 3
    symbols = symbols_upto(q, 4)  # degrees 1 to 3 read prefix slices
    exponents = set()
    for dn in (1, 2, 3, 4):
        for f in monic_polys(dn, q):
            factors = factorize(f, q)[1]
            exponents.add(tuple(e for _, e in factors))
            t = jacobi_residue_table(factors, symbols, q)
            assert len(t) == q**dn
            for code in range(q**dn):
                r = poly_of_code(code, q)
                assert t[code] == jacobi(r, f, q), (f, r)
    # even exponents square a row: P^4, an even first factor, and P^2 Q^2
    assert {(4,), (2, 1), (2, 1, 1), (2, 2)} <= exponents


@pytest.mark.parametrize("q,d", [(3, 3), (3, 4), (5, 5)])
def test_f_one_has_a_table_of_ones(q, d):
    # f = 1, as factorize((1,), q) gives it: (r/1) = 1 and S(1) counts the square-free D
    assert factorize((1,), q) == (1, ())
    assert jacobi_residue_table((), {}, q).tolist() == [1]
    assert char_sum_table_scan((), {}, q, d) == squarefree_mask(q, d).sum()


def test_char_sum_table_scan_matches_brute_force():
    # square f, repeated primes, and both sides of deg B < deg f
    for q, g in [(3, 2), (3, 3), (5, 2), (7, 1)]:
        d = 2 * g + 1
        mask = squarefree_mask(q, d)
        Ds = [monic_by_code(code, d, q) for code in range(q**d) if mask[code]]
        symbols = symbols_upto(q, g)
        for n in range(1, g + 1):
            for f in monic_polys(n, q):
                brute = sum(jacobi(D, f, q) for D in Ds)
                assert char_sum_table_scan(factorize(f, q)[1], symbols, q, d) == brute, (q, g, f)


def test_moment_scan_builds_prime_tables_on_the_main_thread(monkeypatch):
    # the scan runs in the calling thread, tables and summands alike
    callers = []
    table = scan.prime_residue_table

    def traced(*a):
        callers.append(threading.current_thread() is threading.main_thread())
        return table(*a)

    monkeypatch.setattr(scan, "prime_residue_table", traced)
    moment_scan(3, 3)
    assert callers and all(callers)


@pytest.mark.parametrize("q,g", [(3, 1), (3, 2), (3, 3), (5, 1), (7, 1)])
def test_moment_scan_matches_reference(q, g):
    acc, meta = moment_scan(q, g)
    ref = first_moment(q, g)
    assert acc == ref
    assert meta.q == q and meta.g == g


@pytest.mark.parametrize(
    "q,g", [(3, g) for g in range(1, 6)] + [(p, g) for p in (5, 7) for g in (1, 2, 3)]
    + [(p, g) for p in (11, 13) for g in (1, 2)],
)
def test_moment_scan_odd_degrees_vanish(q, g):
    # D(x) -> c^(-d) D(cx), c a non-square, permutes the family and flips
    # chi_D(f) by (-1)^(deg f), so the sums over odd deg f are 0, and the
    # moment has no sqrt(q) part
    acc, meta = moment_scan(q, g)
    assert not any(meta.nonsquare_sums[1::2]) and not any(meta.square_sums[1::2])
    assert acc.total.b == 0


# The per-degree S-sums as integer polynomials in q at fixed g, from ROADMAP's
# table: (g, "sq" or "ns", n) -> (coefficients of q^0, q^1, ..., the odd primes
# they were fitted on).  A fit of degree k is pinned by its k + 1 primes; every
# held-out prime tried matched, up to q = 61.  Why the sums are polynomials is
# not proved here; the fits are an oracle across q, for faults that depend on q.
Q_POLYNOMIALS = {
    (2, "ns", 2): ((0, 2, -3, 1), (3, 5, 7, 11)),
    (3, "ns", 2): ((0, 2, -4, 2), (3, 5, 7, 11)),
    (4, "ns", 2): ((0, 3, -5, 2), (3, 5, 7, 11)),
    (4, "ns", 4): ((0, -3, 14, -20, 15, -8, 2), (3, 5, 7, 11, 13, 17, 19)),
    (4, "sq", 4): (
        (0, 4, -12, 14, -11, 10, -9, 6, -3, 2, -2, 1),
        (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41),
    ),
    (5, "ns", 4): ((0, -3, 16, -30, 27, -13, 3), (3, 5, 7, 11, 13, 17, 19)),
    (6, "ns", 2): ((0, 4, -7, 3), (3, 5, 7, 11)),
}


@pytest.mark.parametrize(
    "g,q",
    [(2, q) for q in (3, 5, 7, 11, 13, 17, 19, 23)] + [(3, q) for q in (3, 5, 7, 11)]
    + [(4, q) for q in (3, 5, 7)] + [(5, 3), (5, 5), (6, 3)],
)
def test_per_degree_sums_are_the_polynomials_in_q(g, q):
    _, meta = moment_scan(q, g)
    sums = {"sq": meta.square_sums, "ns": meta.nonsquare_sums}
    rows = [(key, coeffs, primes) for key, (coeffs, primes) in Q_POLYNOMIALS.items() if key[0] == g]
    assert rows
    for (_, kind, n), coeffs, primes in rows:
        assert len(primes) == len(coeffs)
        assert sums[kind][n] == sum(c * q**i for i, c in enumerate(coeffs)), (kind, n)


def test_moment_scan_chunk_invariance(monkeypatch):
    a1, m1 = moment_scan(3, 2)
    monkeypatch.setattr(scan, "CHUNK_SIZE", 7)
    a2, m2 = moment_scan(3, 2)
    assert a1 == a2
    assert (m1.square_sums, m1.nonsquare_sums) == (m2.square_sums, m2.nonsquare_sums)
    assert (m1.chunks, m2.chunks) == (1, 2)  # 3 + 9 summands in chunks of 64, then of 7


def test_moment_scan_checks_table_budget_before_building(monkeypatch):
    built = []
    monkeypatch.setattr(scan, "squarefree_mask", lambda *a: built.append(("mask", a)))
    monkeypatch.setattr(scan, "prime_residue_table", lambda *a: built.append(("table", a)))
    # the prime tables up to degree 2 at q=3 hold 3*3 + 3*9 = 36 entries
    monkeypatch.setattr(polyring, "_TABLE_BUDGET", 35)
    with pytest.raises(ResourceCapError, match="past the cap"):
        moment_scan(3, 2)
    assert built == []


def test_moment_scan_refuses_an_unwritable_checkpoint_before_any_work(tmp_path, monkeypatch):
    # without this check, (3, 8) builds its rows and its first chunk before the first write fails
    for name in ("squarefree_mask", "_prime_tables"):
        monkeypatch.setattr(scan, name, lambda *a, name=name, **k: pytest.fail(f"{name} called"))
    for ck in (tmp_path / "no-such-dir" / "ck.json", tmp_path):  # a missing directory, and a directory
        with pytest.raises(OSError) as refused:
            moment_scan(3, 8, checkpoint_path=str(ck))
        assert str(refused.value) == f"checkpoint {ck} is not a writable file path"


def test_moment_scan_skips_the_mask_past_its_limit(monkeypatch):
    monkeypatch.setattr(scan, "MASK_CHECK_LIMIT", 10)
    monkeypatch.setattr(scan, "squarefree_mask", lambda *a: pytest.fail("mask built"))
    acc, _ = moment_scan(3, 2)
    assert acc == first_moment(3, 2)


def test_moment_scan_q3_g7_without_the_mask():
    # 3^15 > MASK_CHECK_LIMIT, so the count is the closed form; the pre-sieve
    # per-f residue-table scan gave the same moment
    assert 3**15 > scan.MASK_CHECK_LIMIT
    acc, _ = moment_scan(3, 7)
    assert acc.count == 2 * 3**14
    assert acc.total == acc.square_part + acc.nonsquare_part
    assert acc.total.b == 0
    assert acc.total.a == Fraction(554831200, 9)


def test_checkpoint_resume(tmp_path, monkeypatch):
    monkeypatch.setattr(scan, "CHUNK_SIZE", 16)
    cp = str(tmp_path / "ck.json")
    full, _ = moment_scan(3, 3)
    copies = []
    real_write = scan._write_checkpoint

    def archiving(path, *a):
        real_write(path, *a)
        dst = str(tmp_path / f"snap{len(copies)}.json")
        shutil.copy(path, dst)
        copies.append(dst)

    scan._write_checkpoint = archiving
    try:
        a1, m1 = moment_scan(3, 3, checkpoint_path=cp)
    finally:
        scan._write_checkpoint = real_write
    assert a1 == full
    assert len(copies) == m1.chunks
    # resume from the state written after the first chunk
    shutil.copy(copies[0], cp)
    a2, _ = moment_scan(3, 3, checkpoint_path=cp)
    assert a2 == full
    # a finished checkpoint resumes to the same answer without recomputing
    a3, _ = moment_scan(3, 3, checkpoint_path=cp)
    assert a3 == full


def test_checkpoint_config_mismatch(tmp_path, monkeypatch):
    cp = str(tmp_path / "ck.json")
    moment_scan(3, 1, checkpoint_path=cp)
    monkeypatch.setattr(scan, "CHUNK_SIZE", 5)
    with pytest.raises(ValueError):
        moment_scan(3, 1, checkpoint_path=cp)
    monkeypatch.undo()
    with pytest.raises(ValueError):
        moment_scan(3, 2, checkpoint_path=cp)


def _tamper_checkpoint(path, **changes):
    state = json.loads(Path(path).read_text())
    state.update(changes)
    with open(path, "w") as fh:
        json.dump(state, fh)


def test_checkpoint_rejects_other_version(tmp_path):
    cp = str(tmp_path / "ck.json")
    moment_scan(3, 1, checkpoint_path=cp)
    _tamper_checkpoint(cp, version=99)
    with pytest.raises(ValueError, match="version"):
        moment_scan(3, 1, checkpoint_path=cp)


def test_checkpoint_rejects_square_sums_at_odd_degree(tmp_path):
    cp = str(tmp_path / "ck.json")
    moment_scan(3, 2, checkpoint_path=cp)
    _tamper_checkpoint(cp, square_sums=[0, 7, 0])
    with pytest.raises(ValueError, match="odd degree"):
        moment_scan(3, 2, checkpoint_path=cp)


def test_checkpoint_rejects_bad_chunk_ids(tmp_path, monkeypatch):
    # and every other malformed state: each must be a ValueError, not a
    # traceback or a silently wrong resume
    monkeypatch.setattr(scan, "CHUNK_SIZE", 1)  # the three f of degree 1, one chunk each
    cp = str(tmp_path / "ck.json")
    moment_scan(3, 1, checkpoint_path=cp)
    good = json.loads(Path(cp).read_text())
    count = good["square_sums"][0]

    def without(key):
        return {k: v for k, v in good.items() if k != key}

    bad_states = [
        ({**good, "done": [999]}, "not the chunks 0..k-1 of 3"),
        ({**good, "done": [1]}, "not the chunks 0..k-1"),
        ({**good, "done": [0, 2]}, "not the chunks 0..k-1"),
        ({**good, "done": [1, 0]}, "not the chunks 0..k-1"),
        ({**good, "done": [0, 0]}, "not the chunks 0..k-1"),
        ({**good, "done": [0, 1, 2, 3]}, "not the chunks 0..k-1"),
        ([good], "not a JSON object"),
        (without("done"), "'done'"),
        (without("square_sums"), "'square_sums'"),
        (without("nonsquare_sums"), "'nonsquare_sums'"),
        ({**good, "done": 0}, "not a list of integers"),
        ({**good, "done": [0.5]}, "not a list of integers"),
        ({**good, "done": [True]}, "not a list of integers"),
        ({**good, "square_sums": [float(count), 0]}, "not a list of integers"),
        ({**good, "nonsquare_sums": [0, False]}, "not a list of integers"),
        ({**good, "done": [], "square_sums": [0, 0], "nonsquare_sums": [0, 0]}, "count"),
        ({**good, "done": [], "square_sums": [count, 0], "nonsquare_sums": [7, 0]}, "count"),
    ]
    for state, message in bad_states:
        with open(cp, "w") as fh:
            json.dump(state, fh)
        with pytest.raises(ValueError, match=message):
            moment_scan(3, 1, checkpoint_path=cp)


def test_batch_coefficients_match_naive():
    q, g = 3, 1
    d = 2 * g + 1
    mask = squarefree_mask(q, d)
    codes = np.nonzero(mask)[0]
    a = batch_coefficients(q, d, codes, 2 * g)
    for row, code in enumerate(codes):
        D = monic_by_code(int(code), d, q)
        for n in range(2 * g + 1):
            assert a[row, n] == dirichlet_coefficient(D, n, q)


def test_batch_coefficients_match_naive_q5():
    q, g = 5, 1
    d = 2 * g + 1
    mask = squarefree_mask(q, d)
    codes = np.nonzero(mask)[0][:40]
    a = batch_coefficients(q, d, codes, 2)
    for row, code in enumerate(codes):
        D = monic_by_code(int(code), d, q)
        for n in range(3):
            assert a[row, n] == dirichlet_coefficient(D, n, q)


def test_batch_coprime_counts():
    from hyperell.polyring import degree, gcd

    # half_deg 2 reaches l = P^2, the even-exponent branch of the symbol product
    for q in (3, 5):
        d = 3
        mask = squarefree_mask(q, d)
        codes = np.nonzero(mask)[0]
        for half_deg in (0, 1, 2):
            counts = batch_coprime_counts(q, d, codes, half_deg)[:, half_deg]
            for row, code in enumerate(codes):
                D = monic_by_code(int(code), d, q)
                direct = sum(
                    1 for l in monic_polys(half_deg, q) if degree(gcd(D, l, q)) == 0
                )
                assert counts[row] == direct, (q, half_deg, D)


def test_batch_coprime_counts_refuses_past_the_table_budget(monkeypatch):
    q, d = 3, 3
    codes = np.nonzero(squarefree_mask(q, d))[0]
    # the prime tables up to degree 2 at q=3 hold 3*3 + 3*9 = 36 entries
    monkeypatch.setattr(polyring, "_TABLE_BUDGET", 35)
    with pytest.raises(ResourceCapError, match="past the cap"):
        batch_coprime_counts(q, d, codes, 2)
    monkeypatch.setattr(polyring, "_TABLE_BUDGET", 36)
    assert batch_coprime_counts(q, d, codes, 2).shape == (len(codes), 3)


STREAMED_CASES = [(3, n) for n in range(5)] + [(5, n) for n in range(4)] + [(7, n) for n in range(3)]


@pytest.mark.parametrize("q,n_max", STREAMED_CASES)
def test_streamed_batch_sums_match_the_references(q, n_max):
    # n_max = 1 holds no row at all: every prime of degree 1 is streamed
    d = 5
    rng = np.random.default_rng(q * 10 + n_max)
    codes = np.concatenate([[0, q**d - 1], rng.integers(0, q**d, 6)])
    a = batch_coefficients(q, d, codes, n_max)
    counts = batch_coprime_counts(q, d, codes, n_max)
    assert a.shape == counts.shape == (len(codes), n_max + 1)
    for row, code in enumerate(codes):
        D = monic_by_code(int(code), d, q)
        for n in range(n_max + 1):
            assert a[row, n] == dirichlet_coefficient(D, n, q), (D, n)
            coprime = sum(1 for l in monic_polys(n, q) if degree(gcd(D, l, q)) == 0)
            assert counts[row, n] == coprime, (D, n)
    for batch in (batch_coefficients, batch_coprime_counts):
        assert batch(q, d, np.array([], dtype=np.int64), n_max).shape == (0, n_max + 1)


@pytest.mark.parametrize(
    "q,m,count",
    [(3, 2, None), (3, 4, None), (5, 2, None), (3, 6, 40), (5, 4, 40), (7, 4, 40), (3, 8, 10)],
)
def test_even_degree_batch_sums_are_the_completed_l_polynomial(q, m, count):
    """Square-free D of even degree m: the prefix sums of A_D(0..m-2) are P in L = (1 - u) P.

    A_D sums to 0 over n <= m - 1 (the zero at u = 1), p_(m-2-k) = q^((m-2)/2 - k) p_k,
    and P is `l_polynomial`'s completed polynomial.  Every square-free code, or count
    seeded ones.
    """
    if count is None:
        codes = np.flatnonzero(squarefree_mask(q, m))
    else:
        codes = sample_codes(q, m, count, seed=q * 100 + m)
    a = batch_coefficients(q, m, codes, m - 1)
    assert not a.sum(axis=1).any()  # the zero at u = 1
    p = np.cumsum(a[:, : m - 1], axis=1)
    half = (m - 2) // 2
    for k in range(m - 1):  # p_(m-2-k) q^k = q^half p_k, cleared of the negative powers
        assert np.array_equal(p[:, m - 2 - k] * q**k, q**half * p[:, k]), k
    for row, code in zip(p.tolist(), codes.tolist()):
        L = l_polynomial(monic_by_code(code, m, q), q)
        assert (L.lam, L.coeffs) == (1, tuple(row)), code


@pytest.mark.parametrize("q,n_max", [(3, 6), (3, 7), (5, 5)])
def test_large_primes_pair_with_smooth_cofactors(q, n_max):
    # at degree n >= n_max/2 + 3, f = P h with deg P > n_max/2 and deg h >= 2
    # pairs C_D(deg P) with A_D(deg h); every D of degree 3 at q = 3, a
    # spread of them at q = 5
    d = 3
    codes = np.arange(q**d) if q == 3 else np.arange(0, q**d, 9)
    a = batch_coefficients(q, d, codes, n_max)
    counts = batch_coprime_counts(q, d, codes, n_max)
    for row, code in enumerate(codes):
        D = monic_by_code(int(code), d, q)
        for n in range(n_max // 2 + 3, n_max + 1):
            assert a[row, n] == dirichlet_coefficient(D, n, q), (D, n)
            coprime = sum(1 for l in monic_polys(n, q) if degree(gcd(D, l, q)) == 0)
            assert counts[row, n] == coprime, (D, n)


@pytest.mark.parametrize("q,n_max", STREAMED_CASES)
def test_batch_holds_no_row_of_a_top_degree_prime(monkeypatch, q, n_max):
    # a row is held only for a prime of degree <= n_max/2, so none for a top-degree prime
    written, factored = [], []
    tables, factor = scan._prime_tables, scan.factorize

    class RecordingTable:
        """A prime table whose take records the row it writes."""

        def __init__(self, P, table):
            self.P, self.table = P, table

        def take(self, codes, out=None):
            row = self.table.take(codes, out=out)
            written.append((self.P, row))
            return row

    def recording_tables(q, m):
        for P, table in tables(q, m):
            yield P, RecordingTable(P, table)

    monkeypatch.setattr(scan, "_prime_tables", recording_tables)
    monkeypatch.setattr(scan, "factorize", lambda f, q: factored.append(f) or factor(f, q))
    # the reducible f whose prime factors all have degree <= n_max/2
    smooth = [f for n in range(2, n_max + 1) for f in monic_polys(n, q)]
    smooth = [f for f in smooth if not is_irreducible(f, q)]
    smooth = [f for f in smooth if all(2 * degree(P) <= n_max for P, _ in factorize(f, q)[1])]
    for batch in (batch_coefficients, batch_coprime_counts):
        written.clear()
        factored.clear()
        batch(q, 3, np.arange(0, q**3, 7), n_max)
        # each prime's row is made once, in degree order; up to n_max/2 each
        # in its own held row, above it all in one reused vector that holds
        # none of them
        assert [P for P, _ in written] == primes_upto(q, n_max)
        held = [out for P, out in written if degree(P) <= n_max // 2]
        large = [out for P, out in written if degree(P) > n_max // 2]
        for i, out in enumerate(held + large[:1]):  # pairwise disjoint
            assert not any(np.shares_memory(out, other) for other in held[:i])
        assert all(out is large[0] for out in large)
        # no prime and no multiple of a prime past n_max/2 is factored:
        # factorize sees each smooth reducible f of degree <= n_max once
        assert sorted(factored) == sorted(smooth)


@pytest.mark.parametrize("q,d,n_max", [(5, 11, 5), (5, 13, 6), (7, 11, 4)])
def test_batch_memory_is_its_held_rows_digits_and_sums(q, d, n_max):
    import tracemalloc

    k = 20000
    codes = np.random.default_rng(1).integers(0, q**d, k)
    # the warm-up leaves the factor tables; every prime table and its
    # square digits are built again inside the measured call
    batch_coefficients(q, d, codes[:10], n_max)
    tracemalloc.start()
    try:
        batch_coefficients(q, d, codes, n_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # per curve: one int8 row per prime of degree <= n_max/2, d+1 uint8
    # digits, the int64 result, and 48 bytes of running sums and temporaries
    held = sum(irreducible_count(q, n) for n in range(1, n_max // 2 + 1))
    assert peak < (held + (d + 1) + 8 * (n_max + 1) + 48) * k, peak / k


def test_cold_batch_memory_is_its_rows_and_one_table_build():
    import tracemalloc

    q, d, n_max, k = 3, 9, 8, 2000
    codes = np.random.default_rng(1).integers(0, q**d, k)
    shared_table(q).extend(n_max)  # the factor tables; each prime table is built per call
    tracemalloc.start()
    try:
        batch_coefficients(q, d, codes, n_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # per curve as in the warm bound below
    held = sum(irreducible_count(q, n) for n in range(1, n_max // 2 + 1))
    per_curve = (held + (d + 1) + 8 * (n_max + 1) + 48) * k
    # one degree-m table build, m = n_max, over the h = (q^m - 1)/2 residues
    # whose squares it reduces: at its peak it holds the degree's square
    # digits ((2m-1) h bytes), the residue kernel's acc and quotient (m h
    # each), its int16 codes (2 h) and scratch row (h), and the int8 table
    # (q^m); forming the square digits holds less, 8 h of int64 codes beside
    # at most 8 h + 2m h of digits or 3m h of digits and sums
    m = n_max
    h = (q**m - 1) // 2
    build = (2 * m - 1) * h + 2 * m * h + 3 * h + q**m
    assert peak < per_curve + build, (peak, per_curve, build)


def test_sample_boundaries_name_their_argument():
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        sample_codes(5, 3, 10, -1)
    for q in (4, 2):  # Z/4Z is no field, and q = 2 has no quadratic character
        with pytest.raises(ValueError, match=rf"^q must be an odd prime, got {q}$"):
            sample_codes(q, 3, 5, 1)
    with pytest.raises(ValueError, match=r"^d must be >= 0, got -2$"):
        sample_codes(3, -2, 5, 1)
    with pytest.raises(ValueError, match=r"^count must be >= 1, got 0$"):
        sample_codes(5, 3, 0, 1)
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        sampled_moment(5, 1, 10, seed=-1)
    with pytest.raises(ValueError, match=r"^sample_size must be >= 1, got 0$"):
        sampled_moment(5, 1, 0, seed=1)


@pytest.mark.parametrize("value", [2.5, 3.0, True, "3", None])
def test_sample_boundaries_refuse_a_count_or_seed_that_is_no_int(monkeypatch, value):
    # every refusal comes before a batch's digits are built
    monkeypatch.setattr(scan, "_digit_matrix", lambda *a, **k: pytest.fail("digits built"))
    with pytest.raises(ValueError, match=rf"^count must be an int, got {value!r}$"):
        sample_codes(5, 3, value, 1)
    with pytest.raises(ValueError, match=rf"^seed must be an int, got {value!r}$"):
        sample_codes(5, 3, 10, value)
    with pytest.raises(ValueError, match="^q must be an odd prime"):  # q is checked first
        sample_codes(4, 3, value, 1)
    with pytest.raises(ValueError, match="^count must be an int"):  # count before seed
        sample_codes(5, 3, value, -1)
    with pytest.raises(ValueError, match=rf"^sample_size must be an int, got {value!r}$"):
        sampled_moment(5, 2, value, 1)
    with pytest.raises(ValueError, match=rf"^seed must be an int, got {value!r}$"):
        sampled_moment(5, 2, 10, value)


@pytest.mark.parametrize("batch", [batch_coefficients, batch_coprime_counts])
@pytest.mark.parametrize(
    "codes,message",
    [
        ([200], r"lie in \[0, q\^d\) = \[0, 125\)"),  # past 5^3: would alias code 75
        ([125], r"lie in \[0, q\^d\)"),
        ([3, -1], r"lie in \[0, q\^d\)"),
        ([1.7], "integers"),
        ([3.0], "integers"),
        ([True], "integers"),
        ([[3]], "1-d"),
    ],
)
def test_batch_sums_refuse_bad_codes(batch, codes, message):
    with pytest.raises(ValueError, match=message):
        batch(5, 3, codes, 2)


@pytest.mark.parametrize(
    "batch,name", [(batch_coefficients, "n_max"), (batch_coprime_counts, "half_deg")]
)
def test_batch_sums_name_their_own_degree_argument(batch, name):
    with pytest.raises(ValueError, match=f"^{name} must be >= 0, got -1$"):
        batch(5, 3, [1], -1)
    with pytest.raises(ValueError, match=r"^d must be >= 0, got -1$"):
        batch(3, -1, [0], 1)


def test_batch_sums_refuse_sums_past_int32(monkeypatch):
    # |A_D(n)| <= q^n; only a budget past 2^31 entries could let q^n pass int32
    monkeypatch.setattr(polyring, "_TABLE_BUDGET", 10**20)
    monkeypatch.setattr(scan, "_prime_tables", lambda *a: pytest.fail("tables built"))
    with pytest.raises(ValueError, match="overflow int32"):
        batch_coefficients(3, 21, [0], 20)


def test_batch_sums_take_every_valid_code():
    q, d = 5, 3
    edge = batch_coefficients(q, d, [0, q**d - 1], 2)
    unsigned = np.array([0, q**d - 1], dtype=np.uint8)
    assert edge.tolist() == batch_coefficients(q, d, unsigned, 2).tolist()
    assert batch_coefficients(q, d, [], 2).shape == (0, 3)


def test_sample_codes_refuses_codes_past_int64():
    with pytest.raises(ValueError, match="do not fit in int64"):
        sample_codes(5, 29, 10, 1)


def test_sampled_moment_checks_table_budget_before_sampling(monkeypatch):
    drawn = []
    monkeypatch.setattr(polyring, "_TABLE_BUDGET", 1000)
    monkeypatch.setattr(scan, "sample_codes", lambda *a: drawn.append(a))
    with pytest.raises(ResourceCapError, match="cap"):
        sampled_moment(5, 4, 10, seed=1)
    assert drawn == []


def test_sample_codes_refuses_a_count_past_the_budget(monkeypatch):
    with pytest.raises(ResourceCapError, match=r"^a sample of 1000000000000 codes needs 1000000000000 draws, past the cap$"):
        sample_codes(5, 3, 10**12, 1)
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        sample_codes(5, 3, 10**12, -1)  # the seed is checked before the cap
    monkeypatch.setattr(polyring, "_TABLE_BUDGET", 100)
    assert len(sample_codes(5, 3, 100, 1)) == 100
    monkeypatch.setattr(scan, "_digit_matrix", lambda *a, **k: pytest.fail("digits built"))
    with pytest.raises(ResourceCapError, match="^a sample of 101 codes needs 101 draws, past the cap$"):
        sample_codes(5, 3, 101, 1)


def test_sampled_moment_checks_its_batch_size_before_sampling(monkeypatch):
    # sample_size x (g + 1) int64 batch sums: 51 x 2 = 102 entries pass a budget
    # of 100, which the 25 entries of the prime tables to degree 1 do not
    drawn = []
    monkeypatch.setattr(polyring, "_TABLE_BUDGET", 100)
    monkeypatch.setattr(scan, "sample_codes", lambda *a: drawn.append(a))
    with pytest.raises(ResourceCapError, match="^a sample of 51 curves to degree 1 needs 102 batch"):
        sampled_moment(5, 1, 51, seed=1)
    assert drawn == []
    monkeypatch.undo()
    with pytest.raises(ResourceCapError, match="needs 3000000000000 batch entries, past the cap$"):
        sampled_moment(5, 2, 10**12, seed=1)


def test_sample_codes_properties():
    q, d = 5, 7
    codes = sample_codes(q, d, 64, seed=3)
    again = sample_codes(q, d, 64, seed=3)
    other = sample_codes(q, d, 64, seed=4)
    assert np.array_equal(codes, again)
    assert not np.array_equal(codes, other)
    assert codes.shape == (64,)
    for code in codes:
        D = monic_by_code(int(code), d, q)
        assert squarefree(D, q)


@pytest.mark.parametrize("q", [3, 5, 7, 19, 23, 31, 37, 101])
def test_sample_codes_equal_the_scalar_oracle(q):
    # 19 and 23 sit on either side of the pre-pass bound, d = 9 is verify's
    # shape, and counts past 64 take several batches
    for d in (0, 1, 2, 3, 9):
        for count in (1, 63, 64, 65, 700):
            for seed in (0, 1, 7):
                codes = sample_codes(q, d, count, seed)
                assert codes.dtype == np.int64
                assert codes.tolist() == sample_codes_by_scalar_test(q, d, count, seed).tolist(), (
                    d, count, seed,
                )


def _scalar_calls(monkeypatch, q, d, count, seed):
    """The polynomials scan.squarefree is called on by sample_codes(q, d, count, seed), in order."""
    calls = []
    monkeypatch.setattr(scan, "squarefree", lambda D, q: calls.append(D) or squarefree(D, q))
    codes = sample_codes(q, d, count, seed)
    monkeypatch.undo()
    assert codes.tolist() == sample_codes_by_scalar_test(q, d, count, seed).tolist()
    return calls


def _tested_draws(q, d, count, seed, prepass):
    """The draws of sample_codes' batches up to the count-th accepted one, as (index, D, kept)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    out, accepted = [], 0
    while accepted < count:
        batch = rng.integers(0, q**d, size=max(64, count), dtype=np.int64)
        kept = {i for i, _ in scan._survivors(batch, q, d)} if prepass else range(len(batch))
        for i, code in enumerate(batch.tolist()):
            D = monic_by_code(code, d, q)
            out.append((i, D, i in kept))
            if i in kept and squarefree(D, q):
                accepted += 1
                if accepted == count:
                    break
    return out


def test_prepass_strikes_only_draws_with_a_square_linear_factor(monkeypatch):
    q, d, count, seed = 5, 11, 2000, 1
    draws = _tested_draws(q, d, count, seed, prepass=True)
    struck = [D for _, D, kept in draws if not kept]
    squares = [mul((-a % q, 1), (-a % q, 1), q) for a in range(q)]
    assert len(struck) > count // 20  # about 1/q of the draws
    for D in struck:
        assert any(rem(D, S, q) == () for S in squares), D
    # the scalar test decides each survivor once, up to the last accepted draw
    assert _scalar_calls(monkeypatch, q, d, count, seed) == [D for _, D, kept in draws if kept]


@pytest.mark.parametrize("q", [37, 101])
def test_scalar_test_sees_every_draw_past_the_strike_limit(monkeypatch, q):
    d, count, seed = 5, 300, 1
    assert q > scan.STRIKE_LIMIT
    draws = _tested_draws(q, d, count, seed, prepass=False)
    assert _scalar_calls(monkeypatch, q, d, count, seed) == [D for _, D, _ in draws]


def test_sampled_moment_deterministic_and_exact_per_curve():
    sm1 = sampled_moment(5, 2, 200, seed=9)
    sm2 = sampled_moment(5, 2, 200, seed=9)
    assert sm1 == sm2
    assert sm1.ensemble_size == EnsembleSpec(5, 2).size
    assert sm1.sample_size == 200
    # the sample mean is an exact average of per-curve central values
    codes = sample_codes(5, 5, 200, seed=9)
    total = None
    for code in codes:
        D = monic_by_code(int(code), 5, 5)
        v = afe_central_value(D, 5)
        total = v if total is None else total + v
    from fractions import Fraction

    mean = total.scale(Fraction(1, 200))
    assert sm1.mean == mean
    assert sm1.total_estimate == mean.scale(Fraction(sm1.ensemble_size))


def test_sampled_moment_large_genus_smoke():
    # genus above the exhaustive cap still works through sampling
    sm = sampled_moment(5, 6, 50, seed=2)
    assert sm.sample_size == 50
    assert float(sm.mean) > 0
