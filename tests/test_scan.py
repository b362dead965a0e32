"""Tests for the vectorized ensemble scan engine."""

import json
import os
import shutil
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import hyperell.scan as scan
from hyperell.characters import jacobi, residue_symbol_prime
from hyperell.ensemble import EnsembleSpec, first_moment
from hyperell.lfunction import afe_central_value, dirichlet_coefficient
from hyperell.polyring import (
    degree,
    factorize,
    monic_by_code,
    monic_polys,
    pow_mod,
    shared_table,
    squarefree,
)
from hyperell.scan import (
    ResourceCapError,
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
from support import poly_of_code


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


@pytest.mark.parametrize("q", [3, 5])
def test_prime_residue_table_matches_symbol(q):
    for dp in (1, 2):
        for P in shared_table(q).irreducibles(dp):
            t = prime_residue_table(P, q)
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
    for P in scan._primes_upto(q, n_max):
        t = euler_table(P, q)
        e = (q ** degree(P) - 1) // 2
        for code in range(q ** degree(P)):
            r = pow_mod(poly_of_code(code, q), e, P, q)
            assert t[code] == {(): 0, (1,): 1, (q - 1,): -1}[r], (P, code)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_prime_residue_table_is_the_euler_criterion(q):
    for P in scan._primes_upto(q, 4):
        assert np.array_equal(prime_residue_table(P, q), euler_table(P, q)), P


def test_degree_8_prime_tables_are_the_euler_criterion():
    primes = shared_table(3).irreducibles(8)
    for P in primes[:: len(primes) // 20][:20]:
        assert np.array_equal(prime_residue_table(P, 3), euler_table(P, 3)), P


def test_square_digits_hold_one_degree(monkeypatch):
    monkeypatch.setattr(scan, "_prime_table_cache", {})
    monkeypatch.setattr(scan, "_prime_table_held", 0)
    scan._square_digits.cache_clear()
    for P in scan._primes_upto(5, 2):  # degree 1, then degree 2
        prime_residue_table(P, 5)
    info = scan._square_digits.cache_info()
    assert (info.misses, info.currsize) == (2, 1)
    assert not scan._square_digits(5, 2).flags.writeable
    assert scan._square_digits.cache_info().hits == info.hits + 1  # the degree-2 table stayed


def symbols_upto(q, n):
    """(x/P) over the codes x < q^n for every prime P of degree <= n, as moment_scan builds them."""
    return scan._prime_symbols(scan._digit_matrix(np.arange(q**n), q, n), scan._primes_upto(q, n), q)


def test_jacobi_residue_table_matches_jacobi():
    q = 3
    symbols = symbols_upto(q, 3)  # degrees 1 and 2 read prefix slices
    for dn in (1, 2, 3):
        for f in monic_polys(dn, q):
            t = jacobi_residue_table(factorize(f, q)[1], symbols, q)
            assert len(t) == q**dn
            for code in range(q**dn):
                r = poly_of_code(code, q)
                assert t[code] == jacobi(r, f, q), (f, r)


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
    # the workers read only the symbol vectors built before they start
    callers = []
    table = scan.prime_residue_table

    def traced(P, q):
        callers.append(threading.current_thread() is threading.main_thread())
        return table(P, q)

    monkeypatch.setattr(scan, "prime_residue_table", traced)
    moment_scan(3, 3, threads=2)
    assert callers and all(callers)


@pytest.mark.parametrize("q,g", [(3, 1), (3, 2), (3, 3), (5, 1), (7, 1)])
def test_moment_scan_matches_reference(q, g):
    acc, meta = moment_scan(q, g)
    ref = first_moment(q, g)
    assert acc == ref
    assert meta.q == q and meta.g == g


def test_moment_scan_thread_determinism(monkeypatch):
    a1, m1 = moment_scan(3, 2, threads=1)
    a2, m2 = moment_scan(3, 2, threads=2)
    monkeypatch.setattr(scan, "CHUNK_SIZE", 7)
    a3, m3 = moment_scan(3, 2, threads=3)
    assert a1 == a2 == a3
    assert m1.square_sums == m2.square_sums
    assert m1.nonsquare_sums == m3.nonsquare_sums


def test_moment_scan_checks_table_budget_before_building(monkeypatch):
    built = []
    monkeypatch.setattr(scan, "squarefree_mask", lambda *a: built.append(("mask", a)))
    monkeypatch.setattr(scan, "prime_residue_table", lambda *a: built.append(("table", a)))
    # the prime tables up to degree 2 at q=3 hold 3*3 + 3*9 = 36 entries
    monkeypatch.setattr(scan, "_TABLE_BUDGET", 35)
    with pytest.raises(ResourceCapError, match="past the cap"):
        moment_scan(3, 2)
    assert built == []


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
    assert acc.consistent()
    assert acc.total.b == 0
    assert acc.total.a == Fraction(554831200, 9)


@pytest.mark.parametrize("threads", [0, -4])
def test_threads_below_one_rejected(threads):
    with pytest.raises(ValueError, match="threads"):
        moment_scan(3, 1, threads=threads)


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
    a2, _ = moment_scan(3, 3, checkpoint_path=cp, resume=True)
    assert a2 == full
    # a finished checkpoint resumes to the same answer without recomputing
    a3, _ = moment_scan(3, 3, checkpoint_path=cp, resume=True)
    assert a3 == full


def test_checkpoint_config_mismatch(tmp_path, monkeypatch):
    cp = str(tmp_path / "ck.json")
    moment_scan(3, 1, checkpoint_path=cp)
    monkeypatch.setattr(scan, "CHUNK_SIZE", 5)
    with pytest.raises(ValueError):
        moment_scan(3, 1, checkpoint_path=cp, resume=True)
    monkeypatch.undo()
    with pytest.raises(ValueError):
        moment_scan(3, 2, checkpoint_path=cp, resume=True)


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
        moment_scan(3, 1, checkpoint_path=cp, resume=True)


def test_checkpoint_rejects_square_sums_at_odd_degree(tmp_path):
    cp = str(tmp_path / "ck.json")
    moment_scan(3, 2, checkpoint_path=cp)
    _tamper_checkpoint(cp, square_sums=[0, 7, 0])
    with pytest.raises(ValueError, match="odd degree"):
        moment_scan(3, 2, checkpoint_path=cp, resume=True)


def test_checkpoint_rejects_bad_chunk_ids(tmp_path):
    # and every other malformed state: each must be a ValueError, not a
    # traceback or a silently wrong resume
    cp = str(tmp_path / "ck.json")
    moment_scan(3, 1, checkpoint_path=cp)
    good = json.loads(Path(cp).read_text())
    count = good["square_sums"][0]

    def without(key):
        return {k: v for k, v in good.items() if k != key}

    bad_states = [
        ({**good, "done": [999]}, "out of range"),
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
            moment_scan(3, 1, checkpoint_path=cp, resume=True)


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
    monkeypatch.setattr(scan, "_TABLE_BUDGET", 35)
    with pytest.raises(ResourceCapError, match="past the cap"):
        batch_coprime_counts(q, d, codes, 2)
    monkeypatch.setattr(scan, "_TABLE_BUDGET", 36)
    assert batch_coprime_counts(q, d, codes, 2).shape == (len(codes), 3)


def test_sample_codes_refuses_codes_past_int64():
    with pytest.raises(ValueError, match="do not fit in int64"):
        sample_codes(5, 29, 10, 1)
    with pytest.raises(ValueError, match="do not fit in int64"):
        scan._qpow(5, 28)
    assert scan._qpow(5, 27)[-1] == 5**26  # 5^27 < 2^63


def test_sampled_moment_checks_table_budget_before_sampling(monkeypatch):
    drawn = []
    monkeypatch.setattr(scan, "_TABLE_BUDGET", 1000)
    monkeypatch.setattr(scan, "sample_codes", lambda *a: drawn.append(a))
    with pytest.raises(ResourceCapError, match="cap"):
        sampled_moment(5, 4, 10, seed=1)
    assert drawn == []


def test_prime_table_cache_stays_within_budget(monkeypatch):
    monkeypatch.setattr(scan, "_prime_table_cache", {})
    monkeypatch.setattr(scan, "_prime_table_held", 0)
    monkeypatch.setattr(scan, "_TABLE_BUDGET", 60)
    primes = [P for m in (1, 2) for P in shared_table(5).irreducibles(m)]
    for P in primes:
        assert np.array_equal(prime_residue_table(P, 5), prime_residue_table(P, 5))
    held = sum(t.size for t in scan._prime_table_cache.values())
    assert held == scan._prime_table_held <= 60
    # the newest tables stay, the oldest went first
    assert list(scan._prime_table_cache) == [(5, P) for P in primes[-len(scan._prime_table_cache):]]


def test_sample_codes_properties():
    q, d = 5, 7
    codes = sample_codes(q, d, 64, seed=3)
    again = sample_codes(q, d, 64, seed=3)
    other = sample_codes(q, d, 64, seed=4)
    assert np.array_equal(codes, again)
    assert not np.array_equal(codes, other)
    assert codes.shape == (64,)
    for code in codes[:16]:
        D = monic_by_code(int(code), d, q)
        assert squarefree(D, q)


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
