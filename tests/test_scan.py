"""Tests for the vectorized ensemble scan engine."""

import json
import os
import shutil

import numpy as np
import pytest

import hyperell.scan as scan
from hyperell.characters import jacobi, residue_symbol_prime
from hyperell.ensemble import EnsembleSpec, first_moment
from hyperell.lfunction import afe_central_value, dirichlet_coefficient
from hyperell.polyring import (
    factorize,
    monic_by_code,
    monic_polys,
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


def test_jacobi_residue_table_matches_jacobi():
    q = 3
    for dn in (1, 2, 3):
        for f in monic_polys(dn, q):
            t = jacobi_residue_table(factorize(f, q)[1], q)
            for code in range(q**dn):
                r = poly_of_code(code, q)
                assert t[code] == jacobi(r, f, q), (f, r)


def test_char_sum_table_scan_matches_brute_force():
    # square f, repeated primes, and both sides of deg B < deg f
    for q, g in [(3, 2), (3, 3), (5, 2), (7, 1)]:
        d = 2 * g + 1
        mask = squarefree_mask(q, d)
        Ds = [monic_by_code(code, d, q) for code in range(q**d) if mask[code]]
        for n in range(1, g + 1):
            for f in monic_polys(n, q):
                brute = sum(jacobi(D, f, q) for D in Ds)
                assert char_sum_table_scan(factorize(f, q)[1], q, d) == brute, (q, g, f)


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


def test_size_cap_refusal(monkeypatch):
    monkeypatch.setattr(scan, "DEFAULT_SIZE_CAP", 10)
    with pytest.raises(ResourceCapError):
        moment_scan(3, 2)
    acc, _ = moment_scan(3, 2, force=True)
    assert acc == first_moment(3, 2)


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
    state = json.load(open(path))
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
    cp = str(tmp_path / "ck.json")
    moment_scan(3, 1, checkpoint_path=cp)
    state = json.load(open(cp))
    state["done"] = [999]
    with open(cp, "w") as fh:
        json.dump(state, fh)
    with pytest.raises(ValueError):
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
            counts = batch_coprime_counts(q, d, codes, half_deg)
            for row, code in enumerate(codes):
                D = monic_by_code(int(code), d, q)
                direct = sum(
                    1 for l in monic_polys(half_deg, q) if degree(gcd(D, l, q)) == 0
                )
                assert counts[row] == direct, (q, half_deg, D)


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
