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
    monic_by_code,
    monic_polys,
    poly_code,
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


@pytest.mark.parametrize("q,g", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2)])
def test_squarefree_mask_count(q, g):
    d = 2 * g + 1
    mask = squarefree_mask(q, d, shared_table(q, max(1, d // 2)))
    assert int(mask.sum()) == EnsembleSpec(q, g).size


def test_squarefree_mask_agrees_pointwise():
    q, d = 3, 5
    mask = squarefree_mask(q, d, shared_table(q, 2))
    for code in range(q**d):
        D = monic_by_code(code, d, q)
        assert bool(mask[code]) == squarefree(D, q)


@pytest.mark.parametrize("q", [3, 5])
def test_prime_residue_table_matches_symbol(q):
    table = shared_table(q, 2)
    for dp in (1, 2):
        for P in table.irreducibles(dp):
            t = prime_residue_table(P, q)
            for code in range(q**dp):
                from hyperell.polyring import poly_of_code

                f = poly_of_code(code, q)
                assert t[code] == residue_symbol_prime(f, P, q)


def test_jacobi_residue_table_matches_jacobi():
    q = 3
    table = shared_table(q, 2)
    for dn in (1, 2, 3):
        for f in monic_polys(dn, q):
            t = jacobi_residue_table(f, q, table)
            from hyperell.polyring import poly_of_code

            for code in range(q**dn):
                r = poly_of_code(code, q)
                assert t[code] == jacobi(r, f, q), (f, r)


def test_char_sum_table_scan_matches_brute_force():
    from hyperell.characters import chi

    q, g = 3, 2
    d = 2 * g + 1
    table = shared_table(q, 2)
    mask = squarefree_mask(q, d, table)
    for n in (1, 2):
        for f in monic_polys(n, q):
            brute = 0
            for code in range(q**d):
                if not mask[code]:
                    continue
                D = monic_by_code(code, d, q)
                brute += chi(D, f, q)
            assert char_sum_table_scan(f, q, d, mask, table) == brute


@pytest.mark.parametrize("q,g", [(3, 1), (3, 2), (5, 1)])
def test_moment_scan_matches_reference(q, g):
    acc, meta = moment_scan(q, g)
    ref = first_moment(q, g)
    assert acc == ref
    assert meta.q == q and meta.g == g


def test_moment_scan_thread_determinism():
    a1, m1 = moment_scan(3, 2, threads=1)
    a2, m2 = moment_scan(3, 2, threads=2)
    a3, m3 = moment_scan(3, 2, threads=3, chunk_size=7)
    assert a1 == a2 == a3
    assert m1.square_sums == m2.square_sums
    assert m1.nonsquare_sums == m3.nonsquare_sums


def test_size_cap_refusal():
    with pytest.raises(ResourceCapError):
        moment_scan(3, 2, size_cap=10)
    acc, _ = moment_scan(3, 2, size_cap=10, force=True)
    assert acc == first_moment(3, 2)


def test_checkpoint_resume(tmp_path):
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
        a1, m1 = moment_scan(3, 3, checkpoint_path=cp, chunk_size=16)
    finally:
        scan._write_checkpoint = real_write
    assert a1 == full
    assert len(copies) == m1.chunks
    # resume from the state written after the first chunk
    shutil.copy(copies[0], cp)
    a2, _ = moment_scan(3, 3, checkpoint_path=cp, resume=True, chunk_size=16)
    assert a2 == full
    # a finished checkpoint resumes to the same answer without recomputing
    a3, _ = moment_scan(3, 3, checkpoint_path=cp, resume=True, chunk_size=16)
    assert a3 == full


def test_checkpoint_config_mismatch(tmp_path):
    cp = str(tmp_path / "ck.json")
    moment_scan(3, 1, checkpoint_path=cp)
    with pytest.raises(ValueError):
        moment_scan(3, 1, checkpoint_path=cp, resume=True, chunk_size=5)
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
    table = shared_table(q, 1)
    mask = squarefree_mask(q, d, table)
    codes = np.nonzero(mask)[0]
    a = batch_coefficients(q, d, codes, 2 * g, table)
    for row, code in enumerate(codes):
        D = monic_by_code(int(code), d, q)
        for n in range(2 * g + 1):
            assert a[row, n] == dirichlet_coefficient(D, n, q)


def test_batch_coefficients_match_naive_q5():
    q, g = 5, 1
    d = 2 * g + 1
    table = shared_table(q, 1)
    mask = squarefree_mask(q, d, table)
    codes = np.nonzero(mask)[0][:40]
    a = batch_coefficients(q, d, codes, 2, table)
    for row, code in enumerate(codes):
        D = monic_by_code(int(code), d, q)
        for n in range(3):
            assert a[row, n] == dirichlet_coefficient(D, n, q)


def test_batch_coprime_counts():
    from hyperell.polyring import degree, gcd

    q, d = 3, 3
    table = shared_table(q, 1)
    mask = squarefree_mask(q, d, table)
    codes = np.nonzero(mask)[0]
    counts = batch_coprime_counts(q, d, codes, 1, table)
    zero_deg = batch_coprime_counts(q, d, codes, 0, table)
    for row, code in enumerate(codes):
        D = monic_by_code(int(code), d, q)
        direct = sum(
            1 for l in monic_polys(1, q) if degree(gcd(D, l, q)) == 0
        )
        assert counts[row] == direct
        assert zero_deg[row] == 1


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
