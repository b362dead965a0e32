"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line on success (run with `pytest -s` to see
them); the pytest verdict for the test is the pass/fail record.  Frozen
numbers in this file were produced once by the exhaustive reference scans
and pinned, so regressions in exact arithmetic show up as hard failures.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from hyperell.asymptotics import (
    euler_constants,
    first_moment_main_term,
    log_deriv_numeric,
)
from hyperell.characters import jacobi, jacobi_factorization, reciprocity_holds
from hyperell.curve import oracle_matches
from hyperell.ensemble import enumerate_ensemble
from hyperell.lfunction import (
    LPolynomial,
    afe_central_value,
    evaluate_center,
    functional_equation_holds,
    l_polynomial,
    rh_root_check,
    scaled_center_coords,
    two_block_weights,
)
from hyperell.polyring import (
    gcd,
    degree,
    monic_by_code,
    monic_polys,
    shared_table,
)
from hyperell.cli import main as cli_main
from hyperell.scan import (
    batch_coefficients,
    ensemble_count,
    moment_scan,
    sample_codes,
    squarefree_mask,
)
from support import (
    aggregated_density_identity_holds,
    coprime_monic_count,
    ensemble_char_sum_bound_holds,
    euler_phi,
    fixed_degree_bound_holds,
    is_perfect_square,
    mobius_expansion_identity_holds,
    radical,
)

# exhaustive families: degree-3 and degree-5 discriminants over F_3, degree-3
# over F_5; the degree-5 family over F_7 is covered by a fixed-seed sample
EXHAUSTIVE = [(3, 1), (3, 2), (5, 1)]
SAMPLED_Q, SAMPLED_G, SAMPLE_SIZE, SAMPLE_SEED = 7, 2, 10_000, 20260822


@pytest.fixture(scope="module")
def exhaustive_sets():
    sets = {}
    for q, g in EXHAUSTIVE:
        d = 2 * g + 1
        mask = squarefree_mask(q, d)
        codes = np.nonzero(mask)[0].astype(np.int64)
        sets[(q, g)] = (codes, batch_coefficients(q, d, codes, 2 * g))
    return sets


@pytest.fixture(scope="module")
def sampled_set():
    d = 2 * SAMPLED_G + 1
    codes = sample_codes(SAMPLED_Q, d, SAMPLE_SIZE, SAMPLE_SEED)
    return codes, batch_coefficients(SAMPLED_Q, d, codes, 2 * SAMPLED_G)


def all_families(exhaustive_sets, sampled_set):
    out = [(q, g, codes, coef) for (q, g), (codes, coef) in exhaustive_sets.items()]
    out.append((SAMPLED_Q, SAMPLED_G, sampled_set[0], sampled_set[1]))
    return out


def test_criterion_1_ensemble_counts():
    for q in (3, 5):
        for g in (1, 2, 3):
            expected = (q - 1) * q ** (2 * g)
            assert ensemble_count(q, g) == expected
            if q ** (2 * g + 1) <= 4000:
                assert sum(1 for _ in enumerate_ensemble(q, g)) == expected
    print("PASS criterion-1 square-free counts equal (q-1)q^(2g) for q in {3,5}, g in {1,2,3}")


def test_criterion_2_functional_equation(exhaustive_sets, sampled_set):
    checked = 0
    for q, g, codes, coef in all_families(exhaustive_sets, sampled_set):
        for n in range(g + 1):
            lhs = coef[:, n].astype(object) * q ** (g - n)
            assert np.array_equal(lhs, coef[:, 2 * g - n].astype(object)), (q, g, n)
        checked += len(codes)
        # object-level route on a few rows for good measure
        for row in coef[:5]:
            L = LPolynomial(q=q, coeffs=tuple(int(c) for c in row), lam=0)
            assert functional_equation_holds(L)
    print(f"PASS criterion-2 coefficient symmetry a_n = a_(2g-n) q^(n-g) exact on {checked} curves")


def test_criterion_3_two_block_identity(exhaustive_sets, sampled_set):
    checked = 0
    for q, g, codes, coef in all_families(exhaustive_sets, sampled_set):
        rat_c, irr_c = scaled_center_coords(coef.T, q, g)
        rat_a, irr_a = scaled_center_coords(coef.T[: g + 1], q, g, two_block_weights(g))
        assert np.array_equal(rat_c, rat_a), (q, g)
        assert np.array_equal(irr_c, irr_a), (q, g)
        checked += len(codes)
    # exact-rational route on one small family
    for D in enumerate_ensemble(3, 1):
        assert afe_central_value(D, 3) == evaluate_center(l_polynomial(D, 3))
    print(f"PASS criterion-3 two-block central value equals the evaluated center on {checked} curves")


def test_criterion_4_point_count_oracle():
    checked = 0
    for q, g in ((3, 1), (3, 2)):
        for D in enumerate_ensemble(q, g):
            assert oracle_matches(D, q), D
            checked += 1
    for code in sample_codes(5, 3, 100, seed=7):
        D = monic_by_code(int(code), 3, 5)
        assert oracle_matches(D, 5), D
        checked += 1
    print(f"PASS criterion-4 character-sum coefficients match point counts on {checked} curves")


def test_criterion_5_root_modulus(exhaustive_sets, sampled_set):
    worst = 0.0
    for q, g, codes, coef in all_families(exhaustive_sets, sampled_set):
        for code, row in zip(codes, coef):
            L = LPolynomial(q=q, coeffs=tuple(int(c) for c in row), lam=0)
            ok, dev = rh_root_check(L)
            assert ok, (q, g, int(code), dev)
            worst = max(worst, dev)
    print(f"PASS criterion-5 all root moduli within 1e-9 of q^(-1/2) (worst deviation {worst:.2e})")


def test_criterion_6_exact_identity_suites():
    # totient sums over fixed degree
    for q in (3, 5):
        table = shared_table(q)
        for n in range(1, 5):
            total = sum(euler_phi(f, q) for f in monic_polys(n, q))
            assert total == q ** (2 * n) - q ** (2 * n - 1), (q, n)

    # coprime counts: closed form against direct enumeration
    for q, max_dl, max_d in ((3, 3, 4), (5, 2, 3)):
        table = shared_table(q)
        for dl in range(1, max_dl + 1):
            for l in monic_polys(dl, q):
                for d in range(degree(radical(l, q)), max_d + 1):
                    direct = sum(
                        1 for N in monic_polys(d, q) if degree(gcd(N, l, q)) == 0
                    )
                    assert coprime_monic_count(d, l, q) == direct, (q, l, d)

    # divisor expansion of the per-modulus density factor
    for q in (3, 5):
        table = shared_table(q)
        for dl in range(1, 5):
            for l in monic_polys(dl, q):
                assert mobius_expansion_identity_holds(l, q), (q, l)

    # degree-aggregated density identity
    for q in (3, 5):
        table = shared_table(q)
        for n in (0, 2, 4, 6):
            assert aggregated_density_identity_holds(n, q), (q, n)

    # quadratic reciprocity, exhaustive on coprime pairs of low degree
    for q in (3, 5):
        monics = [f for n in range(1, 4) for f in monic_polys(n, q)]
        for A in monics:
            for B in monics:
                if degree(gcd(A, B, q)) == 0:
                    assert reciprocity_holds(A, B, q), (q, A, B)

    # Euclidean and factorization Jacobi algorithms agree
    rng = np.random.default_rng(4)
    for q in (3, 5):
        table = shared_table(q)
        pairs = [
            (f, Q)
            for nf in range(1, 3)
            for f in monic_polys(nf, q)
            for nQ in range(1, 3)
            for Q in monic_polys(nQ, q)
        ]
        pairs += [
            (
                monic_by_code(int(rng.integers(q**4)), 4, q),
                monic_by_code(int(rng.integers(q**4)), 4, q),
            )
            for _ in range(200)
        ]
        for f, Q in pairs:
            assert jacobi(f, Q, q) == jacobi_factorization(f, Q, q), (q, f, Q)

    # short character-sum bound, plus forced vanishing past the modulus degree
    for q in (3, 5):
        table = shared_table(q)
        for df in range(1, 5):
            for f in monic_polys(df, q):
                if is_perfect_square(f, q):
                    continue
                for n in range(0, 5):
                    holds, _ = fixed_degree_bound_holds(f, n, q)
                    assert holds, (q, f, n)

    # ensemble character-sum bound at genus 1
    for q in (3, 5):
        table = shared_table(q)
        for df in range(1, 4):
            for f in monic_polys(df, q):
                if is_perfect_square(f, q):
                    continue
                holds, _ = ensemble_char_sum_bound_holds(f, q, 1)
                assert holds, (q, f)

    print("PASS criterion-6 exact identity suites (totient sums, coprime counts, densities, reciprocity, dual Jacobi, character-sum bounds)")


def test_criterion_7_constants_stability():
    for q in (3, 5):
        consts = {N: euler_constants(q, cutoff=N) for N in range(6, 13)}
        for N in range(6, 12):
            drift = abs(consts[N + 1].p_one - consts[N].p_one)
            assert drift <= consts[N].tail_bound, (q, N)
        ec = consts[8]
        numeric = log_deriv_numeric(q, 8)
        assert abs(float(ec.log_deriv) - numeric) < 1e-5, q
    print("PASS criterion-7 Euler-product constants cutoff-stable; exact and numeric derivative paths agree")


# frozen by the one-time exhaustive reference runs over F_5, cutoff 10
FROZEN_MOMENT = {
    1: Fraction(200),
    2: Fraction(7096),
    3: Fraction(229232),
    4: Fraction(35125856, 5),
}
FROZEN_RATIO = {
    1: 0.9949994551690159,
    2: 0.9998782612408987,
    3: 1.0000742155785116,
    4: 0.9999945543662342,
}
FROZEN_SLOPE = 0.4317561834815402


def test_criterion_8_moment_vs_main_term():
    q = 5
    ec = euler_constants(q)
    ratios = []
    log_sizes = []
    log_deltas = []
    for g in range(1, 5):
        acc, _ = moment_scan(q, g)
        assert acc.count == (q - 1) * q ** (2 * g)
        assert acc.total == acc.square_part + acc.nonsquare_part
        assert acc.total.b == 0
        assert acc.total.a == FROZEN_MOMENT[g], (g, acc.total.a)
        main = first_moment_main_term(q, g, ec)
        ratio = float(acc.total.a) / float(main)
        assert math.isclose(ratio, FROZEN_RATIO[g], rel_tol=0.0, abs_tol=1e-12), g
        ratios.append(ratio)
        log_sizes.append(math.log(float(q) ** (2 * g + 1)))
        log_deltas.append(math.log(abs(float(acc.total.a) - float(main))))
    devs = [abs(r - 1.0) for r in ratios]
    assert all(devs[i + 1] < devs[i] for i in range(len(devs) - 1)), devs
    slope = float(np.polyfit(log_sizes, log_deltas, 1)[0])
    assert slope < 1.0
    assert math.isclose(slope, FROZEN_SLOPE, rel_tol=0.0, abs_tol=1e-6), slope
    print(f"PASS criterion-8 exact first moments match frozen values; |ratio-1| strictly decreasing, error exponent {slope:.3f} < 1.0")


def test_criterion_9_deterministic_reports(tmp_path, capsys):
    outs = {"json": [], "csv": []}
    for fmt in ("json", "csv"):
        for i, threads in enumerate(("1", "2")):
            p = tmp_path / f"{fmt}{i}.out"
            code = cli_main(
                [
                    "moment",
                    "--q", "5",
                    "--g", "1",
                    "--g-max", "2",
                    "--threads", threads,
                    "--format", fmt,
                    "--out", str(p),
                ]
            )
            assert code == 0
            outs[fmt].append(p.read_bytes())
    # a seeded sampled run is reproducible too
    for i in range(2):
        p = tmp_path / f"s{i}.out"
        code = cli_main(
            [
                "moment",
                "--q", "7",
                "--g", "2",
                "--mode", "sample",
                "--sample-size", "500",
                "--seed", "99",
                "--out", str(p),
            ]
        )
        assert code == 0
        outs.setdefault("sample", []).append(p.read_bytes())
    capsys.readouterr()
    for fmt, pair in outs.items():
        assert pair[0] == pair[1], fmt
    print("PASS criterion-9 reports byte-identical across thread counts and repeated seeded runs")
