"""Cross-route identity suites.

Each suite pits independent computation paths against each other on a whole
ensemble (or a seeded sample when the ensemble is large): enumeration count
against the closed form, batch character sums against the coefficient
symmetry, the two-block central-value formula against direct evaluation,
point counting against character sums, the reciprocity law, and the square
sieve.  All comparisons are exact except the root-modulus diagnostic, which
carries a pinned tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import curve, scan
from .characters import reciprocity_holds
from .ensemble import EnsembleSpec, expected_value, expected_value_sieved
from .lfunction import (
    RH_TOL,
    LPolynomial,
    afe_central_value,
    rh_root_deviation,
    scaled_center_coords,
    two_block_weights,
)
from .polyring import degree, gcd, monic_by_code

EXHAUSTIVE_LIMIT = 10_000
ORACLE_LIMIT = 100  # curves checked against the point-count oracle
RECIPROCITY_PAIRS = 200  # random coprime pairs put through the reciprocity law


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: dict


def run_identity_suite(
    q: int,
    g: int,
    *,
    sample_size: int = 2000,
    seed: int = 1,
    inject_fault: bool = False,
) -> list:
    """Run every applicable cross-check for one (q, g); returns CheckResults."""
    spec = EnsembleSpec(q, g)
    if sample_size < 1:
        raise ValueError(f"sample_size must be >= 1, got {sample_size}")
    d = spec.poly_degree
    results: list = []

    exhaustive = spec.size <= EXHAUSTIVE_LIMIT
    if exhaustive:
        mask = scan.squarefree_mask(q, d)
        codes = np.nonzero(mask)[0].astype(np.int64)
        results.append(
            CheckResult(
                name="ensemble_count",
                passed=len(codes) == spec.size,
                details={"enumerated": int(len(codes)), "closed_form": spec.size},
            )
        )
    else:
        codes = scan.sample_codes(q, d, sample_size, seed)

    a = scan.batch_coefficients(q, d, codes, 2 * g)
    if inject_fault:
        a = a.copy()
        a[0, 1] += 1  # negative control: corrupt one coefficient

    ok_const = bool((a[:, 0] == 1).all())
    ok_lead = bool((a[:, 2 * g] == q**g).all())
    results.append(
        CheckResult(
            name="coefficient_endpoints",
            passed=ok_const and ok_lead,
            details={"constant_term_one": ok_const, "leading_is_q_pow_g": ok_lead},
        )
    )

    fe_ok = all(
        bool((a[:, n] * q ** (g - n) == a[:, 2 * g - n]).all()) for n in range(g + 1)
    )
    results.append(
        CheckResult(
            name="functional_equation",
            passed=fe_ok,
            details={"curves": int(len(codes)), "mode": "exhaustive" if exhaustive else "sample"},
        )
    )

    # both routes scaled by q^g: the full polynomial at the center, and the
    # two-block formula on the coefficients up to g
    center = scaled_center_coords(a.T, q, g)
    afe = scaled_center_coords(a.T[: g + 1], q, g, two_block_weights(g))
    afe_ok = all(bool((c == f).all()) for c, f in zip(center, afe))
    results.append(
        CheckResult(
            name="two_block_center_identity",
            passed=afe_ok,
            details={"curves": int(len(codes))},
        )
    )

    worst = 0.0
    for row, code in zip(a, codes):
        L = LPolynomial(q=q, D=monic_by_code(int(code), d, q), coeffs=tuple(int(x) for x in row), lam=0)
        worst = max(worst, rh_root_deviation(L))
    results.append(
        CheckResult(
            name="root_modulus",
            passed=worst <= RH_TOL,
            details={"worst_relative_deviation": worst, "tolerance": RH_TOL},
        )
    )

    if g <= 6:
        if exhaustive and len(codes) <= ORACLE_LIMIT:
            oracle_codes = codes
        elif exhaustive:
            rng = np.random.Generator(np.random.PCG64(seed))
            oracle_codes = rng.choice(codes, size=ORACLE_LIMIT, replace=False)
        else:
            oracle_codes = codes[:ORACLE_LIMIT]
        code_index = {int(c): i for i, c in enumerate(codes)}
        mismatches = 0
        for code in oracle_codes:
            D = monic_by_code(int(code), d, q)
            zc = curve.zeta_numerator(D, q).coeffs
            if list(zc) != list(a[code_index[int(code)]]):
                mismatches += 1
        results.append(
            CheckResult(
                name="point_count_oracle",
                passed=mismatches == 0,
                details={"curves": int(len(oracle_codes)), "mismatches": mismatches},
            )
        )

    results.append(_reciprocity_suite(q, seed))

    if spec.monic_count <= 2500:
        direct = expected_value(lambda D: afe_central_value(D, q), q, g)
        sieved = expected_value_sieved(lambda D: afe_central_value(D, q), q, g)
        results.append(
            CheckResult(
                name="square_sieve_identity",
                passed=direct == sieved,
                details={"average": str(direct)},
            )
        )

    return results


def _reciprocity_suite(q: int, seed: int) -> CheckResult:
    rng = np.random.Generator(np.random.PCG64(seed + 1))
    max_deg = 5
    checked = 0
    failed = 0
    while checked < RECIPROCITY_PAIRS:
        da = int(rng.integers(1, max_deg + 1))
        db = int(rng.integers(1, max_deg + 1))
        A = monic_by_code(int(rng.integers(0, q**da)), da, q)
        B = monic_by_code(int(rng.integers(0, q**db)), db, q)
        if degree(gcd(A, B, q)) != 0:
            continue
        checked += 1
        if not reciprocity_holds(A, B, q):
            failed += 1
    return CheckResult(
        name="reciprocity",
        passed=failed == 0,
        details={"pairs": RECIPROCITY_PAIRS, "failed": failed, "max_degree": max_deg},
    )
