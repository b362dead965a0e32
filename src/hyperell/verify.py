"""Cross-route identity suites.

Each suite pits independent computation paths against each other on a whole
ensemble (or a seeded sample when the ensemble is large): enumeration count
against the closed form, batch character sums against the coefficient
symmetry, the two-block central-value formula against direct evaluation,
point counting against character sums, the reciprocity law, and the square
sieve.  Every decision is exact: the root-modulus check passes a curve by
an integer Sturm certificate, and its worst float deviation is reported
beside the bound RH_TOL.  A failing check names its first failing curve code
in its details.
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
    functional_equation_defect,
    functional_equation_holds,
    rh_root_check,
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
    scan._check_at_least("sample_size", sample_size, 1)
    scan._check_at_least("seed", seed, 0)
    scan._check_table_budget(q, 2 * g)  # the batch coefficients reach degree 2g
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

    Ls = [
        LPolynomial(q=q, D=monic_by_code(int(code), d, q), coeffs=tuple(int(x) for x in row), lam=0)
        for row, code in zip(a, codes)
    ]
    fe_details = {"curves": int(len(codes)), "mode": "exhaustive" if exhaustive else "sample"}
    fe_bad = next((i for i, L in enumerate(Ls) if not functional_equation_holds(L)), None)
    if fe_bad is not None:
        fe_details["first_failing_code"] = int(codes[fe_bad])
        fe_details["coefficient_index"] = functional_equation_defect(Ls[fe_bad])
    results.append(
        CheckResult(name="functional_equation", passed=fe_bad is None, details=fe_details)
    )

    # both routes scaled by q^g: the full polynomial at the center, and the
    # two-block formula on the coefficients up to g
    center = scaled_center_coords(a.T, q, g)
    afe = scaled_center_coords(a.T[: g + 1], q, g, two_block_weights(g))
    afe_bad = np.nonzero((center[0] != afe[0]) | (center[1] != afe[1]))[0]
    afe_details = {"curves": int(len(codes))}
    if len(afe_bad):
        afe_details["first_failing_code"] = int(codes[afe_bad[0]])
    results.append(
        CheckResult(name="two_block_center_identity", passed=afe_bad.size == 0, details=afe_details)
    )

    roots = [rh_root_check(L) for L in Ls]
    rh_details = {"worst_relative_deviation": max(dev for _, dev in roots), "tolerance": RH_TOL}
    rh_bad = next((i for i, (ok, _) in enumerate(roots) if not ok), None)
    if rh_bad is not None:
        rh_details["first_failing_code"] = int(codes[rh_bad])
    results.append(CheckResult(name="root_modulus", passed=rh_bad is None, details=rh_details))

    if exhaustive and len(codes) > ORACLE_LIMIT:
        rng = np.random.Generator(np.random.PCG64(seed))
        oracle_rows = rng.choice(len(codes), size=ORACLE_LIMIT, replace=False)
    else:
        oracle_rows = range(min(len(codes), ORACLE_LIMIT))
    mismatches = 0
    for i in oracle_rows:
        zc = curve.zeta_numerator(monic_by_code(int(codes[i]), d, q), q).coeffs
        if list(zc) != list(a[i]):
            mismatches += 1
    results.append(
        CheckResult(
            name="point_count_oracle",
            passed=mismatches == 0,
            details={"curves": len(oracle_rows), "mismatches": mismatches},
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
