"""The benchmark's workloads: the CLI command each one runs and its output gate.

A gate looks at one finished command (exit code, stdout, the files it wrote)
and returns a list of problems.  An empty list means the command produced the
exact answer: frozen values for the exhaustive moments, and for the seeded
workloads either the report recorded from the seed commit (for the seeds in
reference.json) or the invariants that need no reference.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

# Frozen by the exhaustive reference scans over F_5 with cutoff 10; copied from
# criterion 8 of tests/test_acceptance.py.
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

VERIFY_CHECKS = (
    "coefficient_endpoints",
    "functional_equation",
    "two_block_center_identity",
    "root_modulus",
    "point_count_oracle",
    "reciprocity",
)


@dataclass(frozen=True)
class Outcome:
    """One finished command: exit code, stdout and its private directory."""

    exit_code: int
    stdout: str
    workdir: Path


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[int, Path], list]  # (seed, private dir) -> CLI arguments
    gate: Callable[[Outcome, int, dict], list]  # (outcome, seed, reference) -> problems
    curves: int  # curves one command processes, for curves_per_s
    threads: int
    must_fire: tuple  # spans that must record at least one call in a traced run
    exact_counts: dict  # per-layer counts that must come out exactly so


def digest(text: str) -> str:
    """sha256 of a command's output; reference.json stores these."""
    return hashlib.sha256(text.encode()).hexdigest()


def _sqrtq(cell: dict) -> tuple:
    return Fraction(cell["a"]), Fraction(cell["b"])


def _close(x: float, y: float) -> bool:
    return math.isclose(x, y, rel_tol=1e-12, abs_tol=0.0)


def _parse_json(text: str, problems: list):
    try:
        return json.loads(text)
    except ValueError as e:
        problems.append(f"output is not JSON: {e}")
        return None


def _moment_row_problems(row: dict, q: int) -> list:
    """Invariants every moment row satisfies, whatever the mode or seed."""
    problems = []
    total = _sqrtq(row["moment"])
    square = _sqrtq(row["square_part"])
    nonsquare = _sqrtq(row["nonsquare_part"])
    if (total[0], total[1]) != (square[0] + nonsquare[0], square[1] + nonsquare[1]):
        problems.append(f"g={row['g']}: moment is not square_part + nonsquare_part")
    if square[1] != 0:
        problems.append(f"g={row['g']}: square part has a sqrt(q) component")
    if not _close(row["moment_float"], float(total[0]) + float(total[1]) * math.sqrt(q)):
        problems.append(f"g={row['g']}: moment_float disagrees with the exact moment")
    if not _close(row["ratio"], row["moment_float"] / row["main_term_float"]):
        problems.append(f"g={row['g']}: ratio is not moment / main term")
    return problems


# ---------------------------------------------------------------------------
# exhaustive: the criterion-8 ladder, q = 5, g = 1..4


def _exhaustive_argv(seed: int, workdir: Path) -> list:
    del seed  # the ensemble is enumerated, not sampled
    return [
        "moment", "--q", "5", "--g", "1", "--g-max", "4", "--threads", "2",
        "--checkpoint", str(workdir / "checkpoint.json"),
    ]


def _exhaustive_gate(out: Outcome, seed: int, ref: dict) -> list:
    if out.exit_code != 0:
        return [f"exit code {out.exit_code}"]
    problems = []
    if "exhaustive" in ref and digest(out.stdout) != ref["exhaustive"]:
        problems.append("report differs from the reference recorded at the seed commit")
    rep = _parse_json(out.stdout, problems)
    if rep is None:
        return problems
    rows = rep.get("rows", [])
    if [r.get("g") for r in rows] != [1, 2, 3, 4]:
        return problems + [f"expected rows for g = 1..4, got {[r.get('g') for r in rows]}"]
    for row in rows:
        g = row["g"]
        if (row["q"], row["mode"]) != (5, "exhaustive"):
            problems.append(f"g={g}: wrong q or mode")
        if row["ensemble_size"] != 4 * 5 ** (2 * g):
            problems.append(f"g={g}: ensemble size {row['ensemble_size']}")
        a, b = _sqrtq(row["moment"])
        if a != FROZEN_MOMENT[g] or b != 0:
            problems.append(f"g={g}: moment {a} + {b} sqrt(5), expected {FROZEN_MOMENT[g]}")
        if not math.isclose(row["ratio"], FROZEN_RATIO[g], rel_tol=0.0, abs_tol=1e-12):
            problems.append(f"g={g}: ratio {row['ratio']}, expected {FROZEN_RATIO[g]}")
        problems += _moment_row_problems(row, 5)
    try:
        state = json.loads((out.workdir / "checkpoint.json").read_text())
    except (OSError, ValueError) as e:
        return problems + [f"checkpoint unreadable: {e}"]
    if (state.get("q"), state.get("g")) != (5, 4):
        problems.append("checkpoint is not the g=4 scan at q=5")
    if not state.get("done") or state["done"] != list(range(len(state["done"]))):
        problems.append("checkpoint does not list every chunk as done")
    return problems


# ---------------------------------------------------------------------------
# sampled: g = 5 at q = 5, the first genus the exhaustive cap refuses


def _sampled_argv(seed: int, workdir: Path) -> list:
    del workdir
    return [
        "moment", "--q", "5", "--g", "5", "--mode", "sample",
        "--sample-size", "50000", "--seed", str(seed),
    ]


def _sampled_gate(out: Outcome, seed: int, ref: dict) -> list:
    if out.exit_code != 0:
        return [f"exit code {out.exit_code}"]
    problems = []
    recorded = ref.get("sampled", {}).get(str(seed))
    if recorded is not None and digest(out.stdout) != recorded:
        problems.append("report differs from the reference recorded for this seed")
    rep = _parse_json(out.stdout, problems)
    if rep is None:
        return problems
    rows = rep.get("rows", [])
    if len(rows) != 1:
        return problems + [f"expected one row, got {len(rows)}"]
    row = rows[0]
    want = {
        "q": 5, "g": 5, "mode": "sample", "sample_size": 50000, "seed": seed,
        "ensemble_size": 4 * 5**10, "cutoff": 10,
    }
    for key, value in want.items():
        if row.get(key) != value:
            problems.append(f"{key} = {row.get(key)!r}, expected {value!r}")
    if "sampled_main_term" in ref and row["main_term"] != ref["sampled_main_term"]:
        problems.append("main term differs from the seed commit's")
    problems += _moment_row_problems(row, 5)
    stderr = row["stderr"]
    if not (isinstance(stderr, float) and math.isfinite(stderr) and stderr > 0):
        problems.append(f"standard error {stderr!r} is not a positive number")
    else:
        # the sample mean sits within a few standard errors of the main term
        n = row["ensemble_size"]
        gap = abs(row["moment_float"] - row["main_term_float"]) / n
        if gap > 6 * stderr:
            problems.append(f"sample mean is {gap / stderr:.1f} standard errors off the main term")
    return problems


# ---------------------------------------------------------------------------
# verify: the cross-route suite at q = 3, g = 4 (sampled mode, 2000 curves)


def _verify_argv(seed: int, workdir: Path) -> list:
    return ["verify", "--q", "3", "--g", "4", "--seed", str(seed), "--out", str(workdir / "verify.json")]


def _verify_gate(out: Outcome, seed: int, ref: dict) -> list:
    problems = [] if out.exit_code == 0 else [f"exit code {out.exit_code}"]
    try:
        report = (out.workdir / "verify.json").read_text()
    except OSError as e:
        return problems + [f"report unreadable: {e}"]
    recorded = ref.get("verify", {}).get(str(seed))
    if recorded is not None and [digest(report), digest(out.stdout)] != recorded:
        problems.append("report differs from the reference recorded for this seed")
    rep = _parse_json(report, problems)
    if rep is None:
        return problems
    checks = {c["name"]: c for c in rep.get("checks", [])}
    if (rep.get("schema"), rep.get("q"), rep.get("g")) != ("hyperell-verify-v1", 3, 4):
        problems.append("wrong schema, q or g in the report")
    missing = [name for name in VERIFY_CHECKS if name not in checks]
    if missing:
        problems.append(f"checks missing: {missing}")
    failed = [name for name, c in checks.items() if c["passed"] is not True]
    if failed or rep.get("failures"):
        problems.append(f"checks failed: {failed or rep.get('failures')}")
    lines = [f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}" for c in rep.get("checks", [])]
    if out.stdout.splitlines() != lines + [f"verify: ok ({len(lines)} checks)"]:
        problems.append("stdout does not match the report")
    details = {name: c["details"] for name, c in checks.items()}
    want = {
        "functional_equation": {"curves": 2000, "mode": "sample"},
        "two_block_center_identity": {"curves": 2000},
        "point_count_oracle": {"curves": 100, "mismatches": 0},
        "reciprocity": {"pairs": 200, "failed": 0},
    }
    for name, fields in want.items():
        for key, value in fields.items():
            if details.get(name, {}).get(key) != value:
                problems.append(f"{name}.{key} = {details.get(name, {}).get(key)!r}, expected {value!r}")
    return problems


# Wrappers every workload fires.
_ALWAYS = ("cli.main", "polyring.shared_table", "polyring.extend", "polyring.factorize", "scan.prime_residue_table")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="exhaustive",
            argv=_exhaustive_argv,
            gate=_exhaustive_gate,
            curves=sum(4 * 5 ** (2 * g) for g in range(1, 5)),
            threads=2,
            must_fire=_ALWAYS + (
                "asymptotics.euler_constants", "asymptotics.first_moment_main_term",
                "scan.moment_scan", "scan.squarefree_mask", "scan.char_sum_table_scan",
                "scan.jacobi_residue_table", "scan.checkpoint",
            ),
            exact_counts={"scan.summands": 970, "scan.prime_tables": 205},
        ),
        Workload(
            name="sampled",
            argv=_sampled_argv,
            gate=_sampled_gate,
            curves=50000,
            threads=1,
            must_fire=_ALWAYS + (
                "asymptotics.euler_constants", "asymptotics.first_moment_main_term",
                "scan.sample_codes", "polyring.squarefree", "scan.batch_coefficients",
                "scan.batch_coprime_counts",
            ),
            exact_counts={"scan.prime_tables": 829, "scan.batch_curves": 50000},
        ),
        Workload(
            name="verify",
            argv=_verify_argv,
            gate=_verify_gate,
            curves=2000,
            threads=1,
            must_fire=_ALWAYS + (
                "verify.run_identity_suite", "scan.sample_codes", "polyring.squarefree",
                "scan.batch_coefficients", "lfunction.rh_root_deviation", "curve.zeta_numerator",
                "extfield.eval_poly", "extfield.is_square", "characters.jacobi",
            ),
            exact_counts={
                "scan.prime_tables": 1318,
                "curve.oracle_curves": 100,
                "extfield.evals": 12000,
            },
        ),
    )
}

# The negative control: the verify suite with one coefficient corrupted.  It
# must exit non-zero and the verify gate must reject its report.
NEGATIVE_CONTROL_SEED = 1


def negative_control_argv(workdir: Path) -> list:
    return _verify_argv(NEGATIVE_CONTROL_SEED, workdir) + ["--inject-fault"]


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())
