"""The benchmark's span tracer on small commands, each in a fresh process.

It reads benchmarks/ only: for each workload, every wrapper that workload
must fire records a call on a small command of the same kind, and the
layer counts come out at their closed forms.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from hyperell.polyring import irreducible_count

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmarks"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _trace(tmp_path, workload: str, argv: list) -> dict:
    """Run `hyperell argv` under benchmarks/spans.py; check the workload's must_fire list."""
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "spans.py"), str(spans_path), "test", "--", *argv],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    metrics, calls = _load("spans").layer_metrics(json.loads(spans_path.read_text()))
    missing = [n for n in _load("workloads").WORKLOADS[workload].must_fire if not calls.get(n)]
    assert missing == []
    return metrics


def test_spans_exhaustive_factors_each_summand_once(tmp_path):
    metrics = _trace(tmp_path, "exhaustive", [
        "moment", "--q", "3", "--g", "1", "--g-max", "2", "--threads", "2",
        "--checkpoint", str(tmp_path / "checkpoint.json"),
    ])
    # summands: the monic f of degree 1 at g=1, and of degrees 1 and 2 at g=2
    assert metrics["scan.summands"] == 3 + (3 + 9)
    assert metrics["polyring.factorize_calls"] == metrics["scan.summands"]


def test_spans_sampled_fires_every_pin(tmp_path):
    metrics = _trace(tmp_path, "sampled", [
        "moment", "--q", "3", "--g", "2", "--mode", "sample", "--sample-size", "200", "--seed", "1",
    ])
    # one prime table per monic irreducible of degree <= g
    assert metrics["scan.prime_tables"] == sum(irreducible_count(3, m) for m in (1, 2)) == 6
    assert metrics["scan.batch_curves"] == 200


def test_spans_verify_fires_every_pin(tmp_path):
    # 6 * 7^4 = 14406 curves is past verify.EXHAUSTIVE_LIMIT, so the suite samples
    metrics = _trace(tmp_path, "verify", [
        "verify", "--q", "7", "--g", "2", "--sample-size", "50", "--seed", "1",
    ])
    # one prime table per monic irreducible of degree <= 2g
    assert metrics["scan.prime_tables"] == sum(irreducible_count(7, m) for m in range(1, 5)) == 728
