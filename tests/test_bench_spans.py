"""The benchmark's span tracer on a small exhaustive scan, in a fresh process.

It reads benchmarks/ only: every wrapper the `exhaustive` workload must fire
records a call, and the scan factors each summand f exactly once.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmarks"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_spans_exhaustive_factors_each_summand_once(tmp_path):
    spans_path = tmp_path / "spans.json"
    argv = [
        "moment", "--q", "3", "--g", "1", "--g-max", "2", "--threads", "2",
        "--checkpoint", str(tmp_path / "checkpoint.json"),
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "spans.py"), str(spans_path), "test", "--", *argv],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    metrics, calls = _load("spans").layer_metrics(json.loads(spans_path.read_text()))
    missing = [n for n in _load("workloads").WORKLOADS["exhaustive"].must_fire if not calls.get(n)]
    assert missing == []
    # summands: the monic f of degree 1 at g=1, and of degrees 1 and 2 at g=2
    assert metrics["scan.summands"] == 3 + (3 + 9)
    assert metrics["polyring.factorize_calls"] == metrics["scan.summands"]
