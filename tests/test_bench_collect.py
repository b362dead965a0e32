"""Tests for tools/bench_collect.py on synthetic benchmark result files."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_collect.py"
_spec = importlib.util.spec_from_file_location("bench_collect", _PATH)
bench_collect = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_collect)


def write_record(results, workload, seed, trace, metrics, *, correct=True, failed=0, source="abc"):
    record = {
        "workload": workload,
        "argv": ["moment", "--q", "5"],
        "seconds": 34.0,
        "trace": trace,
        "environment": {
            "git_commit": "0123abc",
            "source_sha256": source,
            "python": "3.11.7",
            "threads": 2,
            "seed": seed,
        },
        "result": {
            "correct": correct,
            "attempted": 3,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()},
        },
    }
    (results / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record))


@pytest.fixture
def results(tmp_path):
    for workload, base in (("exhaustive", 1.0), ("verify", 10.0)):
        for seed, wall in zip((1, 2, 3), (base * 3, base, base * 2)):
            write_record(tmp_path, workload, seed, 0, {"wall_s": wall, "cpu_s": wall / 2})
        write_record(tmp_path, workload, 1, 1, {"scan.summand_s": base / 10})
    return tmp_path


def test_collect_medians_layers_and_environment(results, tmp_path):
    out = tmp_path / "BENCH_0.json"
    assert bench_collect.main([str(results), str(out)]) == 0
    bench = json.loads(out.read_text())
    assert bench["environment"] == {"git_commit": "0123abc", "source_sha256": "abc", "python": "3.11.7"}
    assert sorted(bench["workloads"]) == ["exhaustive", "verify"]
    verify = bench["workloads"]["verify"]
    assert verify["end_to_end"]["wall_s"] == {
        "value": 20.0, "unit": "s", "seeds": {"1": 30.0, "2": 10.0, "3": 20.0}
    }
    assert verify["end_to_end"]["cpu_s"]["value"] == 10.0
    assert verify["per_layer"] == {"scan.summand_s": {"value": 1.0, "unit": "s"}}
    assert verify["threads"] == 2


@pytest.mark.parametrize(
    "seed,trace,bad",
    [
        (2, 0, {"correct": False}),
        (1, 1, {"correct": False}),
        (3, 0, {"failed": 1}),
        (1, 1, {"source": "def"}),
    ],
)
def test_collect_refuses_inconsistent_files(results, tmp_path, seed, trace, bad):
    write_record(results, "verify", seed, trace, {"wall_s": 1.0}, **bad)
    out = tmp_path / "BENCH_0.json"
    assert bench_collect.main([str(results), str(out)]) == 2
    assert not out.exists()


def test_collect_refuses_a_missing_seed(results, tmp_path):
    (results / "exhaustive-seed3-trace0.json").unlink()
    assert bench_collect.main([str(results), str(tmp_path / "out.json")]) == 2
