"""Collect benchmark result files into one BENCH_<n>.json record.

    python3 tools/bench_collect.py benchmarks/results BENCH_0.json

RESULTS_DIR holds the records that `benchmarks/run.py` writes, named
`<workload>-seed<N>-trace<T>.json`.  Every workload found there needs the
`--trace 0` files of seeds 1-3 and the `--trace 1` file of seed 1.  OUT gets:

  * per workload, the median of each end-to-end metric over the three
    `--trace 0` files, with the three values beside it;
  * per workload, the per-layer metrics of the seed-1 `--trace 1` file;
  * the environment record (git commit, source digest, versions, host),
    less its per-run seed and thread count.

Exits 2, writing nothing, when a file is missing, when any file has
`correct: false` or `failed > 0`, or when the files were run on different
sources (different `source_sha256`).
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

SEEDS = (1, 2, 3)
NAME = re.compile(r"(?P<workload>.+)-seed(?P<seed>\d+)-trace(?P<trace>[01])\.json")


class CollectError(Exception):
    """The result files cannot make one consistent record."""


def _load(results: Path, workload: str, seed: int, trace: int) -> dict:
    path = results / f"{workload}-seed{seed}-trace{trace}.json"
    if not path.exists():
        raise CollectError(f"{path.name} is missing")
    record = json.loads(path.read_text())
    result = record["result"]
    if not result["correct"] or result["failed"] > 0:
        raise CollectError(f"{path.name}: correct={result['correct']}, failed={result['failed']}")
    return record


def collect(results: Path) -> dict:
    """The BENCH record of every workload with files in results; CollectError if inconsistent."""
    workloads = sorted({m["workload"] for p in results.iterdir() if (m := NAME.fullmatch(p.name))})
    if not workloads:
        raise CollectError(f"no result files in {results}")
    out: dict = {"environment": None, "workloads": {}}
    digests = set()
    for workload in workloads:
        plain = [_load(results, workload, seed, 0) for seed in SEEDS]
        traced = _load(results, workload, SEEDS[0], 1)
        digests |= {r["environment"]["source_sha256"] for r in plain + [traced]}
        # the environment is the host's; seed and threads belong to each run
        env = {k: v for k, v in plain[0]["environment"].items() if k not in ("seed", "threads")}
        out["environment"] = out["environment"] or env
        end_to_end = {}
        for name, metric in plain[0]["result"]["metrics"].items():
            values = [r["result"]["metrics"][name]["value"] for r in plain]
            end_to_end[name] = {
                "value": statistics.median(values),
                "unit": metric["unit"],
                "seeds": dict(zip(map(str, SEEDS), values)),
            }
        out["workloads"][workload] = {
            "argv": plain[0]["argv"],
            "seconds": plain[0]["seconds"],
            "threads": plain[0]["environment"]["threads"],
            "end_to_end": end_to_end,
            "per_layer": traced["result"]["metrics"],
        }
    if len(digests) > 1:
        raise CollectError(f"result files come from {len(digests)} different sources: {sorted(digests)}")
    return out


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 tools/bench_collect.py RESULTS_DIR OUT", file=sys.stderr)
        return 2
    try:
        record = collect(Path(args[0]))
    except (CollectError, OSError, KeyError, ValueError) as e:
        print(f"bench_collect: {e}", file=sys.stderr)
        return 2
    Path(args[1]).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
