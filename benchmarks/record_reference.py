"""Record the outputs the gates compare byte for byte: benchmarks/reference.json.

    python3 benchmarks/record_reference.py

Run from the root of the checkout whose outputs are the reference (the commit
that introduced the benchmark).  Each output must pass its workload's
reference-free gate before it is stored.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from run import SEED_STRIDE, WORK, cli_argv, run_process
from workloads import REFERENCE_FILE, WORKLOADS, Outcome, digest

# the program seeds of the first three commands of runs with --seed 0..24
SEEDS = [s + SEED_STRIDE * i for i in range(3) for s in range(25)]


def record(name: str, seed: int) -> tuple:
    workload = WORKLOADS[name]
    with tempfile.TemporaryDirectory(dir=WORK) as d:
        d = Path(d)
        r = run_process(cli_argv(workload.argv(seed, d)), d)
        problems = workload.gate(Outcome(r["exit_code"], r["stdout"], d), seed, {})
        if problems:
            sys.exit(f"{name} seed {seed} fails its gate: {problems}")
        if name == "verify":
            return name, seed, [digest((d / "verify.json").read_text()), digest(r["stdout"])]
        if name == "sampled" and seed == 0:
            main_term = json.loads(r["stdout"])["rows"][0]["main_term"]
            return name, seed, [digest(r["stdout"]), main_term]
        return name, seed, digest(r["stdout"])


def main() -> None:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    WORK.mkdir(parents=True, exist_ok=True)
    jobs = [("exhaustive", 0)] + [(name, s) for s in SEEDS for name in ("sampled", "verify")]
    ref: dict = {"sampled": {}, "verify": {}}
    with ThreadPoolExecutor(max_workers=2) as pool:
        for name, seed, out in pool.map(lambda job: record(*job), jobs):
            print(f"recorded {name} seed {seed}", flush=True)
            if name == "exhaustive":
                ref["exhaustive"] = out
            elif name == "sampled" and seed == 0:
                ref["sampled"]["0"], ref["sampled_main_term"] = out
            else:
                ref[name][str(seed)] = out
    REFERENCE_FILE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
