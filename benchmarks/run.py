"""hyperell benchmark: one workload, timed through the real CLI, outputs gated.

    python3 benchmarks/run.py --workload exhaustive --seed 1 --seconds 34 --trace 0

Run from the root of a source checkout; the program is taken from ./src.
Each command runs in a fresh `python -m hyperell.cli` process, one at a time
(closed loop, one client).  The seed reaches the program only as --seed.

--trace 0 reports the end-to-end metrics: medians over the commands run in
the window.  --trace 1 alternates an untraced command with the same command
run in-process under benchmarks/spans.py, and reports the per-layer metrics
of the traced runs plus the tracing overhead.

Before timing, every invocation measures set-up (fresh interpreters importing
hyperell.cli) and runs the negative control (verify with an injected fault),
which the verify gate must reject; if it does not, the benchmark refuses to
report and exits non-zero.  The last stdout line is the JSON result; a fuller
record, with the environment, goes to benchmarks/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path

import spans
from workloads import NEGATIVE_CONTROL_SEED, WORKLOADS, Outcome, load_reference, negative_control_argv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
RESULTS = HERE / "results"

SETUP_REPEATS = 5
COMMAND_TIMEOUT_S = 150
# Timed command k of a run gets program seed --seed + SEED_STRIDE * k, so that
# a run's median spans several inputs: the verify workload's cost depends on
# its input through the number of mpmath fallbacks.
SEED_STRIDE = 1_000_000
MIN_TIMED = 2
MAX_CYCLES = 8

END_TO_END = {
    "wall_s": "s",
    "curves_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class Refused(Exception):
    """The benchmark cannot vouch for its program or its gate: no result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_process(argv: list, cwd: Path) -> dict:
    """Run argv to completion in cwd, stdout to cwd/stdout.txt.

    Wall time is spawn to reap.  CPU and peak RSS come from os.wait4 on this
    child alone (RUSAGE_CHILDREN would give the maximum over every child so far).
    """
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit_code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        "stdout": (cwd / "stdout.txt").read_text(errors="replace"),
        "stderr": (cwd / "stderr.txt").read_text(errors="replace"),
    }


def cli_argv(args: list) -> list:
    return [sys.executable, "-m", "hyperell.cli", *args]


def check_source() -> None:
    if not (SRC / "hyperell" / "cli.py").is_file():
        raise Refused(f"no hyperell source under {SRC}; run from the root of a checkout")
    with tempfile.TemporaryDirectory(dir=WORK) as d:
        r = run_process([sys.executable, "-c", "import hyperell.cli as c; print(c.__file__)"], Path(d))
    if r["exit_code"] != 0:
        raise Refused(f"hyperell.cli does not import: {r['stderr'].strip()}")
    found = Path(r["stdout"].strip()).resolve()
    if found != (SRC / "hyperell" / "cli.py").resolve():
        raise Refused(f"hyperell resolves to {found}, not to this checkout")


def measure_setup() -> list:
    times = []
    for _ in range(SETUP_REPEATS):
        with tempfile.TemporaryDirectory(dir=WORK) as d:
            r = run_process([sys.executable, "-c", "import hyperell.cli"], Path(d))
        if r["exit_code"] != 0:
            raise Refused(f"importing hyperell.cli failed: {r['stderr'].strip()}")
        times.append(r["wall_s"])
    return times


def gate(workload, outcome: Outcome, seed: int, reference: dict) -> list:
    """The workload's gate; a report too malformed to inspect is one problem."""
    try:
        return workload.gate(outcome, seed, reference)
    except (KeyError, TypeError, ValueError, AttributeError, ZeroDivisionError) as e:
        return [f"malformed report: {type(e).__name__}: {e}"]


def negative_control() -> dict:
    """verify --inject-fault must exit non-zero and fail the reference-free gate."""
    with tempfile.TemporaryDirectory(dir=WORK) as d:
        r = run_process(cli_argv(negative_control_argv(Path(d))), Path(d))
        outcome = Outcome(r["exit_code"], r["stdout"], Path(d))
        problems = gate(WORKLOADS["verify"], outcome, NEGATIVE_CONTROL_SEED, {})
    if r["exit_code"] == 0 or not problems:
        raise Refused(
            f"negative control passed (exit {r['exit_code']}, gate problems {problems}): "
            "the gate cannot be shown to fail"
        )
    return {"exit_code": r["exit_code"], "gate_problems": problems, "wall_s": r["wall_s"]}


def run_command(workload, seed: int, reference: dict, traced: bool, run_id: str) -> dict:
    """One command in a private directory, gated; spans attached when traced."""
    with tempfile.TemporaryDirectory(dir=WORK) as d:
        d = Path(d)
        args = workload.argv(seed, d)
        if traced:
            argv = [sys.executable, str(HERE / "spans.py"), str(d / "spans.json"), run_id, "--", *args]
        else:
            argv = cli_argv(args)
        r = run_process(argv, d)
        problems = gate(workload, Outcome(r["exit_code"], r["stdout"], d), seed, reference)
        if traced and (d / "spans.json").exists():
            r["spans"] = json.loads((d / "spans.json").read_text())
        elif traced:
            problems.append("traced run wrote no spans")
    if problems and r["stderr"].strip():
        problems.append("stderr: " + r["stderr"].strip().splitlines()[-1])
    r["problems"] = problems
    r["run_id"], r["traced"], r["seed"] = run_id, traced, seed
    del r["stdout"]
    return r


def trace_problems(workload, traced: list) -> list:
    """Exact counts, wrappers that never fired, and counts that did not repeat."""
    problems = []
    for r in traced:
        if "layer" not in r:
            continue
        metrics, calls = r["layer"], r["calls"]
        for name in workload.must_fire:
            if not calls.get(name):
                problems.append(f"{r['run_id']}: wrapper {name} never fired")
        for name, want in workload.exact_counts.items():
            if metrics[name] != want:
                problems.append(f"{r['run_id']}: {name} = {metrics[name]}, expected {want}")
    layers = [r["layer"] for r in traced if "layer" in r]
    for name in sorted(spans.EXACT):
        values = {m[name] for m in layers}
        if len(values) > 1:
            problems.append(f"{name} differs between traced runs: {sorted(values)}")
    return problems


def environment(workload, seed: int) -> dict:
    commit = None  # stays None outside a git checkout of this tree
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.split()
        if Path(top).resolve() == ROOT:
            commit = head
    except (OSError, ValueError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "hyperell").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "mpmath": metadata.version("mpmath"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "threads": workload.threads,
        "seed": seed,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed window")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    workload = WORKLOADS[args.workload]
    reference = load_reference()

    WORK.mkdir(parents=True, exist_ok=True)
    try:
        check_source()
        setup = measure_setup()
        control = negative_control()
        commands, cycles = [], []
        start = time.perf_counter()
        while True:
            c0 = time.perf_counter()
            k = len(cycles)
            # traced cycles repeat one input, so that their counts must agree
            seed = args.seed if args.trace else args.seed + SEED_STRIDE * k
            commands.append(run_command(workload, seed, reference, False, f"plain-{k}"))
            if args.trace:
                commands.append(run_command(workload, seed, reference, True, f"traced-{k}"))
            cycles.append(time.perf_counter() - c0)
            # start another cycle only if it is expected to end inside the window,
            # but time at least MIN_TIMED commands so that a median spans two inputs
            elapsed = time.perf_counter() - start
            ends_inside = elapsed + statistics.median(cycles) <= args.seconds
            if len(cycles) == MAX_CYCLES or (not ends_inside and len(commands) >= MIN_TIMED):
                break
    except Refused as e:
        print(f"benchmark refused: {e}", file=sys.stderr)
        return 2
    finally:
        try:
            WORK.rmdir()  # each command's directory is already gone; keep a busy one
        except OSError:
            pass

    plain = [c for c in commands if not c["traced"]]
    traced = [c for c in commands if c["traced"]]
    for r in traced:
        if "spans" in r:
            r["layer"], r["calls"] = spans.layer_metrics(r.pop("spans"))
    failed = sum(1 for c in commands if c["problems"])
    problems = trace_problems(workload, traced) if args.trace else []

    if args.trace:
        values, units = {}, {}
        for name, unit, _ in spans.LAYER_METRICS:
            units[name] = unit
            samples = [r["layer"][name] for r in traced if "layer" in r]
            values[name] = statistics.median(samples) if samples else 0.0
        values["trace_overhead"] = statistics.median(r["wall_s"] for r in traced) - statistics.median(
            r["wall_s"] for r in plain
        )
        units["trace_overhead"] = "s"
    else:
        values = {
            "wall_s": statistics.median(c["wall_s"] for c in plain),
            "curves_per_s": statistics.median(workload.curves / c["wall_s"] for c in plain),
            "cpu_s": statistics.median(c["cpu_s"] for c in plain),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in plain),
            "setup_s": statistics.median(setup),
        }
        units = END_TO_END

    metrics = {name: {"value": values[name], "unit": units[name]} for name in values}
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(commands),
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": workload.name,
        "argv": workload.argv(args.seed, Path("<private dir>")),
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(workload, args.seed),
        "failed_frac": failed / len(commands),
        "samples": len(plain),
        "setup_samples_s": setup,
        "negative_control": control,
        "commands": commands,
        "trace_problems": problems,
        "result": result,
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")

    for c in commands:
        for msg in c["problems"]:
            print(f"FAILED {c['run_id']}: {msg}")
    for msg in problems:
        print(f"TRACE CHECK: {msg}")
    print(f"{workload.name} seed={args.seed}: {len(plain)} timed commands, "
          f"failed_frac={record['failed_frac']}, record in {out.relative_to(ROOT)}")
    for name, m in metrics.items():
        print(f"  {name:30s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
