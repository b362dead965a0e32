r"""Compare two hyperell trees on one CLI command in alternating same-seed pairs.

    python3 tools/ab_pairs.py PARENT CHANGE --pairs 10 -- moment --q 5 --g 5 \
        --mode sample --sample-size 50000 --seed 1

PARENT and CHANGE are checkouts (directories holding src/hyperell).  Each pair
runs `python -m hyperell.cli ARGS` once on each side, one process at a time,
with that side's src/ first on PYTHONPATH; pair k runs PARENT first when k is
even and CHANGE first when k is odd.  Every `{tmp}` in ARGS becomes a fresh
empty directory for each run.

One line per run gives its wall time (spawn to reap), CPU time and peak RSS,
the last two from os.wait4 on that child alone; the child's stderr passes
through.  The summary gives each side's medians and interquartile ranges (the
spread a gain must exceed) and, per metric (wall, cpu, rss), the number of
pairs each side won (the lower value wins, and a tie counts for neither), the
median and quartiles of the per-pair ratio change/parent, and whether the
gain rule holds: the change wins at least 9 of 10 pairs and its median is
below the parent's by more than the parent's IQR.  A ratio compares the two
adjacent runs of one pair, so drift of the host across pairs, which widens
the IQR, leaves it alone.

Exits 1 as soon as a pair differs in stdout, exit code or any file written
under `{tmp}`, 0 when every pair agrees, and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

METRICS = ("wall_s", "cpu_s", "peak_rss_mb")


def run_side(root: Path, args: list) -> dict:
    """Run hyperell from root's src/ with args; its outputs and costs."""
    root = root.resolve()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    with tempfile.TemporaryDirectory() as tmp, tempfile.TemporaryFile() as out:
        argv = [sys.executable, "-m", "hyperell.cli", *(a.replace("{tmp}", tmp) for a in args)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=root, env=env, stdout=out)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        written = (f for f in Path(tmp).rglob("*") if f.is_file())
        files = {str(f.relative_to(tmp)): f.read_bytes() for f in written}
        return {
            "exit_code": proc.returncode,
            "stdout": out.read(),
            "files": files,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        }


def quartiles(xs: list) -> tuple:
    """(first quartile, median, third quartile) of xs, linearly interpolated; one run is all three."""
    if len(xs) < 2:
        return (xs[0],) * 3
    return tuple(statistics.quantiles(xs, n=4, method="inclusive"))


def iqr(xs: list) -> float:
    """Distance between the quartiles of xs; 0 for one run."""
    q1, _, q3 = quartiles(xs)
    return q3 - q1


def wins(parent: list, change: list, metric: str) -> tuple:
    """(pairs change won, pairs parent won) on metric, lower winning; ties count for neither."""
    pairs = list(zip(parent, change))
    return (
        sum(c[metric] < p[metric] for p, c in pairs),
        sum(p[metric] < c[metric] for p, c in pairs),
    )


def ratio_quartiles(parent: list, change: list, metric: str) -> tuple:
    """`quartiles` of change/parent on metric, one ratio per pair."""
    return quartiles([c[metric] / p[metric] for p, c in zip(parent, change)])


def gain_holds(parent: list, change: list, metric: str) -> bool:
    """The gain rule on metric: change wins >= 9/10 of pairs, and the median gap exceeds the parent's IQR."""
    won, _ = wins(parent, change, metric)
    before = [p[metric] for p in parent]
    gap = statistics.median(before) - statistics.median(c[metric] for c in change)
    return 10 * won >= 9 * len(parent) and gap > iqr(before)


def difference(a: dict, b: dict) -> str | None:
    """What differs between two runs' outputs, or None."""
    for key in ("exit_code", "stdout"):
        if a[key] != b[key]:
            return key
    for name in sorted(a["files"].keys() | b["files"].keys()):
        if a["files"].get(name) != b["files"].get(name):
            return f"file {{tmp}}/{name}"
    return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    p = argparse.ArgumentParser(
        usage="%(prog)s PARENT CHANGE --pairs N -- HYPERELL_ARGS...",
        description=__doc__.split("\n\n")[0],
    )
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--pairs", type=int, required=True)
    cut = argv.index("--") if "--" in argv else len(argv)
    ns, args = p.parse_args(argv[:cut]), argv[cut + 1 :]
    if ns.pairs < 1 or not args:
        p.error("need --pairs >= 1 and hyperell arguments after --")
    for root in (ns.parent, ns.change):
        if not (root / "src" / "hyperell" / "cli.py").is_file():
            p.error(f"no src/hyperell/cli.py under {root}")
    sides = ("parent", "change")
    runs: dict = {side: [] for side in sides}
    for k in range(ns.pairs):
        for side in sides if k % 2 == 0 else sides[::-1]:
            r = run_side(ns.parent if side == "parent" else ns.change, args)
            runs[side].append(r)
            print(
                f"pair {k} {side}: exit {r['exit_code']}  wall {r['wall_s']:.3f} s  "
                f"cpu {r['cpu_s']:.3f} s  rss {r['peak_rss_mb']:.1f} MB",
                flush=True,
            )
        parent, change = runs["parent"][-1], runs["change"][-1]
        diff = difference(parent, change)
        if diff is not None:
            print(f"pair {k}: {diff} differs between the sides")
            return 1
    for side in sides:
        for label, stat in (("median", statistics.median), ("IQR", iqr)):
            v = {m: stat([r[m] for r in runs[side]]) for m in METRICS}
            print(
                f"{side} {label}: wall {v['wall_s']:.3f} s  cpu {v['cpu_s']:.3f} s  "
                f"rss {v['peak_rss_mb']:.1f} MB"
            )
    print(f"outputs identical in {ns.pairs} pairs")
    for m, label in zip(METRICS, ("wall", "cpu", "rss")):
        won, lost = wins(runs["parent"], runs["change"], m)
        print(f"{label} wins: change {won}/{ns.pairs}, parent {lost}/{ns.pairs}")
        q1, median, q3 = ratio_quartiles(runs["parent"], runs["change"], m)
        print(f"{label} ratio change/parent: median {median:.3f}, quartiles {q1:.3f} {q3:.3f}")
        holds = gain_holds(runs["parent"], runs["change"], m)
        print(f"{label} gain rule (>= 9/10 wins, median gap > parent IQR): {'holds' if holds else 'fails'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
