"""Span tracing for the hyperell benchmark, kept outside the program.

Run as a script, this file executes one CLI command in its own process with
wrappers around the public functions of each hyperell module, then writes the
spans to a JSON file:

    PYTHONPATH=src python3 benchmarks/spans.py SPANS.json RUN_ID -- verify --q 3 --g 4

Each span records an id, its parent's id, a name, start and end
(perf_counter seconds), the run id, and an optional small info value set by
the wrapper (a byte count, a cache hit, a returned size).  Spans stay in
memory until the command ends.  Spans opened in moment_scan's worker threads
take the scan.moment_scan span as their parent.

Imported, `layer_metrics` turns a span file into the per-layer metrics.

Functions called more than about 10^5 times per command (divmod_, ExtField.mul,
monic_by_code) are not wrapped; their time is part of their callers' self time.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

COLUMNS = ["id", "parent", "name", "start", "end", "run", "info"]


class TraceError(RuntimeError):
    """A wrapper could not be installed where the program calls the function."""


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.fork_parent = None  # span that threads with no open span attach to

    def wrap(self, name, fn, before=None, after=None, forks=False):
        """Wrap fn in a span called name.

        before(args, kwargs) runs ahead of the call and its result is handed to
        after(state, args, kwargs, result), whose return value is the span's
        info; without after, the info is before's result.  With forks=True
        the span is the parent of spans opened by threads the call starts.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else tracer.fork_parent
            sid = next(tracer._ids)
            state = before(args, kwargs) if before else None
            stack.append(sid)
            if forks:
                saved, tracer.fork_parent = tracer.fork_parent, sid
            ok = False
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if forks:
                    tracer.fork_parent = saved
                info = None if not ok else after(state, args, kwargs, out) if after else state
                tracer.spans.append((sid, parent, name, t0, t1, tracer.run_id, info))
            return out

        return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every traced function at every name the program calls it through.

    Module functions are replaced in every hyperell module that holds them
    (scan.squarefree, curve.squarefree, verify.shared_table, ...); methods are
    replaced on their class; mpmath.polyroots on the mpmath module.  Raises
    TraceError if a target is missing or an alias is left unwrapped.
    """
    import mpmath

    from hyperell import asymptotics, characters, curve, extfield, lfunction, polyring, scan, verify

    modules = [m for n, m in sorted(sys.modules.items()) if n == "hyperell" or n.startswith("hyperell.")]

    def patch_function(module, attr, name, **hooks):
        fn = getattr(module, attr, None)
        if fn is None:
            raise TraceError(f"{module.__name__}.{attr} does not exist")
        wrapper = tracer.wrap(name, fn, **hooks)
        for m in modules:
            for key in [k for k, v in vars(m).items() if v is fn]:
                setattr(m, key, wrapper)
        left = [f"{m.__name__}.{k}" for m in modules for k, v in vars(m).items() if v is fn]
        if left:
            raise TraceError(f"{name} still reachable unwrapped as {left}")

    def patch_method(cls, attr, name, **hooks):
        fn = vars(cls).get(attr)
        if fn is None:
            raise TraceError(f"{cls.__name__}.{attr} does not exist")
        setattr(cls, attr, tracer.wrap(name, fn, **hooks))

    def table_size(table) -> int:
        return sum(len(v) for v in table.by_degree.values())

    patch_function(asymptotics, "euler_constants", "asymptotics.euler_constants")
    patch_function(asymptotics, "first_moment_main_term", "asymptotics.first_moment_main_term")
    patch_function(
        scan, "moment_scan", "scan.moment_scan", forks=True,
        before=lambda a, k: (time.process_time(), k.get("threads", 1)),
        after=lambda st, a, k, out: [time.process_time() - st[0], st[1]],
    )
    patch_function(scan, "squarefree_mask", "scan.squarefree_mask")
    patch_function(scan, "char_sum_table_scan", "scan.char_sum_table_scan")
    patch_function(scan, "jacobi_residue_table", "scan.jacobi_residue_table")
    patch_function(
        scan, "prime_residue_table", "scan.prime_residue_table",
        before=lambda a, k: (a[1], a[0]) in scan._prime_table_cache,
        after=lambda hit, a, k, out: [1, 0, None] if hit else [0, int(out.nbytes), list(a[0])],
    )
    patch_function(
        scan, "_write_checkpoint", "scan.checkpoint",
        after=lambda st, a, k, out: os.path.getsize(a[0]),
    )
    patch_function(
        scan, "batch_coefficients", "scan.batch_coefficients",
        before=lambda a, k: len(a[2] if len(a) > 2 else k["codes"]),
    )
    patch_function(scan, "batch_coprime_counts", "scan.batch_coprime_counts")
    patch_function(scan, "sample_codes", "scan.sample_codes")
    patch_function(polyring, "squarefree", "polyring.squarefree", after=lambda st, a, k, out: int(out))
    patch_function(polyring, "shared_table", "polyring.shared_table")
    patch_method(
        polyring.IrreducibleTable, "extend", "polyring.extend",
        before=lambda a, k: table_size(a[0]),
        after=lambda before, a, k, out: table_size(a[0]) - before,
    )
    patch_method(polyring.IrreducibleTable, "factorize", "polyring.factorize")
    patch_function(lfunction, "rh_root_deviation", "lfunction.rh_root_deviation")
    mpmath.polyroots = tracer.wrap("mpmath.polyroots", mpmath.polyroots)
    patch_function(curve, "zeta_numerator", "curve.zeta_numerator")
    patch_method(extfield.ExtField, "eval_poly", "extfield.eval_poly")
    patch_method(extfield.ExtField, "is_square", "extfield.is_square")
    patch_function(characters, "jacobi", "characters.jacobi")
    patch_function(
        verify, "run_identity_suite", "verify.run_identity_suite",
        after=lambda st, a, k, out: [len(out), sum(1 for r in out if not r.passed)],
    )


def run_traced(spans_path: str, run_id: str, argv: list) -> int:
    """Run `hyperell argv` in this process under the tracer; write the spans."""
    from hyperell import cli

    tracer = Tracer(run_id)
    install(tracer)
    rc = tracer.wrap("cli.main", cli.main)(argv)
    with open(spans_path, "w") as fh:
        json.dump({"columns": COLUMNS, "spans": tracer.spans}, fh)
    return rc


# ---------------------------------------------------------------------------
# analysis


def _union_length(intervals: list, lo: float, hi: float) -> float:
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans: list) -> dict:
    """Span id -> duration minus the union of the intervals its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s[1] is not None:
            children[s[1]].append((s[3], s[4]))
    return {s[0]: (s[4] - s[3]) - _union_length(children.get(s[0], []), s[3], s[4]) for s in spans}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (metric, unit, better), in report order
LAYER_METRICS = [
    ("scan.summand_s", "s", "lower"),
    ("scan.summands", "count", "lower"),
    ("scan.mask_s", "s", "lower"),
    ("scan.jacobi_table_s", "s", "lower"),
    ("scan.moment_scan_s", "s", "lower"),
    ("scan.thread_eff", "ratio", "higher"),
    ("scan.checkpoint_bytes", "bytes", "lower"),
    ("scan.checkpoint_s", "s", "lower"),
    ("scan.prime_table_calls", "count", "lower"),
    ("scan.prime_tables", "count", "lower"),
    ("scan.prime_table_hit_ratio", "ratio", "higher"),
    ("scan.prime_table_s", "s", "lower"),
    ("scan.prime_table_bytes", "bytes", "lower"),
    ("scan.batch_s", "s", "lower"),
    ("scan.batch_curves", "count", "lower"),
    ("scan.coprime_s", "s", "lower"),
    ("scan.sample_s", "s", "lower"),
    ("scan.sample_draws", "count", "lower"),
    ("scan.sample_accept_ratio", "ratio", "higher"),
    ("polyring.table_s", "s", "lower"),
    ("polyring.irreducibles", "count", "lower"),
    ("polyring.factorize_calls", "count", "lower"),
    ("polyring.factorize_s", "s", "lower"),
    ("polyring.squarefree_calls", "count", "lower"),
    ("polyring.squarefree_s", "s", "lower"),
    ("lfunction.rh_calls", "count", "lower"),
    ("lfunction.rh_s", "s", "lower"),
    ("lfunction.rh_fallbacks", "count", "lower"),
    ("lfunction.rh_fallback_s", "s", "lower"),
    ("lfunction.rh_clean_ratio", "ratio", "higher"),
    ("curve.oracle_curves", "count", "lower"),
    ("curve.oracle_s", "s", "lower"),
    ("extfield.evals", "count", "lower"),
    ("extfield.s", "s", "lower"),
    ("characters.jacobi_calls", "count", "lower"),
    ("characters.jacobi_s", "s", "lower"),
    ("asymptotics.s", "s", "lower"),
    ("verify.suite_s", "s", "lower"),
    ("verify.checks", "count", "higher"),
    ("verify.checks_failed", "count", "lower"),
    ("cli.self_s", "s", "lower"),
]

# Metrics that are the same on every run of one command (counts and ratios of
# counts); the rest are times.
EXACT = {name for name, unit, _ in LAYER_METRICS if unit in ("count", "bytes")} | {
    "scan.prime_table_hit_ratio", "scan.sample_accept_ratio", "lfunction.rh_clean_ratio",
}


def layer_metrics(doc: dict) -> tuple:
    """(metrics, calls) for one span file: metric name -> value, span name -> count."""
    spans = doc["spans"]
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[2]].append(s)
    ids = {s[0]: s for s in spans}

    def calls(name: str) -> int:
        return len(by_name[name])

    def self_s(*names: str) -> float:
        return sum(own[s[0]] for n in names for s in by_name[n])

    def info_sum(name: str, pick=lambda i: i) -> int:
        return sum(pick(s[6]) for s in by_name[name] if s[6] is not None)

    primes = by_name["scan.prime_residue_table"]
    built = {tuple(s[6][2]) for s in primes if s[6] and not s[6][0]}
    draws = [s for s in by_name["polyring.squarefree"]
             if s[1] in ids and ids[s[1]][2] == "scan.sample_codes"]
    scans = [s for s in by_name["scan.moment_scan"] if s[6]]
    rh = calls("lfunction.rh_root_deviation")
    fallbacks = calls("mpmath.polyroots")
    m = {
        "scan.summand_s": self_s("scan.char_sum_table_scan"),
        "scan.summands": calls("scan.char_sum_table_scan"),
        "scan.mask_s": self_s("scan.squarefree_mask"),
        "scan.jacobi_table_s": self_s("scan.jacobi_residue_table"),
        "scan.moment_scan_s": self_s("scan.moment_scan"),
        "scan.thread_eff": _ratio(
            sum(s[6][0] for s in scans), sum((s[4] - s[3]) * s[6][1] for s in scans)
        ),
        "scan.checkpoint_bytes": info_sum("scan.checkpoint"),
        "scan.checkpoint_s": self_s("scan.checkpoint"),
        "scan.prime_table_calls": len(primes),
        "scan.prime_tables": len(built),
        "scan.prime_table_hit_ratio": _ratio(info_sum("scan.prime_residue_table", lambda i: i[0]), len(primes)),
        "scan.prime_table_s": self_s("scan.prime_residue_table"),
        "scan.prime_table_bytes": info_sum("scan.prime_residue_table", lambda i: i[1]),
        "scan.batch_s": self_s("scan.batch_coefficients"),
        "scan.batch_curves": info_sum("scan.batch_coefficients"),
        "scan.coprime_s": self_s("scan.batch_coprime_counts"),
        "scan.sample_s": self_s("scan.sample_codes"),
        "scan.sample_draws": len(draws),
        "scan.sample_accept_ratio": _ratio(sum(s[6] for s in draws), len(draws)),
        "polyring.table_s": self_s("polyring.shared_table", "polyring.extend"),
        "polyring.irreducibles": info_sum("polyring.extend"),
        "polyring.factorize_calls": calls("polyring.factorize"),
        "polyring.factorize_s": self_s("polyring.factorize"),
        "polyring.squarefree_calls": calls("polyring.squarefree"),
        "polyring.squarefree_s": self_s("polyring.squarefree"),
        "lfunction.rh_calls": rh,
        "lfunction.rh_s": self_s("lfunction.rh_root_deviation"),
        "lfunction.rh_fallbacks": fallbacks,
        "lfunction.rh_fallback_s": self_s("mpmath.polyroots"),
        "lfunction.rh_clean_ratio": _ratio(rh - fallbacks, rh),
        "curve.oracle_curves": calls("curve.zeta_numerator"),
        "curve.oracle_s": self_s("curve.zeta_numerator"),
        "extfield.evals": calls("extfield.eval_poly"),
        "extfield.s": self_s("extfield.eval_poly", "extfield.is_square"),
        "characters.jacobi_calls": calls("characters.jacobi"),
        "characters.jacobi_s": self_s("characters.jacobi"),
        "asymptotics.s": self_s("asymptotics.euler_constants", "asymptotics.first_moment_main_term"),
        "verify.suite_s": self_s("verify.run_identity_suite"),
        "verify.checks": info_sum("verify.run_identity_suite", lambda i: i[0]),
        "verify.checks_failed": info_sum("verify.run_identity_suite", lambda i: i[1]),
        "cli.self_s": self_s("cli.main"),
    }
    return m, {name: len(v) for name, v in by_name.items()}


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        sys.exit("usage: spans.py SPANS.json RUN_ID -- <hyperell arguments>")
    sys.exit(run_traced(sys.argv[1], sys.argv[2], sys.argv[4:]))
