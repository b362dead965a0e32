"""Command-line front end.

Subcommands: verify, moment, constants, lpoly, symbol, oracle.  Exit codes:
0 success, 1 verification failure, 2 usage, domain or I/O error (a bad
checkpoint or one of another configuration, an unwritable --out or
--checkpoint path, refused before any work), 3 resource cap refused.  The
library makes every refusal: a genus range calls it for its largest,
costliest genus first, so its checks refuse before any genus is computed.
All file output is canonical (sorted keys, fixed separators, one trailing
newline): a rerun with the same configuration must be byte identical, which
is also what the determinism acceptance check asserts.  Wall-clock timings
are therefore opt-in (--timings) and never part of the canonical payload in
CSV mode.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction

from . import asymptotics, curve, lfunction, polyring, scan, verify
from .characters import jacobi
from .ensemble import EnsembleSpec
from .field import check_at_least, check_odd_prime
from .polyring import Poly
from .sqrtq import SqrtQRational

CSV_HEADER = "# hyperell-moment-v1"
DEFAULT_SAMPLE_SIZE = 1000  # curves drawn by `moment --mode sample` without --sample-size

# CSV column -> its cell in the JSON row; "moment.a" reads the nested cell
CSV_CELLS = {
    "q": "q",
    "g": "g",
    "ensemble_size": "ensemble_size",
    "mode": "mode",
    "sample_size": "sample_size",
    "seed": "seed",
    "cutoff": "cutoff",
    "moment_a": "moment.a",
    "moment_b": "moment.b",
    "moment_float": "moment_float",
    "main_term": "main_term_float",
    "ratio": "ratio",
    "square_a": "square_part.a",
    "square_b": "square_part.b",
    "nonsquare_a": "nonsquare_part.a",
    "nonsquare_b": "nonsquare_part.b",
    "stderr": "stderr",
}


_TERM = re.compile(r"([+-]?)\s*([0-9]*)\s*(x(?:\^([0-9]*))?)?\s*")  # one [sign][c][x[^e]] term


class PolyParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(message)
        self.pos = pos


def parse_poly(text: str, q: int) -> Poly:
    """Parse 'x^3+2x+1' style input, coefficients reduced mod q.

    Each term is [c][x[^e]] with c and e in ASCII digits; terms join with +
    or -, and whitespace may stand between tokens.  Errors carry the
    offending position.  A term x^e whose e + 1 coefficients pass the table
    budget is refused (`check_budget`) before the coefficient list is built.
    """
    s = text.strip()
    if not s:
        raise PolyParseError("empty polynomial", 0)
    coeffs: dict = {}
    pos = 0
    while pos < len(s):  # each term read ends where the next begins
        m = _TERM.match(s, pos)
        sign, num, x, exp = m.groups()
        if pos and not sign:
            raise PolyParseError(f"expected '+' or '-' before {s[pos]!r}", pos)
        if exp == "":
            raise PolyParseError("missing exponent after '^'", m.end(3))
        if not (num or x):
            at = s[m.end()] if m.end() < len(s) else "end of input"
            raise PolyParseError(f"expected a term at {at!r}", m.end())
        e = int(exp) if exp else (1 if x else 0)
        polyring.check_budget(e + 1, f"a term x^{e} needs {e + 1} coefficients")
        coeffs[e] = (coeffs.get(e, 0) + int(sign + (num or "1"))) % q
        pos = m.end()
    top = max(coeffs)
    return polyring.normalize([coeffs.get(k, 0) for k in range(top + 1)])


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def write_text(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def dump_json(obj, path: str | None) -> None:
    write_text(json.dumps(obj, sort_keys=True, separators=(",", ": ")) + "\n", path)


def sqrtq_cell(x: SqrtQRational) -> dict:
    return {"a": frac_str(x.a), "b": frac_str(x.b)}


def csv_row(row: dict) -> str:
    """The CSV line of a JSON row: None is an empty cell, and str gives a float its repr."""
    cells = []
    for path in CSV_CELLS.values():
        cell = row
        for key in path.split("."):
            cell = cell[key]
        cells.append("" if cell is None else str(cell))
    return ",".join(cells)


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify(args) -> int:
    results = verify.run_identity_suite(
        args.q,
        args.g,
        sample_size=args.sample_size,
        seed=args.seed,
        inject_fault=args.inject_fault,
    )
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}")
    failures = [r for r in results if not r.passed]
    report = {
        "schema": "hyperell-verify-v1",
        "q": args.q,
        "g": args.g,
        "checks": [
            {"name": r.name, "passed": r.passed, "details": r.details} for r in results
        ],
        "failures": [r.name for r in failures],
    }
    if args.out:
        dump_json(report, args.out)
    if failures:
        print(f"verify: FAILED ({len(failures)}/{len(results)} checks)")
        return 1
    print(f"verify: ok ({len(results)} checks)")
    return 0


def cmd_moment(args) -> int:
    g_max = args.g_max if args.g_max is not None else args.g
    if g_max < args.g:
        raise ValueError("--g-max must be >= --g")
    if args.mode == "sample" and args.seed is None:
        raise ValueError("sample mode requires --seed")
    if args.mode == "sample" and (args.checkpoint or args.threads != 1):
        raise ValueError("--checkpoint and --threads are for the exhaustive mode")
    if args.mode == "exhaustive" and (args.seed is not None or args.sample_size is not None):
        raise ValueError("--seed and --sample-size are for the sample mode")
    sample_size = DEFAULT_SAMPLE_SIZE if args.sample_size is None else args.sample_size
    ec = asymptotics.euler_constants(args.q, args.cutoff)
    EnsembleSpec(args.q, args.g)  # a bad smallest genus is refused before the largest is computed
    check_at_least("threads", args.threads, 1)  # after the genus checks, before moment_scan's cap
    rows = []
    for g in range(g_max, args.g - 1, -1):  # the costliest genus first; rows stay in ascending g
        main = asymptotics.first_moment_main_term(args.q, g, ec)
        t0 = time.monotonic()
        sampled = args.mode == "sample"
        if sampled:
            sm = scan.sampled_moment(args.q, g, sample_size, args.seed)
            size, total, stderr = sm.ensemble_size, sm.total_estimate, sm.stderr
            square = sm.square_mean.scale(size)
        else:
            # a checkpoint file holds one genus: the largest, computed first
            acc, _ = scan.moment_scan(args.q, g, checkpoint_path=args.checkpoint if g == g_max else None)
            size, total, square, stderr = acc.count, acc.total, acc.square_part, None
        row = {
            "q": args.q,
            "g": g,
            "ensemble_size": size,
            "mode": args.mode,
            "sample_size": sample_size if sampled else None,
            "seed": args.seed if sampled else None,
            "cutoff": ec.cutoff,
            "moment": sqrtq_cell(total),
            "moment_float": float(total),
            "square_part": sqrtq_cell(square),
            "nonsquare_part": sqrtq_cell(total - square),
            "main_term": frac_str(main),
            "main_term_float": float(main),
            "ratio": float(total) / float(main),
            "stderr": stderr,
        }
        if args.timings:
            row["runtime_seconds"] = time.monotonic() - t0
        rows.insert(0, row)
    if args.format == "csv":
        lines = [CSV_HEADER, ",".join(CSV_CELLS)] + [csv_row(r) for r in rows]
        write_text("\n".join(lines) + "\n", args.out)
    else:
        dump_json({"schema": "hyperell-moment-v1", "rows": rows}, args.out)
    return 0


def cmd_constants(args) -> int:
    ec = asymptotics.euler_constants(args.q, args.cutoff)
    dump_json(
        {
            "q": ec.q,
            "cutoff": ec.cutoff,
            "P1": float(ec.p_one),
            "P1_exact": frac_str(ec.p_one),
            "logderiv": float(ec.log_deriv),
            "logderiv_exact": frac_str(ec.log_deriv),
            "tail_bound": float(ec.tail_bound),
            "tail_bound_exact": frac_str(ec.tail_bound),
            "zetaA2": float(ec.zeta_a2),
            "zetaA2_exact": frac_str(ec.zeta_a2),
        },
        args.out,
    )
    return 0


def cmd_lpoly(args) -> int:
    D = parse_poly(args.poly, args.q)
    L = lfunction.l_polynomial(D, args.q)
    dump_json(
        {
            "D": list(D),
            "q": args.q,
            "coeffs": [str(c) for c in L.coeffs],
            "lambda": L.lam,
        },
        args.out,
    )
    return 0


def cmd_symbol(args) -> int:
    f = parse_poly(args.numerator, args.q)
    Q = parse_poly(args.denominator, args.q)
    val = jacobi(f, Q, args.q)
    if args.format == "json":
        dump_json({"q": args.q, "numerator": list(f), "denominator": list(Q), "symbol": val}, args.out)
    else:
        print(val)
    return 0


def cmd_oracle(args) -> int:
    D = parse_poly(args.poly, args.q)
    # character sums first: their count passes the budget at a smaller D than the point counts
    lp = lfunction.l_polynomial(D, args.q)
    ps = curve.power_sums(D, args.q)  # counted once, for both the counts and the zeta numerator
    zn = curve.zeta_from_counts(ps)
    match = zn.coeffs == lp.coeffs
    dump_json(
        {
            "D": list(D),
            "q": args.q,
            "point_counts": list(ps.counts),
            "zeta_coeffs": [str(c) for c in zn.coeffs],
            "charsum_coeffs": [str(c) for c in lp.coeffs],
            "match": match,
        },
        args.out,
    )
    if not match:
        print("oracle: MISMATCH between point counts and character sums", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hyperell",
        description="Exact L-polynomial and moment computations for the hyperelliptic ensemble",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--q", type=int, required=True, help="odd prime field size")
        sp.add_argument("--out", type=str, default=None, help="write the report to this path")

    v = sub.add_parser("verify", help="run the cross-route identity suites")
    add_common(v)
    v.add_argument("--g", type=int, required=True)
    v.add_argument("--sample-size", type=int, default=2000)
    v.add_argument("--seed", type=int, default=1)
    v.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    v.set_defaults(func=cmd_verify)

    m = sub.add_parser("moment", help="first moment over the ensemble")
    add_common(m)
    m.add_argument("--g", type=int, required=True)
    m.add_argument("--g-max", type=int, default=None)
    m.add_argument("--mode", choices=("exhaustive", "sample"), default="exhaustive")
    m.add_argument("--sample-size", type=int, default=None, help=f"default {DEFAULT_SAMPLE_SIZE}")
    m.add_argument("--seed", type=int, default=None)
    m.add_argument(
        "--threads", type=int, default=1,
        help="accepted and ignored (the scan runs in one thread) until the exhaustive workload drops it",
    )
    m.add_argument("--cutoff", type=int, default=None, help="Euler-product truncation degree")
    m.add_argument("--format", choices=("json", "csv"), default="json")
    m.add_argument("--checkpoint", type=str, default=None, help="progress file, resumed if present")
    m.add_argument("--timings", action="store_true", help="include wall-clock runtime in JSON")
    m.set_defaults(func=cmd_moment)

    c = sub.add_parser("constants", help="main-term constants with truncation certificate")
    add_common(c)
    c.add_argument("--cutoff", type=int, default=None)
    c.set_defaults(func=cmd_constants)

    lp = sub.add_parser("lpoly", help="L-polynomial of one discriminant")
    add_common(lp)
    lp.add_argument("poly", type=str, help="e.g. 'x^3+2x+1'")
    lp.set_defaults(func=cmd_lpoly)

    s = sub.add_parser("symbol", help="Jacobi symbol (f/Q)")
    add_common(s)
    s.add_argument("numerator", type=str)
    s.add_argument("denominator", type=str)
    s.add_argument("--format", choices=("text", "json"), default="text")
    s.set_defaults(func=cmd_symbol)

    o = sub.add_parser("oracle", help="point-count route against character sums")
    add_common(o)
    o.add_argument("poly", type=str)
    o.set_defaults(func=cmd_oracle)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        check_odd_prime(args.q)
        if args.out:
            scan.check_writable_path(args.out, "--out")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # an exact fraction in a report may pass the 4300-digit default
        try:
            return args.func(args)
        finally:
            sys.set_int_max_str_digits(limit)
    except PolyParseError as e:
        print(f"error: parse error at position {e.pos}: {e}", file=sys.stderr)
        return 2
    except polyring.ResourceCapError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
