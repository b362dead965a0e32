"""Tests for the command-line interface: parsing, schemas, exit codes."""

import json
import os
import re
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hyperell import asymptotics, curve, lfunction, polyring, scan, verify
from hyperell.cli import PolyParseError, main, parse_poly


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# polynomial parser


def test_parse_poly_basic():
    assert parse_poly("x^3+2x+1", 3) == (1, 2, 0, 1)
    assert parse_poly("x", 3) == (0, 1)
    assert parse_poly("1", 3) == (1,)
    assert parse_poly("x^2 - 1", 3) == (2, 0, 1)
    assert parse_poly("2x^3", 5) == (0, 0, 0, 2)
    assert parse_poly(" x^2+ x ", 5) == (0, 1, 1)
    assert parse_poly("2 x", 5) == (0, 2)
    assert parse_poly("x^2\t+ 1", 5) == (1, 0, 1)


def test_parse_poly_reduces_mod_q():
    assert parse_poly("5", 3) == (2,)
    assert parse_poly("3x^2+x", 3) == (0, 1)
    assert parse_poly("x+x+x", 3) == ()


def test_parse_poly_repeated_terms_accumulate():
    assert parse_poly("x+x", 5) == (0, 2)


def test_parse_poly_errors_carry_position():
    with pytest.raises(PolyParseError) as e:
        parse_poly("x^", 3)
    assert e.value.pos == 2
    with pytest.raises(PolyParseError):
        parse_poly("", 3)
    with pytest.raises(PolyParseError):
        parse_poly("y+1", 3)
    with pytest.raises(PolyParseError):
        parse_poly("x**2", 3)


@pytest.mark.parametrize(
    "text,pos,message",
    [
        ("x**2", 1, "expected '+' or '-' before '*'"),
        ("x^\u00b2", 2, "missing exponent after '^'"),  # a superscript two: isdigit, yet no int
        ("\u0663x", 0, "expected a term at '\u0663'"),  # an Arabic-Indic three
        ("x+", 2, "expected a term at 'end of input'"),
    ],
)
def test_parse_poly_reads_ascii_digits_only(text, pos, message):
    with pytest.raises(PolyParseError, match=f"^{re.escape(message)}$") as e:
        parse_poly(text, 5)
    assert e.value.pos == pos


@settings(max_examples=300, deadline=None)
@given(
    q=st.sampled_from([3, 5, 7, 11]),
    # (negative, coefficient or None for an omitted 1, exponent or None for a constant)
    terms=st.lists(
        st.tuples(st.booleans(), st.none() | st.integers(0, 40), st.none() | st.integers(0, 9)),
        min_size=1,
        max_size=8,
    ),
    data=st.data(),
)
def test_parse_poly_reads_random_polynomials_in_the_grammar(q, terms, data):
    def space():
        return data.draw(st.text(" \t", max_size=2))

    text, coeffs = space(), [0] * 10
    for i, (negative, c, e) in enumerate(terms):
        if e is None and c is None:
            c = 1  # a constant term writes its coefficient
        sign = "-" if negative else "+" if i or data.draw(st.booleans()) else ""
        digits = "" if c is None else str(c).zfill(data.draw(st.integers(1, 3)))
        power = "" if e is None else "x" if e == 1 and data.draw(st.booleans()) else f"x^{e}"
        text += sign + space() + digits + space() + power + space()
        coeffs[e or 0] += (-1 if negative else 1) * (1 if c is None else c)
    reduced = [c % q for c in coeffs]
    while reduced and not reduced[-1]:
        reduced.pop()
    assert parse_poly(text, q) == tuple(reduced), text


# ---------------------------------------------------------------------------
# subcommands


def test_lpoly_json_schema(capsys):
    code, out, _ = run_cli(capsys, "lpoly", "--q", "3", "x^3+x")
    assert code == 0
    data = json.loads(out)
    assert data == {"D": [0, 1, 0, 1], "q": 3, "coeffs": ["1", "0", "3"], "lambda": 0}


def test_symbol_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "symbol", "--q", "3", "x", "x+1")
    assert code == 0 and out.strip() == "-1"
    code, out, _ = run_cli(
        capsys, "symbol", "--q", "3", "--format", "json", "x^3+x", "x+2"
    )
    assert code == 0
    assert json.loads(out)["symbol"] == -1


def test_constants_schema(capsys):
    code, out, _ = run_cli(capsys, "constants", "--q", "5", "--cutoff", "6")
    assert code == 0
    data = json.loads(out)
    for key in ("q", "cutoff", "P1", "logderiv", "tail_bound", "zetaA2"):
        assert key in data
    assert data["q"] == 5 and data["cutoff"] == 6
    assert data["zetaA2"] == 1.25


def test_oracle_match(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--q", "3", "x^3+2x+1")
    assert code == 0
    data = json.loads(out)
    assert data["match"] is True
    assert data["zeta_coeffs"] == data["charsum_coeffs"]


def test_constants_print_exact_values_past_the_int_digit_limit(capsys):
    # the exact log-derivative at (5, 80) has more digits than Python converts by default
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(capsys, "constants", "--q", "5", "--cutoff", "80")
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit  # main restores the limit it lifted
    data = json.loads(out)
    ec = asymptotics.euler_constants(5, 80)
    sys.set_int_max_str_digits(0)
    try:
        assert max(len(part) for part in data["logderiv_exact"].split("/")) > limit
        assert Fraction(data["P1_exact"]) == ec.p_one
        assert Fraction(data["logderiv_exact"]) == ec.log_deriv
    finally:
        sys.set_int_max_str_digits(limit)


def test_oracle_mismatch_exit_1(capsys, monkeypatch):
    wrong = lfunction.LPolynomial(3, (1, 0, 4), 0)  # x^3+x has (1, 0, 3)
    monkeypatch.setattr(curve, "zeta_from_counts", lambda ps: wrong)
    code, out, err = run_cli(capsys, "oracle", "--q", "3", "x^3+x")
    assert code == 1
    assert json.loads(out)["match"] is False
    assert "MISMATCH" in err


def test_oracle_counts_the_points_once(capsys, monkeypatch):
    # one count_points call per extension degree n = 1..g, read by both point_counts and zeta_coeffs
    counted = []
    count_points = curve.count_points
    monkeypatch.setattr(curve, "count_points", lambda D, q, n: counted.append(n) or count_points(D, q, n))
    code, out, _ = run_cli(capsys, "oracle", "--q", "3", "x^7+x+1")
    assert (code, counted) == (0, [1, 2, 3])
    assert out == (
        '{"D": [1,1,0,0,0,0,0,1],"charsum_coeffs": ["1","0","0","6","0","0","27"],"match": true,'
        '"point_counts": [4,10,46],"q": 3,"zeta_coeffs": ["1","0","0","6","0","0","27"]}\n'
    )


def test_verify_pass_and_fault(capsys):
    code, out, _ = run_cli(capsys, "verify", "--q", "3", "--g", "1")
    assert code == 0
    assert "PASS functional_equation" in out
    code, out, _ = run_cli(
        capsys, "verify", "--q", "3", "--g", "1", "--inject-fault"
    )
    assert code == 1
    assert "FAIL" in out


def test_verify_runs_without_mpmath():
    # the root-modulus check is exact, so the library never imports mpmath
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    script = (
        "import sys\n"
        "from hyperell.cli import main\n"
        "code = main(['verify', '--q', '3', '--g', '2'])\n"
        "print('mpmath' in sys.modules)\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_moment_json(capsys):
    code, out, _ = run_cli(capsys, "moment", "--q", "3", "--g", "1")
    assert code == 0
    data = json.loads(out)
    row = data["rows"][0]
    assert row["ensemble_size"] == 18
    assert row["moment"] == {"a": "36/1", "b": "0/1"}
    assert "runtime_seconds" not in row


def test_moment_timings_flag(capsys):
    code, out, _ = run_cli(capsys, "moment", "--q", "3", "--g", "1", "--timings")
    assert code == 0
    assert "runtime_seconds" in json.loads(out)["rows"][0]


def test_moment_csv_schema(capsys):
    code, out, _ = run_cli(
        capsys, "moment", "--q", "3", "--g", "1", "--g-max", "2", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# hyperell-moment-v1"
    assert lines[1].startswith("q,g,ensemble_size,mode,")
    assert len(lines) == 4
    first = lines[2].split(",")
    assert first[0] == "3" and first[1] == "1" and first[2] == "18"


# the moment CSV schema: each column and the JSON cell it renders
CSV_OF_JSON = (
    ("q", ("q",)),
    ("g", ("g",)),
    ("ensemble_size", ("ensemble_size",)),
    ("mode", ("mode",)),
    ("sample_size", ("sample_size",)),
    ("seed", ("seed",)),
    ("cutoff", ("cutoff",)),
    ("moment_a", ("moment", "a")),
    ("moment_b", ("moment", "b")),
    ("moment_float", ("moment_float",)),
    ("main_term", ("main_term_float",)),
    ("ratio", ("ratio",)),
    ("square_a", ("square_part", "a")),
    ("square_b", ("square_part", "b")),
    ("nonsquare_a", ("nonsquare_part", "a")),
    ("nonsquare_b", ("nonsquare_part", "b")),
    ("stderr", ("stderr",)),
)


@pytest.mark.parametrize(
    "argv",
    [("--q", "3", "--g", "1", "--g-max", "2"), ("--q", "5", "--g", "2", "--mode", "sample", "--seed", "4")],
)
def test_moment_csv_cells_equal_json_cells(capsys, argv):
    code, out, _ = run_cli(capsys, "moment", *argv)
    assert code == 0
    rows = json.loads(out)["rows"]
    code, out, _ = run_cli(capsys, "moment", *argv, "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == ",".join(name for name, _ in CSV_OF_JSON)
    assert len(lines) == 2 + len(rows)
    for line, row in zip(lines[2:], rows):
        cells = line.split(",")
        assert len(cells) == len(CSV_OF_JSON)
        for cell, (name, path) in zip(cells, CSV_OF_JSON):
            value = row
            for key in path:
                value = value[key]
            want = "" if value is None else repr(value) if isinstance(value, float) else str(value)
            assert cell == want, name
    # --timings adds runtime_seconds and nothing else
    code, out, _ = run_cli(capsys, "moment", *argv, "--timings")
    assert code == 0
    timed = json.loads(out)["rows"]
    for row, timed_row in zip(rows, timed, strict=True):
        assert isinstance(timed_row.pop("runtime_seconds"), float)
        assert timed_row == row


def test_moment_out_file(tmp_path, capsys):
    out_path = tmp_path / "m.json"
    code, _, _ = run_cli(
        capsys, "moment", "--q", "3", "--g", "1", "--out", str(out_path)
    )
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["rows"][0]["q"] == 3
    assert out_path.read_text().endswith("\n")


# ---------------------------------------------------------------------------
# exit codes


def test_parse_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "lpoly", "--q", "3", "x^")
    assert code == 2
    assert "position" in err


def test_domain_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "lpoly", "--q", "4", "x^3+x")
    assert code == 2
    assert "odd prime" in err
    # perfect square discriminant
    code, _, err = run_cli(capsys, "lpoly", "--q", "3", "x^2")
    assert code == 2


def test_sample_mode_requires_seed(capsys):
    code, _, err = run_cli(capsys, "moment", "--q", "3", "--g", "1", "--mode", "sample")
    assert code == 2
    assert "seed" in err


# the id is the one this case had beside the cases of the removed --resume flag
@pytest.mark.parametrize(
    "extra",
    [
        ("--mode", "sample", "--seed", "1", "--checkpoint", "ck.json"),
    ],
    ids=["extra1"],
)
def test_checkpoint_flags_rejected_where_unused(capsys, extra):
    code, _, err = run_cli(capsys, "moment", "--q", "3", "--g", "1", *extra)
    assert code == 2
    assert "--checkpoint" in err


@pytest.mark.parametrize("extra", [("--threads", "2")], ids=["threads"])
def test_exhaustive_flags_rejected_in_sample_mode(capsys, extra):
    argv = ("moment", "--q", "3", "--g", "1", "--mode", "sample", "--seed", "1")
    code, _, err = run_cli(capsys, *argv, *extra)
    assert code == 2
    assert extra[0] in err


@pytest.mark.parametrize("g,size", [("1", "0"), ("3", "-5")])
def test_verify_sample_size_below_one_exit_2(capsys, g, size):
    code, out, err = run_cli(capsys, "verify", "--q", "3", "--g", g, "--sample-size", size)
    assert code == 2
    assert "sample_size" in err
    assert "verify: ok" not in out


@pytest.mark.parametrize(
    "argv,message",
    [
        (("moment", "--q", "3", "--g", "1", "--mode", "sample", "--seed", "-1"),
         "seed must be >= 0, got -1"),
        (("verify", "--q", "3", "--g", "4", "--sample-size", "5", "--seed", "-1"),
         "seed must be >= 0, got -1"),
        (("verify", "--q", "3", "--g", "1", "--seed", "-1"), "seed must be >= 0, got -1"),
        (("verify", "--q", "3", "--g", "3", "--seed", "-1"), "seed must be >= 0, got -1"),
        (("moment", "--q", "3", "--g", "1", "--mode", "sample", "--seed", "1", "--sample-size", "0"),
         "sample_size must be >= 1, got 0"),
        (("verify", "--q", "3", "--g", "4", "--sample-size", "0"),
         "sample_size must be >= 1, got 0"),
    ],
    ids=["moment-seed", "verify-seed", "verify-seed-g1", "verify-seed-g3", "moment-size", "verify-size"],
)
def test_sample_mode_boundary_errors_name_their_argument(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err == f"error: {message}\n"
    assert out == ""


@pytest.mark.parametrize(
    "extra", [("--seed", "5"), ("--sample-size", "7")], ids=["seed", "sample-size"]
)
def test_sample_flags_rejected_in_exhaustive_mode(capsys, extra):
    code, out, err = run_cli(capsys, "moment", "--q", "3", "--g", "1", *extra)
    assert code == 2
    assert extra[0] in err
    assert out == ""


def test_sample_mode_default_sample_size(capsys):
    argv = ("moment", "--q", "3", "--g", "1", "--mode", "sample", "--seed", "2")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert (row["mode"], row["sample_size"], row["seed"]) == ("sample", 1000, 2)


def test_sample_table_cap_exit_3(capsys):
    # the prime tables to degree 9 at q=5 need about 4.4e11 entries
    code, _, err = run_cli(
        capsys, "moment", "--q", "5", "--g", "9", "--mode", "sample",
        "--sample-size", "10", "--seed", "1",
    )
    assert code == 3
    assert "cap" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("moment", "--q", "5", "--g", "2", "--mode", "sample", "--seed", "1"),
        ("verify", "--q", "5", "--g", "3"),
    ],
)
def test_huge_sample_size_exit_3(capsys, argv):
    # refused in one line before anything is allocated: 10^12 int64 draws would not fit
    code, out, err = run_cli(capsys, *argv, "--sample-size", "1000000000000")
    assert code == 3
    assert out == ""
    assert err.startswith("error: a sample of 1000000000000 curves") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("moment", "--q", "5", "--g", "2", "--mode", "sample"),
        ("verify", "--q", "5", "--g", "3"),
    ],
)
def test_huge_sample_size_with_a_bad_seed_reports_the_seed(capsys, argv):
    # the seed is checked before the sample-size cap, as before the cap existed
    code, out, err = run_cli(capsys, *argv, "--sample-size", "1000000000000", "--seed", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: seed must be >= 0, got -1\n"


def test_resource_cap_exit_3(capsys):
    # the prime tables to degree 10 at q=3 need 396,290,484 entries
    code, _, err = run_cli(capsys, "moment", "--q", "3", "--g", "10")
    assert code == 3
    assert "cap" in err


@pytest.mark.parametrize("command", ["lpoly", "oracle"])
def test_d_past_the_symbol_cap_exit_3_at_once(capsys, monkeypatch, command):
    # 1 + 3 + ... + 3^20 symbols; both commands ran unbounded before the library refused it
    monkeypatch.setattr(lfunction, "dirichlet_coefficient", lambda *a: pytest.fail("a symbol summed"))
    monkeypatch.setattr(curve, "count_points", lambda *a: pytest.fail("a point counted"))
    code, out, err = run_cli(capsys, command, "--q", "3", "x^21+x+1")
    assert (code, out) == (3, "")
    assert err == "error: L-polynomial of degree 21 at q=3 needs 5230176601 symbols, past the cap\n"


def test_exponent_past_the_budget_exit_3(capsys, monkeypatch):
    # at the real budget, "x^10000000000" is refused the same way before 10^10 + 1 coefficients are listed
    monkeypatch.setattr(polyring, "_TABLE_BUDGET", 10)
    assert parse_poly("x^9+1", 3) == (1,) + (0,) * 8 + (1,)  # 10 coefficients fit
    code, out, err = run_cli(capsys, "lpoly", "--q", "3", "x^10")
    assert (code, out) == (3, "")
    assert err == "error: a term x^10 needs 11 coefficients, past the cap\n"


def record_genera(monkeypatch) -> list:
    """The genus of each scan.moment_scan or scan.sampled_moment call, in order.

    Both still run, so their own checks refuse; the builders behind them
    (prime tables, the square-free mask, the sample draw) fail the test.
    """
    attempted = []
    for name in ("moment_scan", "sampled_moment"):

        def recording(q, g, *a, real=getattr(scan, name), **k):
            attempted.append(g)
            return real(q, g, *a, **k)

        monkeypatch.setattr(scan, name, recording)
    for name in ("_prime_tables", "squarefree_mask", "sample_codes"):
        monkeypatch.setattr(scan, name, lambda *a, name=name, **k: pytest.fail(f"{name} called"))
    return attempted


@pytest.mark.parametrize("mode", [(), ("--mode", "sample", "--seed", "1")])
def test_genus_range_checks_the_cap_for_its_largest_genus_first(capsys, monkeypatch, mode):
    # g = 5 and 6 fit the budget at q=5; g = 7 does not, so no genus is computed
    attempted = record_genera(monkeypatch)
    code, out, err = run_cli(capsys, "moment", "--q", "5", "--g", "5", "--g-max", "7", *mode)
    assert code == 3
    assert out == "" and "prime tables to degree 7 at q=5" in err
    assert attempted == [7]


@pytest.mark.parametrize("mode", [(), ("--mode", "sample", "--seed", "1")])
def test_a_bad_smallest_genus_is_refused_before_any_genus(capsys, monkeypatch, mode):
    attempted = record_genera(monkeypatch)
    code, out, err = run_cli(capsys, "moment", "--q", "3", "--g", "0", "--g-max", "2", *mode)
    assert (code, out, err) == (2, "", "error: genus must be >= 1, got 0\n")
    assert attempted == []


def test_g_max_validation(capsys):
    code, _, _ = run_cli(capsys, "moment", "--q", "3", "--g", "2", "--g-max", "1")
    assert code == 2


@pytest.mark.parametrize("threads", ["0", "-4"])
def test_threads_below_one_exit_2(capsys, threads):
    code, _, err = run_cli(capsys, "moment", "--q", "3", "--g", "1", "--threads", threads)
    assert code == 2
    assert "threads" in err


# ---------------------------------------------------------------------------
# determinism


def test_reports_byte_identical_across_threads(tmp_path, capsys):
    paths = []
    for i, threads in enumerate(("1", "2")):
        p = tmp_path / f"r{i}.json"
        code, _, _ = run_cli(
            capsys,
            "moment",
            "--q", "3",
            "--g", "2",
            "--threads", threads,
            "--out", str(p),
        )
        assert code == 0
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_threads_start_no_thread(tmp_path, capsys, monkeypatch):
    # --threads is accepted and ignored: the scan runs in the calling thread
    started = []
    real_start = threading.Thread.start

    def recording(self):
        started.append(self.name)
        return real_start(self)

    monkeypatch.setattr(threading.Thread, "start", recording)
    runs = []
    for threads in ("2", "1"):
        ck = tmp_path / f"ck{threads}.json"
        argv = ("moment", "--q", "5", "--g", "3", "--threads", threads, "--checkpoint", str(ck))
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        runs.append((out, ck.read_bytes()))
    assert started == []
    assert runs[0] == runs[1]


def test_sample_mode_deterministic(tmp_path, capsys):
    outs = []
    for i in range(2):
        p = tmp_path / f"s{i}.json"
        code, _, _ = run_cli(
            capsys,
            "moment",
            "--q", "5",
            "--g", "2",
            "--mode", "sample",
            "--sample-size", "100",
            "--seed", "11",
            "--out", str(p),
        )
        assert code == 0
        outs.append(p.read_bytes())
    assert outs[0] == outs[1]


def test_genus_range_resumes_from_checkpoint(tmp_path, capsys):
    ck = str(tmp_path / "ck.json")
    argv = ["moment", "--q", "3", "--g", "1", "--g-max", "2", "--checkpoint", ck]
    code, first, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(Path(ck).read_text())["g"] == 2
    code, again, err = run_cli(capsys, *argv)  # the complete checkpoint is resumed
    assert code == 0, err
    assert again == first
    with pytest.raises(SystemExit) as exit_:
        main([*argv, "--resume"])  # the path alone decides; there is no flag
    assert exit_.value.code == 2
    assert "unrecognized arguments: --resume" in capsys.readouterr().err


def test_checkpoint_of_another_scan_exit_2_and_kept(tmp_path, capsys):
    ck = tmp_path / "ck.json"
    assert run_cli(capsys, "moment", "--q", "3", "--g", "1", "--checkpoint", str(ck))[0] == 0
    before = ck.read_bytes()
    code, out, err = run_cli(capsys, "moment", "--q", "3", "--g", "2", "--checkpoint", str(ck))
    assert (code, out) == (2, "")
    assert err == "error: checkpoint does not match this scan configuration\n"
    assert ck.read_bytes() == before


@pytest.mark.parametrize("threads", ["1", "2"])
def test_rerun_resumes_from_a_first_chunk_checkpoint(tmp_path, capsys, monkeypatch, threads):
    ck = tmp_path / "ck.json"
    argv = ["moment", "--q", "5", "--g", "3", "--threads", threads, "--checkpoint", str(ck)]
    real_write = scan._write_checkpoint
    writes = []

    def recording(path, *a):
        real_write(path, *a)
        writes.append(Path(path).read_bytes())

    monkeypatch.setattr(scan, "_write_checkpoint", recording)
    code, full, _ = run_cli(capsys, *argv)
    assert code == 0
    chunks, final = len(writes), ck.read_bytes()
    assert chunks == 3  # 5 + 25 + 125 summands in chunks of 64
    ck.write_bytes(writes[0])  # as if the run stopped after its first chunk
    writes.clear()
    code, resumed, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert len(writes) == chunks - 1  # only the remaining chunks ran
    assert resumed == full
    assert ck.read_bytes() == final


def test_malformed_checkpoint_exit_2(tmp_path, capsys):
    ck = tmp_path / "ck.json"
    ck.write_text("[]\n")
    code, out, err = run_cli(capsys, "moment", "--q", "3", "--g", "1", "--checkpoint", str(ck))
    assert code == 2
    assert "error: checkpoint is not a JSON object" in err
    assert out == ""


@pytest.mark.parametrize("genera", [("--g", "9"), ("--g", "1", "--g-max", "9")])
def test_unwritable_checkpoint_refused_before_any_scan(tmp_path, capsys, monkeypatch, genera):
    # without the check, q=3 g=9 builds its tables and its first chunk before the first write fails;
    # moment_scan refuses the path itself, and a range calls it for g = 9 first
    attempted = record_genera(monkeypatch)
    for ck in (tmp_path / "no-such-dir" / "ck.json", tmp_path):  # a missing directory, and a directory
        code, out, err = run_cli(capsys, "moment", "--q", "3", *genera, "--checkpoint", str(ck))
        assert (code, out) == (2, "")
        assert err == f"error: checkpoint {ck} is not a writable file path\n"
        assert attempted == [9]
        attempted.clear()


@pytest.mark.parametrize(
    "argv,module,work",
    [
        (("verify", "--q", "3", "--g", "3"), verify, "run_identity_suite"),
        (("moment", "--q", "3", "--g", "1"), asymptotics, "euler_constants"),
        (("constants", "--q", "3"), asymptotics, "euler_constants"),
    ],
    ids=["verify", "moment", "constants"],
)
def test_unwritable_out_refused_before_any_work(tmp_path, capsys, monkeypatch, argv, module, work):
    # verify printed its PASS lines and ran for seconds before the write failed
    monkeypatch.setattr(module, work, lambda *a, **k: pytest.fail(f"{work} called"))
    for path in (tmp_path / "no-such-dir" / "v.json", tmp_path):  # a missing directory, and a directory
        code, out, err = run_cli(capsys, *argv, "--out", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: --out {path} is not a writable file path\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("moment", "--q", "3", "--g", "1", "--out", "{missing}/x"),
        ("verify", "--q", "3", "--g", "1", "--out", "{missing}/v.json"),
        ("moment", "--q", "3", "--g", "1", "--checkpoint", "{missing}/ck.json"),
    ],
    ids=["moment-out", "verify-out", "moment-checkpoint"],
)
def test_unwritable_path_exit_2(tmp_path, capsys, argv):
    missing = tmp_path / "no-such-dir"
    code, _, err = run_cli(capsys, *(a.format(missing=missing) for a in argv))
    assert code == 2
    assert err.startswith("error: ")
    assert "no-such-dir" in err
