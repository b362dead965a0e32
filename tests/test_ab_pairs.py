"""Tests for tools/ab_pairs.py: the repository against itself and against a one-byte change."""

import importlib.util
import shutil
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab_pairs", _ROOT / "tools" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)


def test_repository_against_itself(capsys):
    argv = ["moment", "--q", "3", "--g", "1"]
    rc = ab_pairs.main([str(_ROOT), str(_ROOT), "--pairs", "2", "--", *argv])
    out = capsys.readouterr().out
    assert rc == 0, out
    # two runs per pair, parent first in pair 0 and change first in pair 1
    assert [line.split(":")[0] for line in out.splitlines()[:4]] == [
        "pair 0 parent", "pair 0 change", "pair 1 change", "pair 1 parent",
    ]
    assert "parent median: wall" in out and "change median: wall" in out
    assert "parent IQR: wall" in out and "change IQR: wall" in out
    assert "outputs identical in 2 pairs" in out
    for label in ("wall", "cpu", "rss"):
        assert f"\n{label} wins: change " in out
        assert f"\n{label} ratio change/parent: median " in out
        assert f"\n{label} gain rule (>= 9/10 wins, median gap > parent IQR): " in out


def test_iqr_is_the_distance_between_quartiles():
    assert ab_pairs.iqr([1.0, 2.0, 3.0, 4.0, 5.0]) == 2.0  # quartiles 2 and 4
    assert ab_pairs.iqr([7.0]) == 0.0


def test_wins_are_counted_per_metric_and_ties_count_for_neither():
    parent = [{"wall_s": 2.0, "peak_rss_mb": 84.0}, {"wall_s": 1.0, "peak_rss_mb": 84.0},
              {"wall_s": 3.0, "peak_rss_mb": 84.1}]
    change = [{"wall_s": 1.5, "peak_rss_mb": 55.0}, {"wall_s": 1.0, "peak_rss_mb": 55.1},
              {"wall_s": 3.5, "peak_rss_mb": 84.1}]
    assert ab_pairs.wins(parent, change, "wall_s") == (1, 1)  # pair 1 ties
    assert ab_pairs.wins(parent, change, "peak_rss_mb") == (2, 0)  # pair 2 ties
    assert ab_pairs.wins(change, parent, "peak_rss_mb") == (0, 2)


def test_ratio_quartiles_are_taken_over_the_per_pair_ratios():
    parent = [{"wall_s": p} for p in (2.0, 4.0, 1.0, 5.0, 8.0)]
    change = [{"wall_s": c} for c in (1.0, 3.0, 1.0, 2.0, 2.0)]  # ratios 0.5, 0.75, 1, 0.4, 0.25
    assert ab_pairs.ratio_quartiles(parent, change, "wall_s") == (0.4, 0.5, 0.75)
    assert ab_pairs.ratio_quartiles(parent[:1], change[:1], "wall_s") == (0.5, 0.5, 0.5)


def test_gain_rule_needs_nine_in_ten_wins_and_a_gap_past_the_parent_iqr():
    parent = [{"wall_s": 1.0 + 0.01 * k} for k in range(10)]  # median 1.045, IQR 0.045
    assert ab_pairs.gain_holds(parent, [{"wall_s": p["wall_s"] - 0.1} for p in parent], "wall_s")
    # nine wins of ten still hold; eight do not
    nine = [{"wall_s": 0.9}] * 9 + [{"wall_s": 2.0}]
    assert ab_pairs.gain_holds(parent, nine, "wall_s")
    assert not ab_pairs.gain_holds(parent, [{"wall_s": 0.9}] * 8 + [{"wall_s": 2.0}] * 2, "wall_s")
    # ten wins by a hair, as host drift gives them: the gap is inside the IQR
    assert not ab_pairs.gain_holds(parent, [{"wall_s": p["wall_s"] - 0.001} for p in parent], "wall_s")
    assert not ab_pairs.gain_holds(parent, parent, "wall_s")  # ties win nothing


def test_catches_a_changed_csv_header_byte(tmp_path, capsys):
    change = tmp_path / "change"
    shutil.copytree(_ROOT / "src", change / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = change / "src" / "hyperell" / "cli.py"
    text = cli.read_text()
    assert '"# hyperell-moment-v1"' in text
    cli.write_text(text.replace('"# hyperell-moment-v1"', '"# hyperell-moment-v2"'))
    argv = ["moment", "--q", "3", "--g", "1", "--format", "csv"]
    pair = [str(_ROOT), str(change), "--pairs", "1", "--", *argv]
    rc = ab_pairs.main([*pair, "--out", "{tmp}/m.csv"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "pair 0: file {tmp}/m.csv differs between the sides" in out
    rc = ab_pairs.main(pair)
    assert rc == 1
    assert "pair 0: stdout differs between the sides" in capsys.readouterr().out
