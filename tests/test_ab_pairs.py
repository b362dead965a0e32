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
