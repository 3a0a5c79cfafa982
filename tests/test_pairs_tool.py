"""`tools/pairs.py`: the gain rule, and the refusal of too few pairs.

A claimed gain rests on `summarize`: the change must win at least 9 in 10
pairs, and the medians must differ, in the better direction, by more than the
distance between the parent's quartiles. A run of fewer than 10 pairs is
refused before any benchmark starts.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("tools_pairs", ROOT / "tools" / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# median 88.45, quartiles [88.225, 88.675]: an interquartile range of 0.45
PARENT = [88.0 + 0.1 * i for i in range(10)]


def _wins_and_gain(row):
    return row.split()[-2:]


def test_nine_wins_beyond_the_iqr_is_a_gain(pairs):
    change = [PARENT[0] + 1.0] + [p - 1.0 for p in PARENT[1:]]
    assert _wins_and_gain(pairs.summarize("peak_rss_mb", "lower", PARENT, change)) == [
        "9/10", "yes"]
    # the same figures for a metric where higher is better
    flip = [-v for v in PARENT], [-v for v in change]
    assert _wins_and_gain(pairs.summarize("m", "higher", *flip)) == ["9/10", "yes"]


def test_eight_wins_is_no_gain(pairs):
    change = [PARENT[0] + 1.0, PARENT[1] + 1.0] + [p - 1.0 for p in PARENT[2:]]
    assert _wins_and_gain(pairs.summarize("peak_rss_mb", "lower", PARENT, change)) == [
        "8/10", "no"]


def test_median_gap_inside_the_iqr_is_no_gain(pairs):
    change = [p - 0.2 for p in PARENT]
    assert _wins_and_gain(pairs.summarize("peak_rss_mb", "lower", PARENT, change)) == [
        "10/10", "no"]


def test_too_few_pairs_exit_1_before_any_run(pairs, monkeypatch, capsys):
    runs = []
    monkeypatch.setattr(pairs, "run_once", lambda *args: runs.append(args))
    code = pairs.main(["--parent", str(ROOT), "--workload", "train", "--pairs", "9"])
    out, err = capsys.readouterr()
    assert code == 1
    assert runs == []
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
