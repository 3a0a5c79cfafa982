"""`tools/pairs.py`: the gain rule, the no-regression verdict, and the
refusal of too few pairs.

A claimed gain rests on `summarize`: the change must win at least 9 in 10
pairs, and the medians must differ, in the better direction, by more than the
distance between the parent's quartiles. `verdict` reads the change's median
against the parent's with BENCHMARK.json's bound, a fraction of the parent's
median. A run of fewer than 10 pairs is refused before any benchmark starts.
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


@pytest.mark.parametrize("shift, expected", [(0.04, "ok"), (-0.5, "ok"), (0.06, "worse")])
def test_verdict_against_the_bound(pairs, shift, expected):
    """With bound 0.05 the change may read up to 5% of the parent's median worse."""
    change = [p + shift * 88.45 for p in PARENT]
    assert pairs.verdict("lower", 0.05, PARENT, change) == expected
    flip = [-v for v in PARENT], [-v for v in change]
    assert pairs.verdict("higher", 0.05, *flip) == expected


def test_verdict_unresolved_when_the_parent_spreads_beyond_the_bound(pairs):
    """The parent's quartiles lie 0.45 / 88.45 = 0.5% apart, beyond a bound of
    0.004: only a change whose every run reads better than every parent run
    is resolved, not one that merely wins every pair."""
    assert pairs.verdict("lower", 0.004, PARENT, PARENT) == "unresolved"
    change = [p - 0.01 for p in PARENT[:9]] + [PARENT[9] + 0.01]
    assert pairs.verdict("lower", 0.004, PARENT, change) == "unresolved"
    wins_every_pair = [p - 0.01 for p in PARENT]
    assert max(wins_every_pair) > min(PARENT)
    assert pairs.verdict("lower", 0.004, PARENT, wins_every_pair) == "unresolved"
    below_all = [min(PARENT) - 0.01 - i / 1000 for i in range(len(PARENT))]
    assert pairs.verdict("lower", 0.004, PARENT, below_all) == "ok"
    flip = [-v for v in PARENT], [-v for v in below_all]
    assert pairs.verdict("higher", 0.004, *flip) == "ok"


def test_table_prints_a_verdict_per_metric(pairs, monkeypatch, capsys):
    """main reads each metric's bound from BENCHMARK.json and ends its row with the verdict."""
    def run_once(checkout, workload, seed, seconds):
        slow = 1.5 if checkout == Path("/change") else 1.0
        return {"failed": 0, "attempted": 1, "metrics": {
            "op_ms_p75": {"value": 100.0 * slow + seed},
            "peak_rss_mb": {"value": 80.0 - seed / 100}}}

    monkeypatch.setattr(pairs, "run_once", run_once)
    monkeypatch.setattr(pairs, "benchmark_spec", lambda checkout: (
        1.0, {"op_ms_p75": ("lower", 0.25), "peak_rss_mb": ("lower", 0.05)}))
    monkeypatch.setattr(Path, "is_file", lambda self: True)
    code = pairs.main(["--parent", "/parent", "--change", "/change", "--workload", "train"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[1].split()[-2:] == ["gain", "verdict"]
    rows = {line.split()[0]: line.split()[-3:] for line in out[2:4]}
    assert rows == {"op_ms_p75": ["0/10", "no", "worse"], "peak_rss_mb": ["0/10", "no", "ok"]}
