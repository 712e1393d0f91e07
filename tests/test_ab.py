"""tools/ab.py: the paired summary on synthetic run records, and seed parsing."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab.py"
METRICS = [
    {"name": "wall_s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
]


def _load():
    spec = importlib.util.spec_from_file_location("ab", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(wall, rss, correct=True):
    return {"correct": correct, "metrics": {"wall_s": wall, "peak_rss_mb": rss}}


def _pairs():
    walls = [(1.0, 0.8), (1.2, 0.9), (1.1, 1.1), (0.9, 1.0), (1.0, 0.7)]
    rss = [(300.0, 200.0)] * 5
    pairs = [
        {"seed": s, "workload": "w", "base": _run(b, rb), "candidate": _run(c, rc, correct=s != 3)}
        for s, ((b, c), (rb, rc)) in enumerate(zip(walls, rss))
    ]
    # a run that raised has no metrics: its pair counts for no metric
    pairs.append({"seed": 5, "workload": "w", "base": _run(5.0, 1.0), "candidate": {"correct": False, "error": []}})
    pairs.append({"seed": 0, "workload": "other", "base": _run(1.0, 100.0), "candidate": _run(1.5, 105.0)})
    return pairs


def test_summary_counts_wins_ties_and_failed_runs():
    summary = _load().summarize(_pairs(), METRICS)
    assert list(summary) == ["w", "other"]
    w = summary["w"]
    assert w["pairs"] == 6
    assert w["failed"] == {"base": [], "candidate": [3, 5]}
    wall = w["metrics"]["wall_s"]
    assert (wall["n"], wall["won"], wall["lost"]) == (5, 3, 1)  # the 1.1/1.1 pair is a tie
    assert wall["base"] == {"median": 1.0, "q1": 1.0, "q3": 1.1}
    assert wall["candidate"] == {"median": 0.9, "q1": 0.8, "q3": 1.0}
    assert wall["ratio_median"] == pytest.approx(0.8)  # of 0.8, 0.75, 1, 1.11, 0.7
    assert wall["within_bound"]
    assert w["metrics"]["peak_rss_mb"]["won"] == 5


def test_summary_flags_a_median_beyond_its_relative_bound():
    other = _load().summarize(_pairs(), METRICS)["other"]["metrics"]
    assert other["wall_s"]["base"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}
    assert not other["wall_s"]["within_bound"]  # 50% slower against a 25% bound
    assert other["peak_rss_mb"]["within_bound"]  # 5% larger against a 10% bound


def test_higher_is_better_metrics_invert_the_comparison():
    pairs = [{"seed": 0, "workload": "w", "base": _run(1.0, 1.0), "candidate": _run(2.0, 1.0)}]
    m = _load().summarize(pairs, [{"name": "wall_s", "better": "higher", "bound": 0.1}])["w"]["metrics"]["wall_s"]
    assert (m["won"], m["lost"], m["within_bound"]) == (1, 0, True)


def test_parse_seeds():
    tool = _load()
    assert tool.parse_seeds("101-103,7") == [101, 102, 103, 7]
    with pytest.raises(ValueError):
        tool.parse_seeds("5-4")


def test_parse_verify_reads_each_check_line_of_the_report():
    from ctrlstop.acceptance import CheckResult, render

    results = [
        CheckResult(cid=2, name="forward value (d=1)", passed=True, detail="gap (1.5s) ok", seconds=3.456),
        CheckResult(cid=12, name="last", passed=False, detail="", seconds=0.5),
    ]
    assert _load().parse_verify(render(results)) == {
        "2": {"seconds": 3.46, "passed": True},
        "12": {"seconds": 0.5, "passed": False},
    }


def test_counters_are_the_count_metrics_and_only_differences_are_listed():
    tool = _load()
    per_layer = [
        {"name": "pde.nt", "unit": "count"},
        {"name": "pde.solve_s", "unit": "s"},
        {"name": "model.coeff_rows", "unit": "count"},
    ]
    assert tool.counter_names(per_layer) == ["pde.nt", "model.coeff_rows"]
    counters = {
        "w": {
            "base": {"pde.nt": 245.0, "model.coeff_rows": 9e6, "model.coeff_calls": 777.0},
            "candidate": {"pde.nt": 245.0, "model.coeff_rows": 9e6, "model.coeff_calls": 900.0},
        },
        # a counter only one side reports reads None on the other
        "other": {"base": {"pde.nt": 10.0}, "candidate": {}},
    }
    assert tool.moved_counters(counters) == {
        "w": {"model.coeff_calls": {"base": 777.0, "candidate": 900.0}},
        "other": {"pde.nt": {"base": 10.0, "candidate": None}},
    }
