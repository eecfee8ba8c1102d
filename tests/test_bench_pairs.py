"""The summary arithmetic of scripts/bench_pairs.py, on canned run records
(no benchmark is run)."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def record(workload, seed, pair, side, **metrics):
    return {"workload": workload, "seed": seed, "pair": pair, "side": side,
            "ran_first": (side == "parent") == (pair % 2 == 1),
            "result": {"metrics": metrics}}


def canned_runs():
    parent = [100.0, 104.0, 96.0, 102.0, 98.0]
    change = [130.0, 125.0, 97.0, 140.0, 135.0]
    rss_parent = [50.0, 50.0, 51.0, 50.0, 50.0]
    rss_change = [50.0, 49.0, 52.0, 50.0, 50.5]
    runs = []
    for i in range(5):
        runs.append(record("w", 7, i + 1, "parent", steps_per_s=parent[i], peak_rss_mb=rss_parent[i]))
        runs.append(record("w", 7, i + 1, "change", steps_per_s=change[i], peak_rss_mb=rss_change[i]))
    return runs


def test_medians_quartiles_and_wins():
    summary = bench_pairs.summarize(canned_runs(), {"steps_per_s": "higher", "peak_rss_mb": "lower"})
    assert list(summary) == ["w/7"]
    entry = summary["w/7"]
    assert entry["pairs"] == 5
    steps = entry["steps_per_s"]
    # exclusive quartiles of 96, 98, 100, 102, 104 and of 97, 125, 130, 135, 140
    assert (steps["parent_q1"], steps["parent_median"], steps["parent_q3"]) == (97.0, 100.0, 103.0)
    assert (steps["change_q1"], steps["change_median"], steps["change_q3"]) == (111.0, 130.0, 137.5)
    assert steps["median_ratio_change_over_parent"] == pytest.approx(1.3)
    assert steps["change_better_pairs"] == 5 and steps["ties"] == 0
    rss = entry["peak_rss_mb"]
    # lower is better: pair 2 wins, pairs 1 and 4 tie, pairs 3 and 5 lose
    assert rss["change_better_pairs"] == 1 and rss["ties"] == 2
    assert rss["parent_median"] == 50.0 and rss["change_median"] == 50.0


def test_groups_by_workload_and_seed_and_skips_half_pairs():
    runs = canned_runs() + [
        record("w", 8, 1, "change", steps_per_s=3.0),
        record("w", 8, 1, "parent", steps_per_s=2.0),
        record("w", 8, 2, "parent", steps_per_s=9.0),  # its change run is missing
    ]
    summary = bench_pairs.summarize(runs, {"steps_per_s": "higher"})
    assert list(summary) == ["w/7", "w/8"]
    lone = summary["w/8"]
    assert lone["pairs"] == 1
    assert lone["steps_per_s"]["parent_median"] == lone["steps_per_s"]["parent_q3"] == 2.0
    assert lone["steps_per_s"]["median_ratio_change_over_parent"] == 1.5
    assert lone["steps_per_s"]["change_better_pairs"] == 1
