"""The summary arithmetic and the pair loop of scripts/bench_pairs.py, on
canned run records (no benchmark is run)."""

import importlib.util
import json
import os
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
    # the median gain of 30 exceeds the parent's IQR of 6
    assert steps["median_gain_beats_parent_iqr"] is True
    rss = entry["peak_rss_mb"]
    # lower is better: pair 2 wins, pairs 1 and 4 tie, pairs 3 and 5 lose
    assert rss["change_better_pairs"] == 1 and rss["ties"] == 2
    assert rss["parent_median"] == 50.0 and rss["change_median"] == 50.0
    assert rss["median_gain_beats_parent_iqr"] is False


@pytest.mark.parametrize("better, change, beats", [
    ("higher", [104.0, 108.0, 100.0, 106.0, 102.0], False),  # gain 4, IQR 6
    ("higher", [107.0, 111.0, 103.0, 109.0, 105.0], True),   # gain 7
    ("lower", [93.0, 97.0, 89.0, 95.0, 91.0], True),         # 7 lower
    ("lower", [107.0, 111.0, 103.0, 109.0, 105.0], False),   # 7 higher
])
def test_claim_rule_needs_a_median_gain_beyond_the_parent_iqr(better, change, beats):
    parent = [100.0, 104.0, 96.0, 102.0, 98.0]  # quartiles 97, 100, 103
    runs = [record("w", 7, i + 1, side, m=value)
            for i in range(5) for side, value in (("parent", parent[i]), ("change", change[i]))]
    stats = bench_pairs.summarize(runs, {"m": better})["w/7"]["m"]
    assert stats["median_gain_beats_parent_iqr"] is beats


@pytest.mark.parametrize("better, gains, met", [
    ("higher", [10.0] * 10, True),
    ("higher", [10.0] * 9 + [-1.0], True),         # 9 of 10 better
    ("higher", [10.0] * 8 + [0.0, 0.0], False),    # ties count for neither side
    ("higher", [10.0] * 8 + [-1.0, -1.0], False),  # 8 of 10 better
    ("higher", [1.0] * 10, False),                 # median gain 1, parent IQR 2
    ("lower", [-10.0] * 9 + [1.0], True),
    ("lower", [10.0] * 10, False),
])
def test_claim_rule_met_needs_nine_tenths_of_the_pairs_and_the_iqr_gain(better, gains, met):
    parent = [100.0, 101.0, 99.0, 100.0, 101.0, 99.0, 100.0, 101.0, 99.0, 100.0]  # q1 99, q3 101
    runs = [record("w", 7, i + 1, side, m=value) for i, (p, g) in enumerate(zip(parent, gains))
            for side, value in (("parent", p), ("change", p + g))]
    stats = bench_pairs.summarize(runs, {"m": better})["w/7"]["m"]
    assert stats["claim_rule_met"] is met


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


def bench_file(path, summary):
    path.write_text(json.dumps({"what": "", "parent": "a", "change": "b", "summary": summary,
                                "runs": []}))


def entry(parent, change):
    return {"pairs": 5, "steps_per_s": {"parent_median": parent, "change_median": change,
                                        "parent_q1": 0.0}}


def test_trajectory_lists_medians_in_pr_order(tmp_path):
    bench_file(tmp_path / "BENCH_10.json", {"w/7": entry(120.0, 150.0)})
    bench_file(tmp_path / "BENCH_9.json", {"w/7": entry(100.0, 120.0), "v/7": entry(3.0, 4.0)})
    (tmp_path / "BENCH_11.json").write_text(json.dumps({"runs": []}))
    lines = bench_pairs.trajectory(str(tmp_path))
    assert lines[0] == "skipped BENCH_11.json: no summary of parent and change medians"
    assert [line.split() for line in lines[1:]] == [
        ["v"], ["steps_per_s"], ["BENCH_9.json", "v/7", "parent", "3", "change", "4"],
        ["w"], ["steps_per_s"],
        ["BENCH_9.json", "w/7", "parent", "100", "change", "120"],
        ["BENCH_10.json", "w/7", "parent", "120", "change", "150"],
    ]


def test_trajectory_mode_needs_no_revisions(tmp_path, capsys):
    assert bench_pairs.main(["--trajectory", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "\n"
    with pytest.raises(SystemExit):
        bench_pairs.main(["--parent", "HEAD"])


def test_each_run_extracts_its_side_afresh(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    repo.mkdir()
    (repo / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "steps_per_s", "better": "higher"}]}))
    events = []

    def git(*args, cwd=None):
        return (str(repo) if args[0] == "rev-parse" and args[1] == "--show-toplevel"
                else args[-1]).encode()

    def extract(rev, dest, _repo):
        assert not os.path.exists(dest)  # the side's earlier files are gone
        os.makedirs(dest)
        events.append(("extract", rev, dest))

    def run_side(root, workload, seed, seconds):
        events.append(("run", root))
        return {"metrics": {"steps_per_s": 1.0}}

    monkeypatch.setattr(bench_pairs, "git", git)
    monkeypatch.setattr(bench_pairs, "benchmark_differs", lambda *args: False)
    monkeypatch.setattr(bench_pairs, "extract", extract)
    monkeypatch.setattr(bench_pairs, "run_side", run_side)
    out = tmp_path / "BENCH_1.json"
    assert bench_pairs.main(["--parent", "p", "--change", "c", "--workload", "w",
                             "--seed", "7", "--pairs", "3", "--out", str(out)]) == 0
    assert len(events) == 2 * 2 * 3
    extracts, runs = events[0::2], events[1::2]
    assert all(e[0] == "extract" for e in extracts) and all(r[0] == "run" for r in runs)
    # each run is in the directory extracted just before it, parent first in
    # odd pairs and change first in even ones
    assert [r[1] for r in runs] == [e[2] for e in extracts]
    assert [e[1] for e in extracts] == ["p", "c", "c", "p", "p", "c"]
    assert json.loads(out.read_text())["summary"]["w/7"]["pairs"] == 3
