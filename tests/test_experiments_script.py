"""Smoke runs of the three scripts/experiments.py subcommands on tiny
arguments: each must finish and write output that parses, or end an argument
that the library rejects, or one that overflows a run, with one error line and
its exit code."""

import csv
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from scgscale.experiments import SWEEP_CSV_HEADER

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "experiments.py"
_spec = importlib.util.spec_from_file_location("experiments_script", _PATH)
script = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(script)


def run_script(monkeypatch, capsys, *args):
    monkeypatch.setattr(sys, "argv", ["experiments.py", *args])
    script.main()
    return capsys.readouterr().out


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("log2_budget, slope_defined", [(12, True), (4, False)])
def test_regime(monkeypatch, capsys, tmp_path, log2_budget, slope_defined):
    out = tmp_path / "regime.csv"
    printed = run_script(monkeypatch, capsys, "regime", "--log2-budget", str(log2_budget),
                         "--repetitions", "2", "--out", str(out))
    rows = read_csv(out)
    assert list(rows[0]) == SWEEP_CSV_HEADER
    assert len(rows) == min(19, log2_budget - 1)
    assert all(float(r["final_loss_mean"]) >= 0.0 for r in rows)
    assert ("slope beyond 8x critical: undefined" in printed) != slope_defined


def test_regime_rejects_an_empty_grid(monkeypatch, capsys, tmp_path):
    with pytest.raises(SystemExit) as exit_info:
        run_script(monkeypatch, capsys, "regime", "--log2-budget", "1",
                   "--out", str(tmp_path / "regime.csv"))
    assert exit_info.value.code == 2 and "at least 2" in capsys.readouterr().err
    assert not (tmp_path / "regime.csv").exists()


def test_rates(monkeypatch, capsys, tmp_path):
    out = tmp_path / "rates.csv"
    printed = run_script(monkeypatch, capsys, "rates", "--log2-budgets", "10:12",
                         "--repetitions", "2", "--out", str(out))
    rows = read_csv(out)
    assert [int(r["T"]) for r in rows] == [1024, 2048]
    assert all(int(r["K"]) >= 1 and float(r["final_loss_mean"]) >= 0.0 for r in rows)
    assert "log-log slope" in printed


def test_rates_prints_the_steps_per_run(monkeypatch, capsys, tmp_path):
    out = tmp_path / "rates.csv"
    printed = run_script(monkeypatch, capsys, "rates", "--log2-budgets", "6:12",
                         "--repetitions", "2", "--out", str(out))
    assert [int(r["K"]) for r in read_csv(out)] == [9, 11, 15, 18, 23, 30]
    assert "(predicted -1/3) over K = 9-30 steps per run" in printed


def test_restart(monkeypatch, capsys, tmp_path):
    out = tmp_path / "restart.json"
    printed = run_script(monkeypatch, capsys, "restart", "--trials", "2",
                         "--budget-factor", "2", "--out", str(out))
    doc = json.loads(out.read_text())
    assert doc["stages"]
    assert len(doc["staged_final_losses"]) == len(doc["baseline_final_losses"]) == 2
    assert "staged wins" in printed


@pytest.mark.parametrize("args, code, message", [
    (("restart", "--budget-factor", "1"), 2, "budget_factor"),
    (("rates", "--log2-budgets", "14:15"), 2, "t_exponents"),
    # budgets 2^1 .. 2^3 leave K = 2 .. 4 steps per run, below the 2c = 4 the
    # c/K stepsize needs
    (("rates", "--log2-budgets", "1:4", "--repetitions", "1"), 2, "iters must be at least 2c"),
    # the second stage's step count overflows the run loop
    (("restart", "--trials", "1", "--budget-factor", "1e300"), 4, "too large"),
    # the grid BS = 2^0 .. 2^(budget - 2) would be empty
    (("regime", "--log2-budget", "1"), 2, "--log2-budget must be at least 2"),
])
def test_rejected_arguments_end_in_one_error_line(monkeypatch, capsys, tmp_path, args, code,
                                                  message):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        run_script(monkeypatch, capsys, *args, "--out", str(out))
    assert exit_info.value.code == code
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.out == "" and not out.exists()
