"""Smoke runs of the three scripts/experiments.py subcommands on tiny
arguments: each must finish and write output that parses."""

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
    with pytest.raises(SystemExit, match="at least 2"):
        run_script(monkeypatch, capsys, "regime", "--log2-budget", "1",
                   "--out", str(tmp_path / "regime.csv"))
    assert not (tmp_path / "regime.csv").exists()


def test_rates(monkeypatch, capsys, tmp_path):
    out = tmp_path / "rates.csv"
    printed = run_script(monkeypatch, capsys, "rates", "--log2-budgets", "10:12",
                         "--repetitions", "2", "--out", str(out))
    rows = read_csv(out)
    assert [int(r["T"]) for r in rows] == [1024, 2048]
    assert all(int(r["K"]) >= 1 and float(r["final_loss_mean"]) >= 0.0 for r in rows)
    assert "log-log slope" in printed


def test_restart(monkeypatch, capsys, tmp_path):
    out = tmp_path / "restart.json"
    printed = run_script(monkeypatch, capsys, "restart", "--trials", "2",
                         "--budget-factor", "2", "--out", str(out))
    doc = json.loads(out.read_text())
    assert doc["stages"]
    assert len(doc["staged_final_losses"]) == len(doc["baseline_final_losses"]) == 2
    assert "staged wins" in printed
