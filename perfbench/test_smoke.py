"""Smoke test of the benchmark itself.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload at a tiny size, untraced and traced, and checks that the
result line is well formed, that every printed metric is declared in
BENCHMARK.json (and every declared metric printed), that all output checks
pass, and that the per-layer bypass predictions hold.  It also checks that
the benchmark refuses to run without the scgscale sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sign_sweep", "spectral_train", "rates_fit", "parallel_sweep")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "5", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def _declared(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_untraced(workload):
    proc = _run(workload, 0)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    env = json.loads(lines[-2])["env"]
    for key in ("python", "numpy", "scipy", "blas", "blas_threads", "nproc",
                "loadavg_1m_start", "loadavg_1m_end", "contended"):
        assert key in env


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_traced(workload):
    proc = _run(workload, 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == _declared("per_layer")
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["trace.unreached"] == 0
    assert m["error_rate"] == 0
    assert m["optimizer.steps"] > 0 and m["problems.grad_calls"] > 0
    if workload in ("sign_sweep", "rates_fit"):
        assert m["geometry.svd_calls"] == 0 and m["geometry.lmo_calls"] == 0
    else:
        assert m["geometry.svd_calls"] > 0 and m["geometry.lmo_calls"] > 0
    assert (m["estimation.fit_calls"] > 0) == (workload == "rates_fit")
    assert m["experiments.worker_processes"] == (2 if workload == "parallel_sweep" else 0)
    if workload == "spectral_train":
        assert m["optimizer.checked_steps"] > 0
        assert m["optimizer.recorded_rows"] == m["optimizer.steps"]


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("sign_sweep", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
