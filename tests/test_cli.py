import contextlib
import copy
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scgscale import cli
from scgscale.estimation import bundled_constant_laws


def read_runlog(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def quadratic_problem_dict(sigma=0.1, B=4.0, S=2.0, dim=3):
    return {
        "kind": "layered_quadratic",
        "blocks": [
            {
                "name": "w",
                "geometry": {"kind": "euclidean", "shape": [dim], "radius_eta": 2.0},
                "curvature": 1.0,
                "target": [1.0] + [0.0] * (dim - 1),
            }
        ],
        "noise": {"sigma_star": sigma, "B": B, "S": S},
    }


def train_config(iters=10, seed=0, stages=None):
    cfg = {
        "schema_version": 1,
        "problem": quadratic_problem_dict(),
        "optimizer": {
            "alpha": 0.5,
            "beta": {"type": "constant", "value": 0.1},
            "iters": iters,
            "seed": seed,
        },
    }
    if stages is not None:
        cfg["stages"] = stages
    return cfg


def sweep_config():
    return {
        "schema_version": 1,
        "problem": quadratic_problem_dict(),
        "token_budget": 64.0,
        "grid": [[4.0, 2.0], [2.0, 4.0], [64.0, 1.0]],
        "rule": {"kind": "prescribed", "c": 2.0, "mode": "asymptotic"},
        "repetitions": 2,
        "seed_base": 3,
        "constants": {"L": 1.0, "mu": 0.5, "rho": 1.5, "sigma_star": 0.1, "delta0": 1.0, "c": 2.0},
    }


def run_config(command, cfg, out):
    """cli.main on cfg written to a JSON file next to out; returns (rc, stderr)."""
    cfg_path = out.parent / f"{out.name}.json"
    cfg_path.write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main([command, "--config", str(cfg_path), "--out", str(out)])
    return rc, err.getvalue()


class TestMalformedConfigs:
    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_non_object_config_exits_2(self, command, tmp_path):
        rc, err = run_config(command, [1], tmp_path / "o")
        assert rc == 2
        assert "JSON object" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_non_object_problem_exits_2(self, command, tmp_path):
        cfg = train_config() if command == "train" else sweep_config()
        cfg["problem"] = []
        rc, err = run_config(command, cfg, tmp_path / "o")
        assert rc == 2
        assert "problem must be a JSON object" in err

    @pytest.mark.parametrize(
        "key,value",
        [("check_invariants", "false"), ("store_gradients", 1), ("iters", 50.7),
         ("alpha", "0.1"), ("alpha", True), ("seed", None), ("radii", ["2.0"]),
         ("radii", 2.0), ("momentum_init", 0), ("variant", 5),
         pytest.param("alpha", 10**400, id="alpha-10**400")],
    )
    def test_mistyped_optimizer_value_exits_2(self, key, value, tmp_path):
        cfg = train_config()
        cfg["optimizer"][key] = value
        rc, err = run_config("train", cfg, tmp_path / "o")
        assert rc == 2
        assert f"optimizer config: {key} must be" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "where,key,value",
        [("", "repetitions", 2.5), ("", "token_budget", "64"),
         ("rule", "c", "2"), ("constants", "L", [1.0]), ("", "grid", [["4.0", 2.0]]),
         ("", "grid", [[4.0, True]]), ("", "grid", [[4.0]]), ("", "grid", 4.0)],
    )
    def test_mistyped_sweep_value_exits_2(self, where, key, value, tmp_path):
        cfg = sweep_config()
        (cfg[where] if where else cfg)[key] = value
        rc, err = run_config("sweep", cfg, tmp_path / "o")
        assert rc == 2
        assert f"{key} must be" in err

    @pytest.mark.parametrize(
        "beta,key",
        [({"type": "constant", "value": "0.1"}, "value"),
         ({"type": "constant", "value": True}, "value"),
         ({"type": "constant", "value": 0.1, "gamma": 7}, "gamma"),
         ({"type": "warmdown", "gamma": "0.1", "total_steps": 10}, "gamma"),
         ({"type": "warmdown", "gamma": 0.1, "total_steps": 10.5}, "total_steps"),
         ({"type": "warmdown", "gamma": 0.1, "total_steps": 10, "c": 1}, "c"),
         ({"type": "horizon", "c": 1.0, "iters": "10"}, "iters"),
         ({"type": "horizon", "c": 1.0, "iters": 10, "value": 0.1}, "value"),
         ({"type": "horizon", "c": 1.0}, "iters")],
    )
    def test_mistyped_beta_schedule_exits_2(self, beta, key, tmp_path):
        cfg = train_config(iters=10)
        cfg["optimizer"]["beta"] = beta
        rc, err = run_config("train", cfg, tmp_path / "o")
        assert rc == 2
        assert f"beta schedule: {key} must be" in err or f"'{key}'" in err

    @pytest.mark.parametrize(
        "beta",
        [{"type": "constant", "value": 1},
         {"type": "warmdown", "gamma": 0.1, "total_steps": 10.0},
         {"type": "warmdown", "gamma": 0.1, "total_steps": 12, "warmdown_steps": 4},
         {"type": "horizon", "c": 1, "iters": 10}],
    )
    def test_each_beta_schedule_type_runs(self, beta, tmp_path):
        cfg = train_config(iters=10)
        cfg["optimizer"]["beta"] = beta
        rc, _ = run_config("train", cfg, tmp_path / "o")
        assert rc == 0

    def test_unknown_problem_kind_exits_2(self, tmp_path):
        cfg = train_config()
        cfg["problem"]["kind"] = "banana"
        rc, err = run_config("train", cfg, tmp_path / "o")
        assert rc == 2
        assert "unknown problem kind 'banana'" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "base,path,value,key",
        [("quadratic", ("blocks", 0, "curvature"), "1.5", "curvature"),
         ("quadratic", ("blocks", 0, "target"), ["1.0", "0", "0"], "target"),
         ("quadratic", ("blocks", 0, "target"), [True, False, False], "target"),
         ("quadratic", ("blocks", 0, "geometry", "shape"), ["3"], "shape"),
         ("quadratic", ("blocks", 0, "geometry", "shape"), [3.5], "shape"),
         ("quadratic", ("blocks", 0, "name"), 5, "name"),
         ("logistic", ("n_samples",), 8.9, "n_samples"),
         ("logistic", ("dim",), "3", "dim"),
         ("logistic", ("data_seed",), "1", "data_seed"),
         ("logistic", ("margin_boost",), "0.1", "margin_boost"),
         ("logistic", ("blocks", 0, "typo"), 1, "typo"),
         ("logistic", ("blocks", 0, "curvature"), 1.0, "curvature"),
         ("logistic", ("blocks",), {"w": 1}, "blocks")],
    )
    def test_mistyped_problem_exits_2(self, base, path, value, key, tmp_path):
        cfg = train_config() if base == "quadratic" else logistic_train_config()
        node = cfg["problem"]
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = value
        rc, err = run_config("train", cfg, tmp_path / "o")
        assert rc == 2
        assert key in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "key,value",
        [("stages", 5), ("stages", [5]), ("schema_version", 2), ("schema_version", "banana")],
    )
    def test_malformed_train_value_exits_2(self, key, value, tmp_path):
        cfg = train_config()
        cfg[key] = value
        rc, err = run_config("train", cfg, tmp_path / "o")
        assert rc == 2
        assert key in err
        assert not (tmp_path / "o").exists()

    def test_bad_stage_names_its_entry(self, tmp_path):
        stages = [{"token_allotment": "40", "B": 4.0, "S": 2.0, "beta": 0.1, "alpha": 0.5}]
        rc, err = run_config("train", train_config(stages=stages), tmp_path / "o")
        assert rc == 2
        assert "stages[0]: token_allotment must be a number" in err

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_sigma_star_with_overflowing_square_exits_2(self, command, tmp_path):
        cfg = train_config() if command == "train" else sweep_config()
        cfg["problem"]["noise"]["sigma_star"] = 1e200
        rc, err = run_config(command, cfg, tmp_path / "o")
        assert rc == 2
        assert "sigma_star must be >= 0 with a finite square" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", ["b_shift", "s_shift"])
    def test_noise_shift_is_an_unknown_key(self, key, tmp_path):
        cfg = train_config()
        cfg["problem"]["noise"][key] = 0.0
        rc, err = run_config("train", cfg, tmp_path / "o")
        assert rc == 2
        assert f"unknown keys in noise: ['{key}']" in err
        assert not (tmp_path / "o").exists()

    def test_integral_float_is_an_integer(self, tmp_path):
        cfg = train_config(iters=10)
        cfg["optimizer"]["iters"] = 10.0
        rc, _ = run_config("train", cfg, tmp_path / "o")
        assert rc == 0
        assert len(read_runlog(tmp_path / "o" / "runlog.csv")) == 10


def logistic_train_config():
    return {
        "schema_version": 1,
        "problem": {
            "kind": "logistic_regression",
            "blocks": [{"name": "w", "geometry": {"kind": "euclidean", "shape": [3], "radius_eta": 4.0}}],
            "n_samples": 8,
            "dim": 3,
            "data_seed": 1,
            "margin_boost": 0.1,
            "noise": {"sigma_star": 0.2, "B": 2.0, "S": 1.0},
        },
        "optimizer": {
            "variant": "scg",
            "alpha": 0.5,
            "beta": {"type": "warmdown", "gamma": 0.2, "total_steps": 8, "warmdown_steps": 2},
            "iters": 8,
            "seed": 2,
            "radii": [3.0],
            "eval_every": 2,
            "store_gradients": True,
            "momentum_init": "zeros",
            "check_invariants": True,
        },
    }


def staged_train_config():
    cfg = train_config(iters=0, seed=4, stages=[
        {"token_allotment": 24.0, "B": 4.0, "S": 2.0, "beta": 0.1, "alpha": 0.5, "note": "a"},
        {"token_allotment": 32.0, "B": 8.0, "S": 2.0, "beta": 0.05, "alpha": 0.5},
    ])
    cfg["problem"]["blocks"].append({
        "name": "s", "geometry": {"kind": "sign", "shape": [2], "radius_eta": 1},
        "curvature": 0.5, "target": [0.2, -0.1],
    })
    return cfg


_FUZZ_BASES = {
    "train": ("train", train_config),
    "train_staged": ("train", staged_train_config),
    "train_logistic": ("train", logistic_train_config),
    "sweep": ("sweep", sweep_config),
}
_FUZZ_VALUES = ["0.5", "false", True, False, None, [], [1], {}, {"a": 1}, -1, -2.5, 0.5, 2.5]


def _value_paths(node, path=()):
    """Paths to node and to every value nested in it."""
    yield path
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        items = ()
    for key, child in items:
        yield from _value_paths(child, path + (key,))


def mutate_config(cfg, index, op, value):
    """Drop, add next to, or replace the value at path number index."""
    cfg = copy.deepcopy(cfg)
    paths = list(_value_paths(cfg))
    path = paths[index % len(paths)]
    if not path:
        return value
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    if op == "drop":
        del parent[path[-1]]
    elif op == "add":
        if isinstance(parent, dict):
            parent["unexpected"] = value
        else:
            parent.append(value)
    else:
        parent[path[-1]] = value
    return cfg


@settings(max_examples=200, deadline=None)
@given(
    base=st.sampled_from(sorted(_FUZZ_BASES)),
    index=st.integers(0, 10**6),
    op=st.sampled_from(["drop", "add", "replace"]),
    value=st.sampled_from(_FUZZ_VALUES),
)
@example(base="train", index=0, op="replace", value=[1])
@example(base="sweep", index=0, op="replace", value=[1])
def test_config_fuzz_exits_cleanly(base, index, op, value):
    command, make = _FUZZ_BASES[base]
    cfg = mutate_config(make(), index, op, value)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "o"
        rc, _ = run_config(command, cfg, out)
    assert rc in (0, 2, 3, 4)


class TestTrain:
    def test_csv_has_one_row_per_step(self, tmp_path):
        cfg_path = write_json(tmp_path / "cfg.json", train_config(iters=10))
        out = tmp_path / "out"
        assert cli.main(["train", "--config", cfg_path, "--out", str(out)]) == 0
        assert len(read_runlog(out / "runlog.csv")) == 10
        summary = json.loads((out / "summary.json").read_text())
        assert summary["invariant_violations"] == 0
        assert summary["final_loss"] >= 0.0

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_path = write_json(tmp_path / "cfg.json", train_config(iters=25, seed=9))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.main(["train", "--config", cfg_path, "--out", str(out1)])
        cli.main(["train", "--config", cfg_path, "--out", str(out2)])
        assert (out1 / "runlog.csv").read_bytes() == (out2 / "runlog.csv").read_bytes()

    def test_staged_run_labels_stages(self, tmp_path):
        stages = [
            {"token_allotment": 40.0, "B": 4.0, "S": 2.0, "beta": 0.1, "alpha": 0.5},
            {"token_allotment": 160.0, "B": 16.0, "S": 2.0, "beta": 0.05, "alpha": 0.5},
        ]
        cfg_path = write_json(tmp_path / "cfg.json", train_config(stages=stages))
        out = tmp_path / "out"
        assert cli.main(["train", "--config", cfg_path, "--out", str(out)]) == 0
        assert {row["stage"] for row in read_runlog(out / "runlog.csv")} == {"0", "1"}

    def test_staged_run_ignores_the_unstaged_step_settings(self, tmp_path):
        # Each stage brings its own B, S, beta, alpha and step count.
        stages = [
            {"token_allotment": 40.0, "B": 4.0, "S": 2.0, "beta": 0.1, "alpha": 0.5},
            {"token_allotment": 80.0, "B": 8.0, "S": 2.0, "beta": 0.05, "alpha": 0.3},
        ]
        cfg = train_config(iters=5, seed=4, stages=stages)
        rc, _ = run_config("train", cfg, tmp_path / "a")
        assert rc == 0
        cfg["optimizer"].update(
            alpha=0.9, beta={"type": "warmdown", "gamma": 0.3, "total_steps": 999}, iters=999)
        cfg["problem"]["noise"].update(B=37.0, S=5.0)
        rc, _ = run_config("train", cfg, tmp_path / "b")
        assert rc == 0
        runlog = (tmp_path / "a" / "runlog.csv").read_bytes()
        assert (tmp_path / "b" / "runlog.csv").read_bytes() == runlog

    def test_null_stages_trains_unstaged(self, tmp_path):
        cfg = train_config(iters=25)
        rc, _ = run_config("train", cfg, tmp_path / "plain")
        assert rc == 0
        cfg["stages"] = None
        rc, _ = run_config("train", cfg, tmp_path / "null")
        assert rc == 0
        plain = (tmp_path / "plain" / "runlog.csv").read_bytes()
        assert (tmp_path / "null" / "runlog.csv").read_bytes() == plain

    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_json_literal_exits_2(self, tmp_path, literal):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(train_config()).replace('"target": [1.0', f'"target": [{literal}')
        )
        out = tmp_path / "o"
        assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert not out.exists()

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert cli.main(["train", "--config", str(tmp_path / "absent.json"), "--out", str(out)]) == 2
        assert "config file not found" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = train_config()
        cfg["optimizer"]["learning_rate"] = 0.1  # typo-style key
        cfg_path = write_json(tmp_path / "cfg.json", cfg)
        assert cli.main(["train", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2

    def test_missing_schema_version_exits_2(self, tmp_path):
        cfg = train_config()
        del cfg["schema_version"]
        cfg_path = write_json(tmp_path / "cfg.json", cfg)
        assert cli.main(["train", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2

    def test_warmdown_shorter_than_run_exits_2(self, tmp_path, capsys):
        cfg = train_config(iters=8)
        cfg["optimizer"]["beta"] = {
            "type": "warmdown", "gamma": 0.1, "total_steps": 5, "warmdown_steps": 0,
        }
        cfg_path = write_json(tmp_path / "cfg.json", cfg)
        out = tmp_path / "o"
        assert cli.main(["train", "--config", cfg_path, "--out", str(out)]) == 2
        assert "warmdown" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_run_exits_4(self, tmp_path, capsys):
        cfg = train_config()
        cfg["optimizer"].update(variant="uscg", radii=[1e300])
        cfg_path = write_json(tmp_path / "cfg.json", cfg)
        out = tmp_path / "o"
        assert cli.main(["train", "--config", cfg_path, "--out", str(out)]) == 4
        assert "diverged" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("store_gradients", [False, True])
    def test_diverging_run_with_stored_gradients_exits_4(self, store_gradients, tmp_path, capsys):
        # The iterate overflows within 20 steps; the stored gradient samples
        # are no longer finite either, and the run is still a divergence, not
        # a config error.
        cfg = train_config(iters=20, seed=1)
        cfg["problem"]["blocks"][0].update(
            geometry={"kind": "euclidean", "shape": [4], "radius_eta": 1e300},
            curvature=1e10,
            target=[0.1, 0.0, 0.0, 0.0],
        )
        cfg["problem"]["noise"] = {"sigma_star": 0.1}
        cfg["optimizer"].update(
            beta={"type": "constant", "value": 0.5}, variant="uscg", store_gradients=store_gradients)
        cfg_path = write_json(tmp_path / "cfg.json", cfg)
        out = tmp_path / "o"
        assert cli.main(["train", "--config", cfg_path, "--out", str(out)]) == 4
        assert "numeric failure: the run diverged" in capsys.readouterr().err
        assert not out.exists()

    def test_diverging_spectral_run_exits_4(self, tmp_path, capsys):
        # The momentum overflows, so the LMO's SVD raises a LinAlgError (a
        # ValueError) before the run's own divergence check is reached.
        cfg = train_config(iters=5)
        cfg["problem"]["blocks"][0].update(
            geometry={"kind": "spectral", "shape": [4, 4], "radius_eta": 1e10},
            curvature=1e300,
            target=(0.1 * np.eye(4)).tolist(),
        )
        cfg["optimizer"].update(variant="uscg", check_invariants=False)
        cfg_path = write_json(tmp_path / "cfg.json", cfg)
        out = tmp_path / "o"
        assert cli.main(["train", "--config", cfg_path, "--out", str(out)]) == 4
        assert "numeric failure: SVD did not converge" in capsys.readouterr().err
        assert not out.exists()

    def test_unallocatable_run_exits_4(self, tmp_path, capsys):
        # 10**17 recorded rows need 800 PB, more than a 57-bit virtual address
        # space (128 PiB) maps, so the allocation fails under any allocator.
        cfg_path = write_json(tmp_path / "cfg.json", train_config(iters=10**17))
        out = tmp_path / "o"
        assert cli.main(["train", "--config", cfg_path, "--out", str(out)]) == 4
        assert "allocate" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "stages,message",
        [([], "at least one stage"),
         ([{"token_allotment": 4.0, "B": 4.0, "S": 2.0, "beta": 0.1, "alpha": 0.5}], "B*S")],
        ids=["no_stage", "allotment_below_BS"],
    )
    def test_failed_stage_plan_exits_2(self, stages, message, tmp_path, capsys):
        cfg_path = write_json(tmp_path / "cfg.json", train_config(iters=0, stages=stages))
        out = tmp_path / "o"
        assert cli.main(["train", "--config", cfg_path, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_invariant_violation_exits_3(self, tmp_path, monkeypatch):
        cfg_path = write_json(tmp_path / "cfg.json", train_config(iters=3))

        real_run = cli.run

        def tampered(*args, **kwargs):
            log = real_run(*args, **kwargs)
            log.invariant_violations = 2
            log.first_violation = "synthetic"
            return log

        monkeypatch.setattr(cli, "run", tampered)
        assert cli.main(["train", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 3

    def test_overshooting_steps_exit_3(self, tmp_path, overshooting_steps):
        # The run's own checker counts the violations, with nothing in the
        # log tampered with.
        cfg_path = write_json(tmp_path / "cfg.json", train_config(iters=3))
        out = tmp_path / "o"
        assert cli.main(["train", "--config", cfg_path, "--out", str(out)]) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["checked_steps"] == 3 and summary["invariant_violations"] > 0
        assert summary["first_violation"].startswith("step 0 block ")


class TestSweepCli:
    def test_single_point_sweep(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "problem": quadratic_problem_dict(),
            "token_budget": 512.0,
            "grid": [[4.0, 2.0], [16.0, 2.0]],
            "rule": {"kind": "critical", "c": 1.0, "alpha": 0.5},
            "repetitions": 2,
            "seed_base": 3,
        }
        cfg_path = write_json(tmp_path / "sweep.json", cfg)
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", cfg_path, "--out", str(out)]) == 0
        with open(out / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert float(rows[0]["final_loss_mean"]) >= 0.0
        assert rows[0]["error"] == ""
        assert int(rows[0]["K"]) == 64

    def test_null_constants_uses_the_analytic_ones(self, tmp_path):
        cfg = sweep_config()
        del cfg["constants"]
        rc, _ = run_config("sweep", cfg, tmp_path / "omitted")
        assert rc == 0
        cfg["constants"] = None
        rc, _ = run_config("sweep", cfg, tmp_path / "null")
        assert rc == 0
        omitted = (tmp_path / "omitted" / "sweep.csv").read_bytes()
        assert (tmp_path / "null" / "sweep.csv").read_bytes() == omitted

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_2(self, jobs, tmp_path, capsys):
        cfg_path = write_json(tmp_path / "sweep.json", sweep_config())
        out = tmp_path / "o"
        assert cli.main(["sweep", "--config", cfg_path, "--out", str(out), "--jobs", jobs]) == 2
        assert "jobs must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_point_exceeding_budget_rejected(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "problem": quadratic_problem_dict(),
            "token_budget": 8.0,
            "grid": [[4.0, 4.0]],
            "rule": {"kind": "fixed", "beta": 0.1, "alpha": 0.5},
        }
        cfg_path = write_json(tmp_path / "sweep.json", cfg)
        assert cli.main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2

    def test_eval_stride_is_an_unknown_key(self, tmp_path):
        cfg = sweep_config()
        cfg["eval_stride"] = 2
        rc, err = run_config("sweep", cfg, tmp_path / "o")
        assert rc == 2
        assert "unknown keys in sweep config: ['eval_stride']" in err
        assert not (tmp_path / "o").exists()

    def test_unknown_rule_mode_exits_2(self, tmp_path):
        cfg = sweep_config()
        cfg["rule"]["mode"] = "banana"
        rc, err = run_config("sweep", cfg, tmp_path / "o")
        assert rc == 2
        assert "unknown mode 'banana'" in err
        assert not (tmp_path / "o").exists()


class TestPlanCli:
    BASE = [
        "--b0", "256", "--s0", "1024", "--beta0", "3.6e-4",
        "--alpha0", "0.1", "--t0", "1.3e9",
    ]

    def read(self, path):
        return json.loads(path.read_text())

    def test_model_size_rule(self, tmp_path):
        out = tmp_path / "plan.json"
        rc = cli.main(
            ["plan", "--rule", "model_size", *self.BASE, "--t1", "10.48e9",
             "--consts0", "7.2,3.1,62.7", "--consts1", "10.6,2.9,111.9",
             "--out", str(out)]
        )
        assert rc == 0
        plan = self.read(out)
        factor = plan["BS1"] / (256.0 * 1024.0)
        assert abs(factor - 4.37) < 0.01
        assert plan["alpha1"] == 0.1

    def test_sqrt_rule_factor(self, tmp_path):
        out = tmp_path / "plan.json"
        rc = cli.main(["plan", "--rule", "sqrt", *self.BASE, "--t1", str(8 * 1.3e9), "--out", str(out)])
        assert rc == 0
        plan = self.read(out)
        assert plan["beta1"] / 3.6e-4 == pytest.approx(0.35355, abs=1e-4)

    def test_token_budget_constant_rho_closed_form(self, tmp_path):
        law = {"C": 5.0, "terms": [{"name": "batch_size", "shift": 0.0, "exponent": 0.0}]}
        law_path = write_json(tmp_path / "rho.json", law)
        out = tmp_path / "plan.json"
        rc = cli.main(
            ["plan", "--rule", "token_budget", *self.BASE, "--t1", str(8 * 1.3e9),
             "--rho-law", law_path, "--out", str(out)]
        )
        assert rc == 0
        plan = self.read(out)
        assert plan["B1"] == pytest.approx(256.0 * 4.0, rel=1e-5)

    @pytest.mark.parametrize(
        "law,key",
        [({"C": True}, "C"),
         ({"terms": [{"name": "batch_size", "shift": "0.0", "exponent": 0.0}]}, "shift"),
         ({"terms": [{"name": "batch_size", "shift": 0.0, "exponent": 0.0, "typo": 3}]}, "typo"),
         ({"extra": 1}, "extra"),
         ({"terms": 5}, "terms"),
         ({"terms": None}, "terms"),
         ({"C": 0.0}, "error: power law: C must be positive")],
    )
    def test_malformed_rho_law_exits_2(self, law, key, tmp_path, capsys):
        d = {"C": 5.0, "terms": [{"name": "batch_size", "shift": 0.0, "exponent": 0.0}], **law}
        if d["terms"] is None:
            del d["terms"]
        law_path = write_json(tmp_path / "rho.json", d)
        rc = cli.main(
            ["plan", "--rule", "token_budget", *self.BASE, "--t1", str(8 * 1.3e9),
             "--rho-law", law_path]
        )
        assert rc == 2
        assert key in capsys.readouterr().err

    def test_token_budget_bundled_law(self, tmp_path):
        out = tmp_path / "plan.json"
        rc = cli.main(
            ["plan", "--rule", "token_budget", *self.BASE, "--t1", "2.7e9",
             "--n-layer", "12", "--n-embd", "768", "--out", str(out)]
        )
        assert rc == 0
        assert abs(self.read(out)["B1"] - 416.0) / 416.0 < 0.05

    def test_stages_rule(self, tmp_path):
        out = tmp_path / "plan.json"
        rc = cli.main(
            ["plan", "--rule", "stages", *self.BASE,
             "--consts0", "1,1,1", "--consts1", "1,1,1",
             "--budgets", f"{1.3e9},{8 * 1.3e9}", "--out", str(out)]
        )
        assert rc == 0
        plan = self.read(out)
        s1, s2 = plan["stages"]
        assert s2["B"] * s2["S"] == pytest.approx(4.0 * s1["B"] * s1["S"])
        assert s2["beta"] == pytest.approx(0.5 * s1["beta"])

    def test_nonconvex_rule(self, tmp_path):
        out = tmp_path / "plan.json"
        rc = cli.main(
            ["plan", "--rule", "nonconvex", *self.BASE,
             "--consts0", "1,1,1", "--consts1", "1,1,1",
             "--d0", "1", "--d1", "4", "--out", str(out)]
        )
        assert rc == 0
        assert self.read(out)["BS1"] == pytest.approx(2.0 * 256.0 * 1024.0)

    def test_missing_constants_exits_2(self):
        assert cli.main(["plan", "--rule", "model_size", *self.BASE, "--t1", "1e9"]) == 2

    @pytest.mark.parametrize("flags, message", [
        (["--t1", "1e9", "--shape0", "12,768", "--consts1", "1,1,1"],
         "--shape0 needs --batch0"),
        (["--t1", "1e9", "--consts0", "1,2", "--consts1", "1,1,1"],
         "--consts0 must be 'L,mu,rho', got '1,2'"),
        (["--t1", "1e9", "--consts0", "a,b,c", "--consts1", "1,1,1"],
         "error: --consts0: could not convert string to float: 'a'"),
        (["--consts0", "1,1,1", "--consts1", "1,1,1"], "--t1 is required for rule model_size"),
    ], ids=["shape-without-batch", "two-constants", "non-numeric-constants", "no-t1"])
    def test_incomplete_model_size_flags_exit_2(self, flags, message, capsys):
        assert cli.main(["plan", "--rule", "model_size", *self.BASE, *flags]) == 2
        assert message in capsys.readouterr().err

    def test_regime_label_and_rounding(self, tmp_path):
        out = tmp_path / "plan.json"
        rc = cli.main(
            ["plan", "--rule", "model_size", *self.BASE, "--t1", "10.48e9",
             "--consts0", "7.2,3.1,62.7", "--consts1", "10.6,2.9,111.9",
             "--round", "pow2", "--sigma-star", "1.0", "--out", str(out)]
        )
        assert rc == 0
        plan = self.read(out)
        assert plan["BS1"] / (256.0 * 1024.0) == pytest.approx(4.0)
        assert plan["regime_at_choice"] == 2

    def test_mult32_rounds_bs1(self, tmp_path):
        out = tmp_path / "plan.json"
        rc = cli.main(
            ["plan", "--rule", "model_size", *self.BASE, "--t1", "1.5e9",
             "--consts0", "1,1,1", "--consts1", "1,1,1", "--round", "mult32", "--out", str(out)]
        )
        assert rc == 0
        bs1 = self.read(out)["BS1"]
        assert bs1 % 32 == 0
        assert bs1 == 288384.0

    def test_token_budget_non_positive_t1_exits_2(self, capsys):
        rc = cli.main(["plan", "--rule", "token_budget", *self.BASE, "--t1=-1e9"])
        assert rc == 2
        assert "T1 must be positive" in capsys.readouterr().err

    def test_regime_label_null_when_budget_too_small(self, tmp_path):
        out = tmp_path / "plan.json"
        rc = cli.main(
            ["plan", "--rule", "model_size", *self.BASE, "--t0", "124", "--t1", "1000",
             "--consts0", "7.2,3.1,62.7", "--consts1", "10.6,2.9,111.9",
             "--sigma-star", "1.0", "--out", str(out)]
        )
        assert rc == 0
        assert self.read(out)["regime_at_choice"] is None

    def test_contradictory_constant_flags_exit_2(self):
        rc = cli.main(
            ["plan", "--rule", "model_size", *self.BASE, "--t1", "1e9",
             "--consts0", "1,1,1", "--shape0", "12,768", "--batch0", "256",
             "--consts1", "1,1,1"]
        )
        assert rc == 2

    def test_sigma_star_with_overflowing_square_exits_2(self, capsys):
        rc = cli.main(
            ["plan", "--rule", "model_size", *self.BASE, "--t1", "1e10",
             "--consts0", "1,1,1", "--consts1", "1,1,1", "--sigma-star", "1e200"]
        )
        assert rc == 2
        assert "sigma_star must be >= 0 with a finite square" in capsys.readouterr().err

    def test_overflow_exits_4(self, capsys):
        rc = cli.main(
            ["plan", "--rule", "nonconvex", *self.BASE,
             "--consts0", "1,1,1e-100", "--consts1", "1,1,1e100", "--d0", "1", "--d1", "1"]
        )
        assert rc == 4
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("flag", ["--t1", "--sigma-star", "--n-layer"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_flag_exits_2(self, flag, value, capsys):
        rc = cli.main(
            ["plan", "--rule", "token_budget", *self.BASE, "--t1", "2e9", f"{flag}={value}"]
        )
        assert rc == 2
        assert "must be finite" in capsys.readouterr().err

    def test_non_finite_result_exits_4(self, capsys):
        # each input is finite, but B0 * S0 overflows to inf
        rc = cli.main(
            ["plan", "--rule", "sqrt", "--b0", "1e200", "--s0", "1e200", "--beta0", "0.1",
             "--t0", "1", "--t1", "4"]
        )
        assert rc == 4
        assert capsys.readouterr().out == ""

    def test_shape_routing_matches_bundled_laws(self, tmp_path):
        out = tmp_path / "plan.json"
        rc = cli.main(
            ["plan", "--rule", "model_size", *self.BASE, "--t1", str(1.3e9),
             "--shape0", "12,768", "--batch0", "256",
             "--shape1", "12,768", "--batch1", "256", "--out", str(out)]
        )
        assert rc == 0
        plan = self.read(out)
        # identical shapes: identity transfer
        assert plan["BS1"] == pytest.approx(256.0 * 1024.0, rel=1e-9)
        laws = bundled_constant_laws()
        cov = {"n_layer": 12.0, "n_embd": 768.0, "batch_size": 256.0}
        assert plan["inputs"]["consts0"]["mu"] == pytest.approx(laws["mu"].value(cov))


def _reject_constant(literal):
    raise ValueError(f"non-finite literal {literal} in output")


_PLAN_FLOAT_FLAGS = (
    "b0", "s0", "beta0", "alpha0", "t0", "t1", "d0", "d1", "sigma-star", "n-layer", "n-embd",
)
_float_text = st.one_of(
    st.sampled_from(["0", "-1", "1e308", "1e-308", "5e-324", "nan", "inf", "-inf"]),
    st.floats(1e-3, 1e12).map(repr),
    st.floats(0.0, 1.0).map(repr),
    st.floats().map(repr),
)
_consts_text = st.lists(_float_text, min_size=3, max_size=3).map(",".join)


@settings(max_examples=150, deadline=None)
@given(
    rule=st.sampled_from(["model_size", "token_budget", "stages", "sqrt", "nonconvex"]),
    flags=st.fixed_dictionaries({name: _float_text for name in _PLAN_FLOAT_FLAGS}),
    consts0=_consts_text,
    consts1=_consts_text,
    budgets=st.lists(_float_text, min_size=1, max_size=3).map(",".join),
)
def test_plan_fuzz_exits_cleanly(rule, flags, consts0, consts1, budgets):
    argv = ["plan", "--rule", rule, f"--consts0={consts0}", f"--consts1={consts1}",
            f"--budgets={budgets}"]
    argv += [f"--{name}={value}" for name, value in flags.items()]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code
    assert rc in (0, 2, 4)
    if rc == 0:
        json.loads(out.getvalue(), parse_constant=_reject_constant)


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return str(path)


class TestEstimateCli:
    def test_mu_from_exact_line(self, tmp_path, capsys):
        rows = [[x, 3.1 * x] for x in np.linspace(0.1, 4.0, 30)]
        path = write_csv(tmp_path / "mu.csv", ["loss", "dual_grad_norm"], rows)
        assert cli.main(["estimate", "--kind", "mu", "--in", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["estimator"] == "mu"
        assert out["value"] == pytest.approx(3.1, abs=1e-9)

    def test_mu_accepts_runlog_column_names(self, tmp_path, capsys):
        rows = [[x, 2.0 * x] for x in np.linspace(0.1, 4.0, 10)]
        path = write_csv(tmp_path / "log.csv", ["loss", "g_dual"], rows)
        assert cli.main(["estimate", "--kind", "mu", "--in", path]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(2.0)

    def test_empty_csv_exits_2(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert cli.main(["estimate", "--kind", "mu", "--in", str(path)]) == 2

    def test_header_only_csv_exits_2(self, tmp_path):
        path = write_csv(tmp_path / "h.csv", ["loss", "g_dual"], [])
        assert cli.main(["estimate", "--kind", "mu", "--in", path]) == 2

    def test_bad_float_reports_line_number(self, tmp_path, capsys):
        path = write_csv(
            tmp_path / "bad.csv", ["loss", "g_dual"], [[1.0, 2.0], ["oops", 3.0]]
        )
        assert cli.main(["estimate", "--kind", "mu", "--in", path]) == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        (None, "input file not found"),
        ("loss,g_dual\n1.0,2.0\n3.0\n", "short row (line 3)"),
        ("loss,other\n1.0,2.0\n3.0,4.0\n", "need columns loss and g_dual"),
    ], ids=["missing-file", "short-row", "no-g-dual"])
    def test_unreadable_input_exits_2(self, text, message, tmp_path, capsys):
        path = tmp_path / "in.csv"
        if text is not None:
            path.write_text(text)
        assert cli.main(["estimate", "--kind", "mu", "--in", str(path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_exits_2(self, tmp_path, cell, capsys):
        path = write_csv(
            tmp_path / "r.csv", ["diff_dual", "diff_euclid"], [[1.0, 2.0], [3.0, cell]]
        )
        assert cli.main(["estimate", "--kind", "rho", "--in", path]) == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("kind,header", [("L", ["grad_diff_dual", "step_disp"]),
                                             ("rho", ["diff_dual", "diff_euclid"])])
    @pytest.mark.parametrize("window", ["0", "-2"])
    def test_window_below_one_exits_2(self, kind, header, window, tmp_path, capsys):
        path = write_csv(tmp_path / "w.csv", header, [[2.0, 1.0], [4.0, 1.0], [6.0, 1.0]])
        assert cli.main(["estimate", "--kind", kind, "--in", path, "--window", window]) == 2
        assert "window must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind,header,rows",
        [("mu", ["loss", "g_dual"], [[1.0, 2.0], [1.0, 3.0]]),
         ("L", ["grad_diff_dual", "step_disp"], [[1.0, 0.0], [2.0, 0.0]]),
         ("rho", ["diff_dual", "diff_euclid"], [[1.0, 0.0], [2.0, 0.0]]),
         ("variance", ["scale", "variance"], [[8.0, 0.5], [16.0, 0.0], [32.0, 0.1]])],
        ids=["mu", "L", "rho", "variance"],
    )
    def test_degenerate_data_exits_2(self, kind, header, rows, tmp_path, capsys):
        path = write_csv(tmp_path / "d.csv", header, rows)
        assert cli.main(["estimate", "--kind", kind, "--in", path]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_smoothness_kind(self, tmp_path, capsys):
        rows = [[2.0 * d, d] for d in np.linspace(0.5, 1.5, 20)]
        path = write_csv(tmp_path / "l.csv", ["grad_diff_dual", "step_disp"], rows)
        assert cli.main(["estimate", "--kind", "L", "--in", path]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(2.0)

    def test_rho_kind(self, tmp_path, capsys):
        rows = [[3.0 * d, d] for d in np.linspace(0.5, 1.5, 20)]
        path = write_csv(tmp_path / "r.csv", ["diff_dual", "diff_euclid"], rows)
        assert cli.main(["estimate", "--kind", "rho", "--in", path]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(3.0)

    def test_variance_kind_fits_law(self, tmp_path, capsys):
        scales = [8.0, 16.0, 32.0, 64.0, 128.0]
        rows = [[b, 4.0 / b] for b in scales]
        path = write_csv(tmp_path / "v.csv", ["scale", "variance"], rows)
        assert cli.main(["estimate", "--kind", "variance", "--in", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["model"]["terms"][0]["exponent"] == pytest.approx(-1.0, abs=0.02)


class TestFitCli:
    def test_fit_recovers_mu_law(self, tmp_path, capsys):
        law = bundled_constant_laws()["mu"]
        rows = [[n, law.value({"n_layer": n})] for n in range(3, 31)]
        data = write_csv(tmp_path / "data.csv", ["n_layer", "value"], rows)
        shape = write_json(
            tmp_path / "shape.json", {"terms": [{"name": "n_layer"}]}
        )
        assert cli.main(["fit", "--shape", shape, "--in", data]) == 0
        out = json.loads(capsys.readouterr().out)
        term = out["model"]["terms"][0]
        assert out["model"]["C"] == pytest.approx(5.2, rel=0.05)
        assert term["shift"] == pytest.approx(1.7, rel=0.05)
        assert term["exponent"] == pytest.approx(-0.2, rel=0.05)

    def test_missing_column_exits_2(self, tmp_path):
        data = write_csv(tmp_path / "d.csv", ["x", "value"], [[1, 2], [2, 3]])
        shape = write_json(tmp_path / "s.json", {"terms": [{"name": "n_layer"}]})
        assert cli.main(["fit", "--shape", shape, "--in", data]) == 2

    @pytest.mark.parametrize(
        "layout,key",
        [({"schema_version": "banana"}, "schema_version"), ({"schema_version": 2}, "schema_version"),
         ({"terms": 5}, "terms"), ({"value_column": 3}, "value_column")],
    )
    def test_malformed_shape_exits_2(self, layout, key, tmp_path, capsys):
        data = write_csv(tmp_path / "d.csv", ["n_layer", "value"], [[n, 1.0 / n] for n in range(1, 9)])
        shape = write_json(tmp_path / "s.json", {"terms": [{"name": "n_layer"}], **layout})
        assert cli.main(["fit", "--shape", shape, "--in", data]) == 2
        assert key in capsys.readouterr().err


def test_scipy_loads_only_at_the_first_fit(tmp_path):
    # A fresh interpreter: importing the package and running a plan that
    # evaluates the bundled rho law must not import SciPy; a fit must.
    script = f"""
import json, sys
import scgscale, scgscale.cli
from scgscale import cli, estimation
rc = cli.main(["plan", "--rule", "token_budget", {", ".join(map(repr, TestPlanCli.BASE))},
               "--t1", "1.04e10", "--out", {str(tmp_path / "plan.json")!r}])
scipy_after_plan = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
law = estimation.fit_power_law({{"x": [1.0, 2.0, 4.0, 8.0]}}, [4.0, 2.0, 1.0, 0.5],
                               [estimation.FitTerm("x", shift=0.0)])
print(json.dumps([rc, scipy_after_plan, law.terms[0].exponent, "scipy.optimize" in sys.modules]))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    rc, scipy_after_plan, exponent, optimize_loaded = json.loads(proc.stdout)
    assert (rc, scipy_after_plan) == (0, [])
    assert exponent == pytest.approx(-1.0, abs=1e-6)
    assert optimize_loaded


def test_process_pool_loads_only_for_a_parallel_sweep():
    # A fresh interpreter: importing the package and running a serial sweep
    # must not import multiprocessing or the process pool; jobs=2 must.
    script = """
import json, sys
import scgscale, scgscale.cli
from scgscale.experiments import BetaRule, SweepConfig, regime_sweep_problem, run_sweep

def pool_modules():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] == "multiprocessing" or m == "concurrent.futures.process")

cfg = SweepConfig(problem=regime_sweep_problem(), token_budget=4096.0, grid=((4.0, 1.0), (16.0, 1.0)),
                  rule=BetaRule(kind="critical", c=1.0, alpha=0.3), repetitions=1, seed_base=5)
serial = run_sweep(cfg).rows
after_serial = pool_modules()
parallel = run_sweep(cfg, jobs=2).rows
print(json.dumps([after_serial, serial == parallel, "multiprocessing" in sys.modules,
                  "concurrent.futures.process" in sys.modules]))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], True, True, True]
