"""The four benchmark workloads: input generation, the timed work, and checks.

Each workload has three parts:

* ``generate(seed, workdir)`` builds every input (problem specs, JSON configs)
  from the workload seed.  It is part of set-up and runs before timing.
* ``ops(inputs, outdir)`` is the timed work: a list of calls made one after
  another, each well under a second, so that the host-speed reference can
  run between them (see ``hostspeed.py``).  They call scgscale only through
  public names that the planned clean-ups keep: ``experiments`` drivers,
  ``estimation`` estimators, ``problems.grad_sample`` and ``cli.main``.
* ``check(inputs, results, outdir, first)`` verifies the outputs (untimed)
  and returns an ``Outcome``: operations attempted and failed, the optimizer
  steps the work performed, and every final loss it produced.

An operation is one optimizer run, one sweep point or one CLI call.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from scgscale import cli, estimation, experiments, problems
from scgscale.geometry import LayeredPoint

# Documented output headers, written out here on purpose rather than imported,
# so that a change to either interface fails the check instead of following it.
RUNLOG_HEADER = ["k", "loss", "x_primal", "g_dual", "m_dual", "beta", "step_disp", "stage"]
SWEEP_HEADER = [
    "B", "S", "K", "beta", "final_loss_mean", "final_loss_std",
    "predicted_eps", "predicted_regime", "error",
]


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    steps: int = 0
    losses: list = field(default_factory=list)
    messages: list = field(default_factory=list)

    def op(self, label, failures, losses=()):
        """Record one operation; it fails if any of its checks failed."""
        self.attempted += 1
        if failures:
            self.failed += 1
            self.messages.extend(f"{label}: {f}" for f in failures)
        self.losses.extend(float(v) for v in losses)


def _positive_finite(v) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v) and v > 0


def _sub_seeds(seed: int, workload_id: int, n: int) -> list[int]:
    rng = np.random.default_rng([seed, workload_id])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


# Seeded targets are random rotations, permutations and sign flips of fixed
# profiles. The noise is isotropic and each LMO commutes with these maps, so
# the distribution of final losses does not depend on the seed, while every
# seed still gives different inputs.

def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _spectral_target(rng, n):
    return _orthogonal(rng, n) @ np.diag(np.linspace(0.3, 0.03, n)) @ _orthogonal(rng, n).T


def _signed_permutation(rng, profile):
    return rng.permutation(profile) * rng.choice([-1.0, 1.0], len(profile))


def _euclidean_target(rng, dim, norm):
    v = rng.standard_normal(dim)
    return v * (norm / np.linalg.norm(v))


class SignSweep:
    """``experiments.regime_sweep`` on the calibrated sign-16 quadratic.

    The full acceptance run (T = 2^20, 19 points, 5 seeds) takes about 140 s,
    so the token budget and the grid are cut down; the grid stays the
    power-of-two BS ladder and the run stays serial.  Each call sweeps one
    point with one repetition (repetition r uses ``seed_base + r``), so that
    no call takes much more than 0.1 s.
    """

    name = "sign_sweep"
    required = (
        "experiments.regime_sweep", "experiments.run_sweep", "optimizer.run",
        "problems.grad_fn", "scaling.error_law", "scaling.critical_bs",
    )

    def __init__(self, tiny=False):
        self.T = 2**10 if tiny else 2**13
        self.exponents = tuple(range(0, 8 if tiny else 12))
        self.repetitions = 1 if tiny else 8

    def generate(self, seed, workdir):
        rng = np.random.default_rng(_sub_seeds(seed, 1, 1))
        base = experiments.regime_sweep_problem()
        return {
            "problem": replace(base, targets=(_signed_permutation(rng, base.targets[0]),)),
            "seed_base": int(rng.integers(0, 2**31 - 1)),
        }

    def ops(self, inputs, outdir):
        return [
            partial(experiments.regime_sweep, T=self.T, exponents=(j,), repetitions=1,
                    seed_base=inputs["seed_base"] + r, jobs=1, problem=inputs["problem"])
            for r in range(self.repetitions) for j in self.exponents
        ]

    def check(self, inputs, results, outdir, first):
        out = Outcome()
        points = [(r, j) for r in range(self.repetitions) for j in self.exponents]
        for (r, j), (result, _, bs_star) in zip(points, results):
            K = int(self.T // 2**j)
            out.steps += K
            label = f"B={2**j} rep {r}"
            if len(result.rows) != 1:
                out.op(label, [f"{len(result.rows)} rows for one point"])
                continue
            row = result.rows[0]
            fails = []
            if row.error:
                fails.append(f"row error {row.error!r}")
            if not _positive_finite(row.final_loss_mean):
                fails.append(f"final loss {row.final_loss_mean!r} is not finite and positive")
            if row.K != K:
                fails.append(f"K={row.K}, expected {K}")
            if not _positive_finite(bs_star):
                fails.append(f"critical scale {bs_star!r}")
            out.op(label, fails, [row.final_loss_mean])
        return out


class SpectralTrain:
    """``scgscale train`` on a spectral + sign + euclidean layered quadratic.

    Two restart stages, a row per step (``eval_every=1``) and the
    iterate-bound checker on: exact-SVD LMOs and norm recording dominate.
    Each batch trains eight times, with eight optimizer seeds, in short runs
    of 48 steps (about 0.2 s each): the final loss of one run swings with the
    phase of its dithering, and eight runs steady the mean.
    """

    name = "spectral_train"
    required = (
        "cli.main", "optimizer.run_staged", "problems.grad_fn", "problems.loss_fn",
        "geometry.lmo_block", "geometry.block_primal_norm", "geometry.block_dual_norm",
        "numpy.linalg.svd", "optimizer.RunLog.to_csv",
    )
    def __init__(self, tiny=False):
        self.n = 8 if tiny else 64
        self.runs = 2 if tiny else 8
        # (B, iterations, beta, alpha) per stage; beta <= 1/2 and a constant
        # stepsize keep the iterate-bound checker armed.
        self.stages = (
            ((4.0, 10, 0.05, 0.3), (16.0, 10, 0.025, 0.3)) if tiny
            else ((4.0, 24, 0.02, 0.2), (16.0, 24, 0.01, 0.2))
        )
        self.steps_per_run = sum(s[1] for s in self.stages)

    def generate(self, seed, workdir):
        rng = np.random.default_rng(_sub_seeds(seed, 2, 1))
        n = self.n
        W = _spectral_target(rng, n)
        b = _signed_permutation(rng, np.linspace(0.1, 0.3, 32))
        v = _euclidean_target(rng, 16, 0.3)
        problem = {
            "kind": "layered_quadratic",
            "blocks": [
                {"name": "W", "geometry": {"kind": "spectral", "shape": [n, n], "radius_eta": 1.0},
                 "curvature": 1.0, "target": W.tolist()},
                {"name": "b", "geometry": {"kind": "sign", "shape": [32], "radius_eta": 1.0},
                 "curvature": 0.5, "target": b.tolist()},
                {"name": "v", "geometry": {"kind": "euclidean", "shape": [16], "radius_eta": 1.0},
                 "curvature": 0.5, "target": v.tolist()},
            ],
            "noise": {"sigma_star": 0.05},
        }
        stages = [
            {"token_allotment": B * iters, "B": B, "S": 1.0, "beta": beta, "alpha": alpha}
            for B, iters, beta, alpha in self.stages
        ]
        configs = []
        for i in range(self.runs):
            config = {
                "schema_version": 1,
                "problem": problem,
                "optimizer": {
                    "alpha": self.stages[0][3],
                    "beta": {"type": "constant", "value": self.stages[0][2]},
                    "iters": self.steps_per_run,
                    "seed": int(rng.integers(0, 2**31 - 1)),
                    "eval_every": 1,
                    "check_invariants": True,
                },
                "stages": stages,
            }
            configs.append(os.path.join(workdir, f"train-{i}.json"))
            _write_json(configs[-1], config)
        return {"configs": configs}

    def ops(self, inputs, outdir):
        return [partial(cli.main, ["train", "--config", path, "--out", os.path.join(outdir, f"run-{i}")])
                for i, path in enumerate(inputs["configs"])]

    def check(self, inputs, results, outdir, first):
        out = Outcome(steps=self.steps_per_run * len(results))
        for i, rc in enumerate(results):
            label = f"train {i}"
            if rc != 0:
                out.op(label, [f"exit code {rc}"])
                continue
            run_dir = os.path.join(outdir, f"run-{i}")
            fails = []
            rows = _read_csv(os.path.join(run_dir, "runlog.csv"))
            if rows[0] != RUNLOG_HEADER:
                fails.append(f"runlog.csv header {rows[0]}")
            if len(rows) - 1 != self.steps_per_run:
                fails.append(f"runlog.csv has {len(rows) - 1} rows for {self.steps_per_run} steps")
            with open(os.path.join(run_dir, "summary.json")) as fh:
                summary = json.load(fh)
            if summary["invariant_violations"] != 0:
                fails.append(f"{summary['invariant_violations']} invariant violations")
            if summary["checked_steps"] < 1:
                fails.append("the iterate-bound checker was never armed")
            final = summary["final_loss"]
            if not _positive_finite(final):
                fails.append(f"final loss {final!r}")
            out.op(label, fails, [final])
        return out


class _VarianceOracle:
    """Minibatch gradient oracle for ``estimate_variance``: (x, B, rng) -> flat array."""

    def __init__(self, spec):
        self.spec = spec

    def __call__(self, x, B, rng):
        noise = replace(self.spec.noise, B=B)
        return problems.grad_sample(self.spec, x, rng, noise=noise).flatten()


class RatesFit:
    """The constant-estimation pipeline on the logistic euclidean-24 problem.

    Pilot run and (L, mu, rho) estimates, a variance ladder, the middle-regime
    rate study with those constants (40 repetitions per budget, in ten
    calls), then ``scgscale fit`` and ``scgscale estimate --kind variance``
    on CSVs written from the results.
    """

    name = "rates_fit"
    required = (
        "experiments.estimate_logistic_constants", "experiments.middle_regime_rates",
        "estimation.estimate_L", "estimation.estimate_mu", "estimation.estimate_rho",
        "estimation.estimate_variance", "estimation.fit_power_law",
        "estimation.least_squares", "optimizer.run", "problems.grad_fn",
        "problems.grad_sample", "scaling.critical_bs", "cli.main",
    )

    def __init__(self, tiny=False):
        self.pilot_iters = 200 if tiny else 600
        self.t_exponents = tuple(range(10, 13)) if tiny else tuple(range(14, 21))
        # The rate study runs in groups of 4 repetitions (about 0.15 s per
        # call); group g uses seed_base + g.
        self.groups = 1 if tiny else 10
        self.repetitions = 1 if tiny else 4
        self.scales = (1.0, 2.0, 4.0, 8.0, 16.0)
        self.pool_size = 64 if tiny else 256

    def generate(self, seed, workdir):
        # The calibrated data set and pilot run stay fixed: the estimated
        # constants set the critical scales and so the step count, which must
        # not change with the seed. The seed picks the variance draws and the
        # random streams of the rate-study runs.
        var_seed, seed_base = _sub_seeds(seed, 3, 2)
        spec = experiments.rate_study_problem()
        shape = os.path.join(workdir, "shape.json")
        _write_json(shape, {"schema_version": 1, "terms": [{"name": "T", "shift": 0.0}],
                            "value_column": "loss"})
        return {
            "spec": spec,
            "x0": LayeredPoint.zeros(spec.block_names, spec.geometry),
            "oracle": _VarianceOracle(spec),
            "shape": shape,
            "var_seed": var_seed,
            "seed_base": seed_base,
        }

    def ops(self, inputs, outdir):
        spec = inputs["spec"]
        state = {}

        def constants():
            state["consts"] = experiments.estimate_logistic_constants(
                spec, pilot_iters=self.pilot_iters)
            return state["consts"]

        def variance():
            state["curve"] = estimation.estimate_variance(
                inputs["oracle"], inputs["x0"], self.scales, self.pool_size, seed=inputs["var_seed"])
            return state["curve"]

        def rates(group):
            rates = experiments.middle_regime_rates(
                t_exponents=self.t_exponents,
                repetitions=self.repetitions,
                seed_base=inputs["seed_base"] + group,
                problem=spec,
                constants=state["consts"],
            )
            state.setdefault("rates", []).append(rates)
            return rates

        def fit():
            # Mean final loss per budget over every repetition of every group.
            groups = state["rates"]
            means = np.mean([g["mean_losses"] for g in groups], axis=0)
            rates_csv = os.path.join(outdir, "rates.csv")
            with open(rates_csv, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["T", "loss"])
                w.writerows((repr(t), repr(float(v))) for t, v in zip(groups[0]["budgets"], means))
            return cli.main(["fit", "--shape", inputs["shape"], "--in", rates_csv,
                             "--out", os.path.join(outdir, "fit.json")])

        def estimate():
            var_csv = os.path.join(outdir, "variance.csv")
            with open(var_csv, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["scale", "variance"])
                w.writerows((repr(b), repr(v)) for b, v in state["curve"].points)
            return cli.main(["estimate", "--kind", "variance", "--in", var_csv,
                             "--out", os.path.join(outdir, "variance.json")])

        return [constants, variance] + [partial(rates, g) for g in range(self.groups)] + [fit, estimate]

    def check(self, inputs, results, outdir, first):
        consts, curve, *groups, rc_fit, rc_var = results
        out = Outcome(steps=self.pilot_iters)
        out.op("constants", [
            f"{name}={getattr(consts, name)!r}"
            for name in ("L", "mu", "rho", "delta0")
            if not _positive_finite(getattr(consts, name))
        ])
        out.op("variance", [f"point {p!r}" for p in curve.points if not _positive_finite(p[1])]
               + _model_failures(curve.fitted.to_dict()))
        for g, rates in enumerate(groups):
            for T, bs, losses in zip(rates["budgets"], rates["critical_scales"], rates["losses"]):
                out.steps += int(T // bs) * len(losses)
                for rep, loss in enumerate(losses):
                    out.op(f"group {g} T={T:g} rep {rep}",
                           [] if _positive_finite(loss) else [f"final loss {loss!r}"], [loss])
        for label, rc, path in (("fit", rc_fit, "fit.json"), ("estimate", rc_var, "variance.json")):
            if rc != 0:
                out.op(label, [f"exit code {rc}"])
                continue
            with open(os.path.join(outdir, path)) as fh:
                out.op(label, _model_failures(json.load(fh)["model"]))
        return out


def _model_failures(model: dict) -> list[str]:
    values = [model["C"]] + [t[k] for t in model["terms"] for k in ("shift", "exponent")]
    if all(isinstance(v, float) and math.isfinite(v) for v in values) and model["C"] > 0:
        return []
    return [f"fitted model {model!r} is not finite"]


class ParallelSweep:
    """``scgscale sweep --jobs 2`` on a small spectral + sign quadratic.

    A (B, S) grid with S > 1 at some points and two repetitions per point,
    run through the CLI and ``run_sweep``'s process pool.  Each batch runs
    two such sweeps (about 0.8 s each) with two seed bases.
    """

    name = "parallel_sweep"
    jobs = 2
    required = (
        "cli.main", "experiments.run_sweep", "experiments.sweep_rows_to_csv",
        "optimizer.run", "problems.grad_fn", "geometry.lmo_block", "numpy.linalg.svd",
    )

    def __init__(self, tiny=False):
        self.n = 8 if tiny else 16
        self.token_budget = 2.0**8 if tiny else 2.0**10
        self.sweeps = 1 if tiny else 2
        self.grid = ((1.0, 1.0), (2.0, 1.0), (1.0, 2.0), (4.0, 1.0), (2.0, 2.0),
                     (8.0, 1.0), (4.0, 2.0), (2.0, 4.0))
        self.repetitions = 2
        self.steps = sum(int(self.token_budget // (B * S)) for B, S in self.grid) * self.repetitions

    def generate(self, seed, workdir):
        rng = np.random.default_rng(_sub_seeds(seed, 4, 1))
        n = self.n
        W = _spectral_target(rng, n)
        b = _signed_permutation(rng, np.linspace(0.1, 0.3, 32))
        configs = []
        for i in range(self.sweeps):
            config = {
                "schema_version": 1,
                "problem": {
                    "kind": "layered_quadratic",
                    "blocks": [
                        {"name": "W", "geometry": {"kind": "spectral", "shape": [n, n], "radius_eta": 1.0},
                         "curvature": 1.0, "target": W.tolist()},
                        {"name": "b", "geometry": {"kind": "sign", "shape": [32], "radius_eta": 1.0},
                         "curvature": 0.5, "target": b.tolist()},
                    ],
                    "noise": {"sigma_star": 0.1},
                },
                "token_budget": self.token_budget,
                "grid": [list(p) for p in self.grid],
                "rule": {"kind": "critical", "c": 1.0, "alpha": 0.1},
                "repetitions": self.repetitions,
                "seed_base": int(rng.integers(0, 2**31 - 1)),
            }
            path = os.path.join(workdir, f"sweep-{i}.json")
            _write_json(path, config)
            configs.append((path, config))
        return {"configs": configs}

    def ops(self, inputs, outdir):
        return [partial(cli.main, ["sweep", "--config", path, "--out", os.path.join(outdir, f"sweep-{i}"),
                                   "--jobs", str(self.jobs)])
                for i, (path, _) in enumerate(inputs["configs"])]

    def check(self, inputs, results, outdir, first):
        out = Outcome(steps=self.steps * len(results))
        for i, rc in enumerate(results):
            self._check_sweep(out, f"sweep {i}", rc, os.path.join(outdir, f"sweep-{i}"),
                              inputs["configs"][i][1], first and i == 0)
        return out

    def _check_sweep(self, out, label, rc, sweep_dir, config, rerun):
        if rc != 0:
            out.op(label, [f"exit code {rc}"])
            return
        rows = _read_csv(os.path.join(sweep_dir, "sweep.csv"))
        if rows[0] != SWEEP_HEADER:
            out.op(label, [f"sweep.csv header {rows[0]}"])
        body = rows[1:]
        if len(body) != len(self.grid):
            out.op(label, [f"{len(body)} rows for {len(self.grid)} points"])
        for (B, S), row in zip(self.grid, body):
            rec = dict(zip(SWEEP_HEADER, row))
            loss = float(rec["final_loss_mean"])
            fails = []
            if rec["error"]:
                fails.append(f"row error {rec['error']!r}")
            if not _positive_finite(loss):
                fails.append(f"final loss {loss!r}")
            if int(rec["K"]) != int(self.token_budget // (B * S)):
                fails.append(f"K={rec['K']}")
            out.op(f"{label} B={B:g} S={S:g}", fails, [loss])
        if rerun and len(body) == len(self.grid):
            # Point seeds do not depend on grid order or on the worker, so
            # the cheapest point rerun serially must match its row exactly.
            idx = min(range(len(self.grid)), key=lambda i: self.token_budget // (self.grid[i][0] * self.grid[i][1]))
            serial = self._serial_row(config, self.grid[idx])
            out.op(f"{label} serial rerun", [] if serial == body[idx] else
                   [f"{serial} differs from the jobs={self.jobs} row {body[idx]}"])

    @staticmethod
    def _serial_row(d, point):
        rule = d["rule"]
        cfg = experiments.SweepConfig(
            problem=problems.spec_from_dict(d["problem"]),
            token_budget=float(d["token_budget"]),
            grid=(point,),
            rule=experiments.BetaRule(kind=rule["kind"], c=rule["c"], alpha=rule["alpha"]),
            repetitions=d["repetitions"],
            seed_base=d["seed_base"],
        )
        buf = io.StringIO()
        experiments.sweep_rows_to_csv(experiments.run_sweep(cfg, jobs=1), buf)
        return list(csv.reader(io.StringIO(buf.getvalue())))[1]


WORKLOADS = {w.name: w for w in (SignSweep, SpectralTrain, RatesFit, ParallelSweep)}
