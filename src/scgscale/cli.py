"""Command-line harness: train, sweep, plan, estimate, fit.

Configs are JSON with a schema_version field; unknown keys are rejected so a
mistyped hyperparameter fails loudly instead of silently using a default.
Exit codes: 0 success, 2 config or input error, 3 invariant violation,
4 numeric failure, including a run that diverges, a non-finite result and a
run too large to allocate.
Below main, a ValueError (or KeyError, TypeError) means exit 2, and an
ArithmeticError (such as FloatingPointError), MemoryError or LinAlgError exit 4.
NaN and infinity in JSON files, CSV cells and plan flags are rejected (exit 2).
A non-finite result exits 4 instead of being written, but a failing sweep point
does not stop its sweep: its row in sweep.csv has nan in its float cells, 0 in
K and predicted_regime, and the reason in error. JSON floats take their
shortest exact form, CSV floats 17 significant digits.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace
from functools import cache, partial
from typing import Optional

import numpy as np

from . import estimation, experiments, problems, scaling
from .estimation import FitTerm, PowerLawModel, bundled_constant_laws
from .optimizer import (
    ConstantBeta,
    ScgConfig,
    WarmdownBeta,
    run,
    run_staged,
)
from .problems import ProblemSpec
from .scaling import ProblemConstants, Stage, StagePlan, TunedConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_NUMERIC = 4


def _dump_json(obj, path=None):
    try:
        text = json.dumps(obj, indent=2, allow_nan=False)
    except ValueError as exc:
        raise FloatingPointError(f"non-finite result: {exc}")
    if path is None:
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _load_json(path) -> dict:
    def finite(text):
        value = float(text)
        if not math.isfinite(value):
            raise ValueError(f"non-finite number {text} in {path}")
        return value

    try:
        with open(path) as fh:
            d = json.load(fh, parse_float=finite, parse_constant=finite)
    except FileNotFoundError:
        raise ValueError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in {path}: {exc}")
    if not isinstance(d, dict):
        raise ValueError(f"{path} must hold a JSON object, got {type(d).__name__}")
    return d


def _schema_version(value) -> int:
    """Parser of a config's schema_version: the only version is 1."""
    if value != 1 or isinstance(value, bool):
        raise ValueError(f"schema_version must be 1, got {value!r}")
    return 1


@dataclass
class _HorizonBeta:
    """The horizon schedule, built as ConstantBeta.horizon(c, iters)."""

    c: float
    iters: int


# beta schedule type -> the dataclass that its other keys build
_BETA_SCHEDULES = {"constant": ConstantBeta, "warmdown": WarmdownBeta, "horizon": _HorizonBeta}


def _beta_schedule_from_dict(d):
    kind = d.get("type") if isinstance(d, dict) else None
    if not (isinstance(kind, str) and kind in _BETA_SCHEDULES):
        raise ValueError(
            f"beta schedule must be a JSON object whose type is one of "
            f"{sorted(_BETA_SCHEDULES)}, got {d!r}"
        )
    schedule = problems.from_dict(
        _BETA_SCHEDULES[kind], {k: v for k, v in d.items() if k != "type"}, f"{kind} beta schedule"
    )
    if isinstance(schedule, _HorizonBeta):
        return ConstantBeta.horizon(schedule.c, schedule.iters)
    return schedule


_optimizer_config = partial(
    problems.from_dict, ScgConfig, where="optimizer config", beta=_beta_schedule_from_dict
)


@dataclass
class _TrainConfig:
    schema_version: int
    problem: ProblemSpec
    optimizer: ScgConfig
    stages: Optional[tuple[Stage, ...]] = None


def cmd_train(args) -> int:
    cfg_dict = _load_json(args.config)
    cfg = problems.from_dict(
        _TrainConfig, cfg_dict, "train config", schema_version=_schema_version,
        problem=problems.spec_from_dict, optimizer=_optimizer_config,
    )
    if cfg.stages is None:
        log = run(cfg.problem, cfg.optimizer)
    else:
        log = run_staged(cfg.problem, StagePlan(cfg.stages), cfg.optimizer)
    os.makedirs(args.out, exist_ok=True)
    log.to_csv(os.path.join(args.out, "runlog.csv"))
    summary = {
        "schema_version": 1,
        "final_loss": log.final_loss,
        "invariant_violations": log.invariant_violations,
        "checked_steps": log.checked_steps,
        "first_violation": log.first_violation,
        "config": cfg_dict,
    }
    _dump_json(summary, os.path.join(args.out, "summary.json"))
    if log.invariant_violations > 0:
        print(
            f"invariant violations detected: {log.invariant_violations} "
            f"(first: {log.first_violation})",
            file=sys.stderr,
        )
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg_dict = _load_json(args.config)
    _schema_version(cfg_dict.get("schema_version"))
    cfg = problems.from_dict(
        experiments.SweepConfig,
        {k: v for k, v in cfg_dict.items() if k != "schema_version"},
        "sweep config",
        problem=problems.spec_from_dict,
    )
    result = experiments.run_sweep(cfg, jobs=args.jobs)
    os.makedirs(args.out, exist_ok=True)
    experiments.sweep_rows_to_csv(result, os.path.join(args.out, "sweep.csv"))
    return EXIT_OK


def _bundled_consts(n_layer: float, n_embd: float, batch: float) -> ProblemConstants:
    laws = bundled_constant_laws()
    cov = {"n_layer": n_layer, "n_embd": n_embd, "batch_size": batch}
    return ProblemConstants(
        L=laws["L"].value(cov), mu=laws["mu"].value(cov), rho=laws["rho"].value(cov)
    )


def _plan_constants(args, which: str) -> ProblemConstants:
    """Constants from --consts<which> L,mu,rho or --shape<which> n_layer,n_embd."""
    consts_arg = getattr(args, f"consts{which}")
    shape_arg = getattr(args, f"shape{which}")
    batch = getattr(args, f"batch{which}")
    if consts_arg and shape_arg:
        raise ValueError(f"give either --consts{which} or --shape{which}, not both")
    if not (consts_arg or shape_arg):
        raise ValueError(f"rule {args.rule} needs --consts{which} or --shape{which}")
    if shape_arg and batch is None:
        raise ValueError(f"--shape{which} needs --batch{which} for the batch covariate")
    flag, fields = ("consts", "L,mu,rho") if consts_arg else ("shape", "n_layer,n_embd")
    text = consts_arg or shape_arg
    parts = text.split(",")
    if len(parts) != len(fields.split(",")):
        raise ValueError(f"--{flag}{which} must be '{fields}', got {text!r}")
    try:
        values = [float(p) for p in parts]
        if consts_arg:
            return ProblemConstants(*values)
        return _bundled_consts(*values, batch)
    except ValueError as exc:
        raise ValueError(f"--{flag}{which}: {exc}")


# Each rule function takes (args, base, consts0, consts1) and returns its
# result fields, the inputs it echoes, and the constants for the regime label
# (None when the rule has no constants at the chosen scale).


def _plan_model_size(args, base, consts0, consts1):
    bs1, beta1 = scaling.transfer_model_size(base, consts0, consts1, T1=args.t1)
    bs1 = bs1 if args.round == "none" else scaling.round_scale(bs1, args.round)
    result = {"BS1": bs1, "beta1": beta1, "alpha1": base.alpha0}
    return result, {"T1": args.t1, "round": args.round}, consts1


def _plan_token_budget(args, base, consts0, consts1):
    bundled = args.rho_law == "bundled"
    if bundled:
        rho_model = bundled_constant_laws()["rho"]
        fixed = {"n_layer": args.n_layer, "n_embd": args.n_embd}
    else:
        rho_model = PowerLawModel.from_dict(_load_json(args.rho_law))
        fixed = {}
    b1, beta1 = scaling.transfer_token_budget(base, rho_model, args.t1, fixed_covariates=fixed)
    result = {"BS1": b1 * base.S0, "B1": b1, "beta1": beta1, "alpha1": base.alpha0}
    regime_consts = _bundled_consts(args.n_layer, args.n_embd, b1) if bundled else None
    return result, {"T1": args.t1, "rho_law": args.rho_law}, regime_consts


def _plan_stages(args, base, consts0, consts1):
    try:
        budgets = [float(t) for t in args.budgets.split(",")]
    except ValueError as exc:
        raise ValueError(f"--budgets: {exc}")
    stages = scaling.plan_stages(base, consts0, consts1, budgets).stages
    last = stages[-1]
    result = {
        "BS1": last.B * last.S, "B1": last.B, "S1": last.S, "beta1": last.beta,
        "alpha1": last.alpha, "stages": [asdict(st) for st in stages],
    }
    return result, {"budgets": budgets}, consts1


def _plan_sqrt(args, base, consts0, consts1):
    bs1, beta1 = scaling.sqrt_rule(base, args.t1)
    return {"BS1": bs1, "beta1": beta1, "alpha1": base.alpha0}, {"T1": args.t1}, None


def _plan_nonconvex(args, base, consts0, consts1):
    bs1 = scaling.nonconvex_rule(base, consts0, consts1, args.d0, args.d1)
    return {"BS1": bs1, "alpha1": base.alpha0}, {"D0": args.d0, "D1": args.d1}, consts1


# rule -> (takes --consts0/--consts1, flags it requires, rule function)
_PLAN_RULES = {
    "model_size": (True, ("t1",), _plan_model_size),
    "token_budget": (False, ("t1",), _plan_token_budget),
    "stages": (True, ("budgets",), _plan_stages),
    "sqrt": (False, ("t1",), _plan_sqrt),
    "nonconvex": (True, ("d0", "d1"), _plan_nonconvex),
}


def _require_flags(args, names):
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"--{name} is required for rule {args.rule}")


def cmd_plan(args) -> int:
    takes_consts, rule_flags, rule_fn = _PLAN_RULES[args.rule]
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"--{name.replace('_', '-')} must be finite, got {value}")
    _require_flags(args, ("b0", "s0", "beta0", "t0"))
    base = TunedConfig(
        B0=args.b0, S0=args.s0, beta0=args.beta0,
        alpha0=args.alpha0 if args.alpha0 is not None else 1.0,
        T0=args.t0,
    )
    inputs = {"B0": base.B0, "S0": base.S0, "beta0": base.beta0, "alpha0": base.alpha0, "T0": base.T0}
    consts = [None, None]
    if takes_consts:
        consts = [_plan_constants(args, "0"), _plan_constants(args, "1")]
        for which, c in zip("01", consts):
            inputs[f"consts{which}"] = {"L": c.L, "mu": c.mu, "rho": c.rho}
    else:
        del inputs["alpha0"]  # the rules without constants never echoed alpha0
    _require_flags(args, rule_flags)

    result, rule_inputs, regime_consts = rule_fn(args, base, *consts)
    inputs.update(rule_inputs, sigma_star=args.sigma_star)
    bs1 = result["BS1"]
    s1 = result.get("S1", args.s0)
    b1 = result["B1"] if "B1" in result else bs1 / s1

    regime = None
    if args.sigma_star is not None and regime_consts is not None:
        t_at = args.t1 if args.t1 is not None else args.t0
        consts_at = replace(regime_consts, sigma_star=args.sigma_star)
        try:
            regime = scaling.error_law(t_at, b1, s1, consts_at).regime
        except ValueError:
            regime = None  # budget below one step at the chosen scale
    out = {
        "rule": args.rule, "inputs": inputs, "BS1": bs1, "B1": b1, "S1": s1,
        "beta1": None, "alpha1": None, "regime_at_choice": regime,
    }
    out.update(result)  # a rule's extra fields (stages) follow the common ones
    _dump_json(out, args.out)
    return EXIT_OK


def _read_csv_columns(path, required: set[str]):
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise ValueError(f"{path}: empty input")
            missing = required - set(reader.fieldnames)
            if missing:
                raise ValueError(
                    f"{path}: missing columns {sorted(missing)} (line 1)"
                )
            cols = {name: [] for name in reader.fieldnames}
            for lineno, row in enumerate(reader, start=2):
                for name, val in row.items():
                    if val is None:
                        raise ValueError(f"{path}: short row (line {lineno})")
                    try:
                        value = float(val)
                    except ValueError:
                        raise ValueError(
                            f"{path}: bad float {val!r} in column {name} (line {lineno})"
                        )
                    if not math.isfinite(value):
                        raise ValueError(
                            f"{path}: non-finite {val!r} in column {name} (line {lineno})"
                        )
                    cols[name].append(value)
    except FileNotFoundError:
        raise ValueError(f"input file not found: {path}")
    if not cols or not next(iter(cols.values())):
        raise ValueError(f"{path}: no data rows")
    return {k: np.asarray(v) for k, v in cols.items()}


# Each estimator takes (columns, args) and returns the result fields that
# follow "estimator" in the output.


def _estimate_mu(cols, args):
    dual_col = next((c for c in ("g_dual", "dual_grad_norm") if c in cols), None)
    if "loss" not in cols or dual_col is None:
        raise ValueError(f"{args.infile}: need columns loss and g_dual (or dual_grad_norm)")
    fit = estimation.estimate_mu(
        cols["loss"], cols[dual_col], loss_cap=args.loss_cap, delta=args.delta
    )
    return {"window": None, "value": fit.slope, "intercept": fit.intercept, "n_points": fit.n_points}


def _estimate_L(cols, args):
    value = estimation.smoothness_from_steps(
        cols["grad_diff_dual"], cols["step_disp"], window=args.window
    )
    return {"window": args.window, "value": value, "n_points": len(cols["grad_diff_dual"])}


def _estimate_rho(cols, args):
    value, n_usable = estimation.rho_from_norms(
        cols["diff_dual"], cols["diff_euclid"], window=args.window
    )
    return {"window": args.window, "value": value, "n_points": n_usable}


def _estimate_variance(cols, args):
    order = np.argsort(cols["scale"])
    curve = estimation.VarianceCurve.fit(cols["scale"][order], cols["variance"][order])
    return {"window": None, "model": curve.fitted.to_dict(), "n_points": len(curve.points)}


# kind -> (required CSV columns, estimator)
_ESTIMATORS = {
    "L": ({"grad_diff_dual", "step_disp"}, _estimate_L),
    "mu": (set(), _estimate_mu),
    "rho": ({"diff_dual", "diff_euclid"}, _estimate_rho),
    "variance": ({"scale", "variance"}, _estimate_variance),
}


def cmd_estimate(args) -> int:
    required, estimator = _ESTIMATORS[args.kind]
    cols = _read_csv_columns(args.infile, required)
    _dump_json({"estimator": args.kind, **estimator(cols, args)}, args.out)
    return EXIT_OK


@dataclass
class _FitShape:
    terms: tuple[FitTerm, ...]
    value_column: str = "value"
    schema_version: int = 1


def cmd_fit(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {args.seed}")
    shape = problems.from_dict(
        _FitShape, _load_json(args.shape), "fit shape", schema_version=_schema_version
    )
    terms, value_column = shape.terms, shape.value_column
    cols = _read_csv_columns(args.infile, {value_column} | {t.name for t in terms})
    model = estimation.fit_power_law(
        {t.name: cols[t.name] for t in terms}, cols[value_column], terms, seed=args.seed
    )
    _dump_json(
        {
            "estimator": "power_law",
            "model": model.to_dict(),
            "n_points": len(cols[value_column]),
        },
        args.out,
    )
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of main, built once per process, not once per call."""
    p = argparse.ArgumentParser(
        prog="scgscale",
        description="norm-constrained conditional-gradient training harness "
        "and batch/token scaling planner",
    )
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="run the optimizer from a JSON config")
    t.add_argument("--config", required=True)
    t.add_argument("--out", required=True, help="output directory")
    t.set_defaults(func=cmd_train)

    s = sub.add_parser("sweep", help="run a (B, S) grid under a token budget")
    s.add_argument("--config", required=True)
    s.add_argument("--out", required=True, help="output directory")
    s.add_argument("--jobs", type=int, default=1)
    s.set_defaults(func=cmd_sweep)

    pl = sub.add_parser("plan", help="hyperparameter transfer and stage planning")
    pl.add_argument(
        "--rule",
        required=True,
        choices=list(_PLAN_RULES),
    )
    pl.add_argument("--b0", type=float)
    pl.add_argument("--s0", type=float)
    pl.add_argument("--beta0", type=float)
    pl.add_argument("--alpha0", type=float)
    pl.add_argument("--t0", type=float)
    pl.add_argument("--t1", type=float)
    pl.add_argument("--consts0", help="L,mu,rho for the base model")
    pl.add_argument("--consts1", help="L,mu,rho for the target model")
    pl.add_argument("--shape0", help="n_layer,n_embd routed through the bundled laws")
    pl.add_argument("--shape1", help="n_layer,n_embd routed through the bundled laws")
    pl.add_argument("--batch0", type=float, help="batch covariate for --shape0")
    pl.add_argument("--batch1", type=float, help="batch covariate for --shape1")
    pl.add_argument("--budgets", help="comma-separated cumulative token totals")
    pl.add_argument("--d0", type=float, help="base model size (nonconvex rule)")
    pl.add_argument("--d1", type=float, help="target model size (nonconvex rule)")
    pl.add_argument("--rho-law", default="bundled", help="'bundled' or a model JSON path")
    pl.add_argument("--n-layer", type=float, default=6.0, help="fixed covariate for the bundled rho law")
    pl.add_argument("--n-embd", type=float, default=768.0, help="fixed covariate for the bundled rho law")
    pl.add_argument("--sigma-star", type=float, help="noise scale for the regime label")
    pl.add_argument("--round", default="none", choices=["none", "pow2", "mult32"])
    pl.add_argument("--out", help="write the JSON here instead of stdout")
    pl.set_defaults(func=cmd_plan)

    e = sub.add_parser("estimate", help="estimate a constant from a CSV")
    e.add_argument("--kind", required=True, choices=list(_ESTIMATORS))
    e.add_argument("--in", dest="infile", required=True)
    e.add_argument("--window", type=int, default=100)
    e.add_argument("--loss-cap", type=float, default=5.0)
    e.add_argument("--delta", type=float, default=1.345)
    e.add_argument("--out")
    e.set_defaults(func=cmd_estimate)

    f = sub.add_parser("fit", help="fit a shifted power law to CSV data")
    f.add_argument("--shape", required=True, help="JSON term layout")
    f.add_argument("--in", dest="infile", required=True)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--out")
    f.set_defaults(func=cmd_fit)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Non-finite values reach the exit codes through the run's divergence
        # check and _dump_json, not as NumPy warnings on stderr.
        with np.errstate(all="ignore"):
            return args.func(args)
    except (ArithmeticError, MemoryError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
