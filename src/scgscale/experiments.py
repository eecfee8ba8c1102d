"""Sweep orchestration and desk-scale experiment drivers.

The sweep engine runs a grid of (batch, sequence) points under a fixed token
budget, repeats each point over seeds, and pairs the measured final losses
with the closed-form error predictions. The drivers below it pin down the
synthetic problems and hyperparameters used by the acceptance experiments:
the three-regime sweep on a quadratic, the middle-regime rate study on a
logistic objective with estimated constants, and the two-stage restart
comparison.

A group is the seeds of one point (or budget). _final_losses steps the
groups of a serial sweep or of the rate study in stacks, and each group's
losses or error are those of its lone run (see the README's design notes).
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields, replace
from typing import Optional, Sequence

import numpy as np

from . import problems
from .estimation import estimate_L, estimate_mu, estimate_rho
from .geometry import BlockGeometry
from .optimizer import (
    ConstantBeta, ScgConfig, _returned, _run_segments, _write_csv, run, run_staged,
)
from .problems import LayeredQuadratic, LogisticRegression, NoiseModel, ProblemSpec
from .scaling import (
    ProblemConstants, TunedConfig, critical_bs, error_law, plan_stages, prescribed_alpha,
)

__all__ = [
    "BetaRule",
    "SweepConfig",
    "SweepRow",
    "SweepResult",
    "run_sweep",
    "point_seed",
    "regime_sweep_problem",
    "regime_sweep",
    "rate_study_problem",
    "estimate_logistic_constants",
    "middle_regime_rates",
    "restart_comparison",
]


@dataclass(frozen=True)
class BetaRule:
    """How the per-point stepsize and momentum are chosen in a sweep.

    kind "prescribed": beta = c/K with alpha from the parameter prescription
    at the predicted error for that point. kind "critical": beta = c/K with a
    fixed alpha. kind "fixed": both fixed. mode, "exact" or "asymptotic",
    selects the form of the error law and of the prescription.
    """

    kind: str
    c: float = 1.0
    beta: Optional[float] = None
    alpha: Optional[float] = None
    mode: str = "asymptotic"

    def __post_init__(self):
        if self.kind not in ("prescribed", "critical", "fixed"):
            raise ValueError(f"unknown beta rule {self.kind!r}")
        if self.mode not in ("exact", "asymptotic"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.kind == "fixed" and (self.beta is None or self.alpha is None):
            raise ValueError("fixed rule needs beta and alpha")
        if self.kind == "critical" and self.alpha is None:
            raise ValueError("critical rule needs alpha")
        for name in ("c", "beta", "alpha"):
            if not math.isfinite(getattr(self, name) or 0.0):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.c > 0:
            raise ValueError(f"c must be positive, got {self.c}")
        for name in ("beta", "alpha"):
            value = getattr(self, name)
            if value is not None and not 0 < value <= 1:
                raise ValueError(f"{name} must lie in (0, 1], got {value}")


@dataclass(frozen=True)
class SweepConfig:
    problem: ProblemSpec
    token_budget: float
    grid: tuple[tuple[float, float], ...]
    rule: BetaRule
    repetitions: int = 1
    seed_base: int = 0
    constants: Optional[ProblemConstants] = None

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.seed_base < 0:
            raise ValueError(f"seed_base must be nonnegative, got {self.seed_base}")
        if not 0 < self.token_budget < math.inf:
            raise ValueError(f"token_budget must be positive and finite, got {self.token_budget}")
        object.__setattr__(self, "grid", tuple((float(b), float(s)) for b, s in self.grid))
        for b, s in self.grid:
            if b * s > self.token_budget:
                raise ValueError(
                    f"grid point B={b:g} S={s:g} exceeds the token budget"
                )


@dataclass(frozen=True)
class SweepRow:
    B: float
    S: float
    K: int
    beta: float
    final_loss_mean: float
    final_loss_std: float
    predicted_eps: float
    predicted_regime: int
    error: Optional[str] = None


SWEEP_CSV_HEADER = [f.name for f in fields(SweepRow)]


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]


# eval_every for runs whose callers read only final_loss: each run records
# just its k = 0 row instead of a loss and four norms every few steps.
_FINAL_LOSS_ONLY = 1 << 30


def point_seed(seed_base: int, B: float, S: float, rep: int) -> int:
    """Seed owned by a grid point and repetition, stable under grid reorder."""
    ss = np.random.SeedSequence(
        [int(seed_base), int(round(B * 1e6)), int(round(S * 1e6)), int(rep)]
    )
    return int(ss.generate_state(1)[0])


def _point_hyperparameters(cfg: SweepConfig, consts: ProblemConstants, B: float, S: float):
    K = int(cfg.token_budget // (B * S))
    law = error_law(cfg.token_budget, B, S, consts, mode=cfg.rule.mode)
    if not math.isfinite(law.eps):
        raise FloatingPointError(f"the error law is not finite: eps = {law.eps}")
    rule = cfg.rule
    if rule.kind == "fixed":
        beta, alpha = rule.beta, rule.alpha
    else:
        if K < rule.c:
            raise ValueError(f"K={K} is below c={rule.c}; beta would exceed 1")
        beta = rule.c / K
        if rule.kind == "critical":
            alpha = rule.alpha
        else:
            alpha = prescribed_alpha(consts, law.eps, B * S, rule.mode)
    return K, beta, alpha, law


# Past its first group a stack takes another only while it holds at most this
# many values (rows x parameters), so that a grid of large blocks does not
# allocate every row at once; a group is never split, so no stack is smaller
# than a lone run(seeds=...) of one group. Past the cap a row-step costs more,
# not less: sign-16 rows took 0.44 us per row-step at 256 rows, 0.65 at 1024
# and 1.7 at 4096 (one core of a 2-core Xeon VM, NumPy 2.4 on OpenBLAS).
_STACK_VALUES = 1 << 12


def _group(spec, B, S, alpha, beta, iters, seeds):
    """The seeds of one point or budget, as _final_losses takes them: spec,
    its noise at batch B and sequence length S, and one unchecked
    constant-beta run per seed."""
    config = ScgConfig(
        alpha=alpha, beta=ConstantBeta(beta), iters=iters, eval_every=_FINAL_LOSS_ONLY,
        check_invariants=False,
    )
    return spec, replace(spec.noise, B=B, S=S), config, list(seeds)


def _lone_losses(group, logs=None):
    """The final losses of a lone run(seeds=...) of group, or what it raises.
    Given logs, the RunLogs of the group's rows in a stack, they stand in for
    that run's rows."""
    spec, noise, config, seeds = group
    try:
        if logs is None:
            logs = run(replace(spec, noise=noise), config, seeds=seeds)
        return [log.final_loss for log in _returned(logs, seeds)]
    except Exception as exc:  # the group fails, not the caller
        return exc


def _final_losses(groups):
    """Per group (see _group): _lone_losses of the group.

    The groups step together in stacks (optimizer._run_segments) of whole
    groups of one problem, in order of its first appearance, longest first,
    more than one group only within _STACK_VALUES values. Each group settles
    from its own rows; the groups of a stack that raises run alone.
    """
    rank = {id(spec): i for i, (spec, *_) in reversed(list(enumerate(groups)))}
    order = sorted(range(len(groups)), key=lambda i: (rank[id(groups[i][0])], -groups[i][2].iters))
    stacks, values = [], 0
    for i in order:
        spec, _, _, seeds = groups[i]
        n = len(seeds) * spec.total_params
        if stacks and values + n <= _STACK_VALUES and spec is groups[stacks[-1][0]][0]:
            stacks[-1].append(i)
            values += n
        else:
            stacks.append([i])
            values = n
    out = [None] * len(groups)
    for stack in stacks:
        members = [groups[i] for i in stack]
        logs = [None] * len(stack)  # a stack of one group is its lone run
        if len(stack) > 1:
            try:
                rows = iter(_run_segments(
                    members[0][0],
                    [replace(config, seed=seed) for *_, config, seeds in members for seed in seeds],
                    noises=[noise for _, noise, _, seeds in members for _ in seeds],
                ))
                logs = [[next(rows) for _ in seeds] for *_, seeds in members]
            except Exception:  # a stack that raised: each group alone
                pass
        for i, group, own in zip(stack, members, logs):
            out[i] = _lone_losses(group, own)
    return out


# The thread-count setter of the OpenBLAS bundled with NumPy's wheels.
_OPENBLAS_SET_THREADS = "scipy_openblas_set_num_threads64_"


def _one_blas_thread():
    """Pool initializer: one BLAS thread per worker, as the workers already
    share the cores; at OpenBLAS's default each worker starts a thread per
    core, and two workers' spectral runs contend for them. It calls
    _OPENBLAS_SET_THREADS through the NumPy extension module, whose symbol
    lookup searches the OpenBLAS it links. Where that library has no such
    symbol, threading stays as it is."""
    import ctypes
    set_threads = getattr(ctypes.CDLL(np._core._multiarray_umath.__file__),
                          _OPENBLAS_SET_THREADS, None)
    if set_threads is not None:
        set_threads(1)


def run_sweep(cfg: SweepConfig, jobs: int = 1) -> SweepResult:
    """Run every grid point, each over cfg.repetitions seeds.

    Here the seeds of all points step together (see _final_losses); with
    jobs > 1 each point is one task, a lone run(seeds=...) of its seeds, on
    min(jobs, points) worker processes of one BLAS thread each (see
    _one_blas_thread). A point whose hyperparameters or runs fail gets an
    error row; the other points are unaffected.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if not cfg.grid:
        return SweepResult(())
    consts = cfg.constants if cfg.constants is not None else problems.known_constants(cfg.problem)
    points, groups = [], []  # per point, its error row or its hyperparameters and group
    for B, S in cfg.grid:
        try:
            K, beta, alpha, law = _point_hyperparameters(cfg, consts, B, S)
            seeds = [point_seed(cfg.seed_base, B, S, rep) for rep in range(cfg.repetitions)]
            groups.append(_group(cfg.problem, B, S, alpha, beta, K, seeds))
        except Exception as exc:  # row-level failure, not a sweep abort
            points.append(_error_row(B, S, exc))
            continue
        points.append((B, S, K, beta, law, len(groups) - 1))

    workers = min(jobs, len(groups))
    if workers > 1:
        # The pool forks all its workers at once, so it is sized to the points.
        # Imported here, so a serial sweep loads no multiprocessing.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread) as pool:
            results = list(pool.map(_lone_losses, groups))
    else:
        results = _final_losses(groups)
    return SweepResult(tuple(
        point if isinstance(point, SweepRow) else _point_row(*point, results)
        for point in points
    ))


def _point_row(B, S, K, beta, law, group: int, results) -> SweepRow:
    losses = results[group]
    if isinstance(losses, Exception):
        return _error_row(B, S, losses)
    std = float(np.std(losses, ddof=1)) if len(losses) > 1 else 0.0
    return SweepRow(B, S, K, beta, float(np.mean(losses)), std, law.eps, law.regime)


def _error_row(B, S, exc) -> SweepRow:
    return SweepRow(B, S, 0, math.nan, math.nan, math.nan, math.nan, 0, error=str(exc))


# -- calibrated experiment drivers --------------------------------------------
#
# The constants below were tuned once on the synthetic problems so that the
# measured curves sit inside the windows the experiments assert on; they are
# ordinary hyperparameters of the desk-scale setups, not magic.

REGIME_SWEEP_T = 2**20
REGIME_SWEEP_SIGMA_STAR = 0.1
REGIME_SWEEP_DIM = 16
REGIME_SWEEP_ETA = 1.1
REGIME_SWEEP_CURVATURE = 0.1175
REGIME_SWEEP_ALPHA = 0.09
REGIME_SWEEP_C = 1.0


def regime_sweep_problem(sigma_star: float = REGIME_SWEEP_SIGMA_STAR) -> LayeredQuadratic:
    """Sign-block quadratic used by the batch-scale sweep.

    Target coordinates have near-uniform magnitude in [0.5, 0.6] (drawn with
    seed 11), strictly inside the radius ball, so every coordinate settles
    into its own dithered limit cycle; the sharp interior loss minimum sits
    near the predicted critical scale and the large-batch tail saturates
    against the ball boundary.
    """
    rng = np.random.default_rng(11)
    mags = rng.uniform(0.5, 0.6, REGIME_SWEEP_DIM)
    signs = rng.choice([-1.0, 1.0], REGIME_SWEEP_DIM)
    return LayeredQuadratic(
        geometry=(BlockGeometry("sign", (REGIME_SWEEP_DIM,), REGIME_SWEEP_ETA),),
        block_names=("w",),
        curvatures=(REGIME_SWEEP_CURVATURE,),
        targets=(mags * signs,),
        noise=NoiseModel(sigma_star),
    )


def regime_sweep(
    T: float = REGIME_SWEEP_T,
    exponents: Sequence[int] = tuple(range(0, 19)),
    repetitions: int = 5,
    seed_base: int = 2024,
    jobs: int = 1,
    problem: Optional[LayeredQuadratic] = None,
):
    """Sweep BS over powers of two at a fixed token budget.

    The stepsize follows the 1/K prescription at every point while the
    momentum parameter is held at its transfer-constant value. Returns
    (SweepResult, constants, critical scale).

    On this problem the error law (asymptotic mode) labels no grid point
    noise dominated: BS = 2^0 .. 2^10 lie in the flat middle regime 2, where
    the predicted error does not depend on BS, and BS = 2^11 .. 2^18 in the
    iteration-starved regime 3, where it grows linearly in BS. The critical
    scale, 2^10.7 at the default budget, is where the two meet. The measured
    final losses fall with BS up to an interior minimum and rise past it.
    """
    spec = problem if problem is not None else regime_sweep_problem()
    consts = replace(problems.known_constants(spec), c=REGIME_SWEEP_C)
    cfg = SweepConfig(
        problem=spec,
        token_budget=T,
        grid=tuple((float(2**j), 1.0) for j in exponents),
        rule=BetaRule(kind="critical", c=REGIME_SWEEP_C, alpha=REGIME_SWEEP_ALPHA),
        repetitions=repetitions,
        seed_base=seed_base,
        constants=consts,
    )
    result = run_sweep(cfg, jobs=jobs)
    return result, consts, critical_bs(T, consts)


RATE_STUDY_SIGMA_STAR = 0.01
RATE_STUDY_DIM = 24
RATE_STUDY_N_SAMPLES = 96
RATE_STUDY_ETA = 70.0
RATE_STUDY_MARGIN = 0.3
RATE_STUDY_DATA_SEED = 7
RATE_STUDY_PILOT_SEED = 5
RATE_STUDY_ALPHA = 0.25
RATE_STUDY_C = 2.0


def rate_study_problem() -> LogisticRegression:
    """Logistic objective for the token-budget rate study.

    Separable logistic loss keeps the dual gradient norm proportional to the
    loss over many decades, which is exactly the regularity the error law
    leans on, so the measured rate tracks the predicted one. The margin
    boost keeps the constrained optimum far below the noise plateau.
    """
    return LogisticRegression(
        geometry=(BlockGeometry("euclidean", (RATE_STUDY_DIM,), RATE_STUDY_ETA),),
        block_names=("w",),
        n_samples=RATE_STUDY_N_SAMPLES,
        dim=RATE_STUDY_DIM,
        data_seed=RATE_STUDY_DATA_SEED,
        margin_boost=RATE_STUDY_MARGIN,
        noise=NoiseModel(RATE_STUDY_SIGMA_STAR),
    )


def estimate_logistic_constants(
    spec: LogisticRegression, pilot_iters: int = 600
) -> ProblemConstants:
    """Estimate (L, mu, rho) for the logistic problem from a pilot run.

    Smoothness comes from consecutive gradient samples of a stored-gradient
    run (B = 64, beta = 0.002), the error-bound slope from the loss vs
    dual-norm trace, and the norm-equivalence gain from 200
    minibatch-vs-reference residuals, all drawn at the start point: the noise
    is additive, so a residual does not depend on the point it is drawn at.
    The samples share one exact gradient, and their noise is one (200, dim)
    draw, the normals of 200 grad_sample calls on the generator in order.
    """
    pilot_spec = replace(spec, noise=replace(spec.noise, B=64.0, S=1.0))
    cfg = ScgConfig(
        alpha=RATE_STUDY_ALPHA,
        beta=ConstantBeta(0.002),
        iters=pilot_iters,
        seed=RATE_STUDY_PILOT_SEED,
        store_gradients=True,
        check_invariants=False,
    )
    log = run(pilot_spec, cfg)
    L_hat = estimate_L(log, spec.geometry, window=100)
    mu_fit = estimate_mu(log.loss, log.g_dual, loss_cap=float("inf"))
    x = problems.initial_point(spec)
    (g,) = problems.grad(spec, x).arrays
    draw = np.random.default_rng(RATE_STUDY_PILOT_SEED + 1).standard_normal((200, g.size))
    samples = g + problems.per_coordinate_sigma(pilot_spec) * draw
    rho_hat = estimate_rho([samples - g], spec.geometry, window=200)
    return ProblemConstants(
        L=L_hat,
        mu=max(mu_fit.slope, 1e-12),
        rho=rho_hat,
        sigma_star=spec.noise.sigma_star,
        delta0=problems.loss(spec, x),
        c=RATE_STUDY_C,
    )


def middle_regime_rates(
    t_exponents: Sequence[int] = tuple(range(14, 23)),
    repetitions: int = 5,
    seed_base: int = 77,
    problem: Optional[LogisticRegression] = None,
    constants: Optional[ProblemConstants] = None,
):
    """Final loss against token budget with BS pinned at the critical scale.

    Each run takes K = T // BS steps at beta = c / K, the rule
    ConstantBeta.horizon states, so a budget with K below 2c raises a
    ValueError. Returns a dict with the budgets, per-budget critical scales,
    mean final losses, and the fitted log-log slope (the flat-regime
    prediction decays as the cube root of the budget).
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if len(set(t_exponents)) < 2:
        raise ValueError(f"t_exponents must name at least 2 distinct budgets, got {t_exponents}")
    spec = problem if problem is not None else rate_study_problem()
    consts = constants if constants is not None else estimate_logistic_constants(spec)
    budgets, scales, groups = [], [], []
    for j in t_exponents:
        T = float(2**j)
        bs = max(1.0, round(critical_bs(T, consts)))
        K = int(T // bs)
        beta = ConstantBeta.horizon(RATE_STUDY_C, K).value
        seeds = [point_seed(seed_base, bs, 1.0, rep + 1000 * j) for rep in range(repetitions)]
        groups.append(_group(spec, bs, 1.0, RATE_STUDY_ALPHA, beta, K, seeds))
        budgets.append(T)
        scales.append(bs)
    all_losses = _final_losses(groups)
    for result in all_losses:
        if isinstance(result, Exception):
            raise result
    means = [float(np.mean(losses)) for losses in all_losses]
    slope = float(np.polyfit(np.log(budgets), np.log(means), 1)[0])
    return {
        "budgets": budgets,
        "critical_scales": scales,
        "mean_losses": means,
        "losses": all_losses,
        "slope": slope,
        "constants": consts,
    }


RESTART_T0 = 2**18
RESTART_SIGMA_STAR = 0.1
RESTART_ALPHA = 0.1
RESTART_C = 1.0


def restart_comparison(budget_factor: float = 8.0, trials: int = 5, seed_base: int = 31):
    """Two-stage restart against a fixed-small-batch baseline.

    The tuned point sits at the critical scale for the initial budget; the
    restart plan re-derives (BS, beta) for the cumulative budget. Returns the
    plan plus per-trial final losses for both strategies.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not budget_factor > 1.0:
        raise ValueError(f"budget_factor must exceed 1, got {budget_factor}")
    spec = regime_sweep_problem(sigma_star=RESTART_SIGMA_STAR)
    consts = replace(problems.known_constants(spec), c=RESTART_C)
    bs0 = max(1.0, round(critical_bs(RESTART_T0, consts)))
    beta0 = ConstantBeta.horizon(RESTART_C, int(RESTART_T0 // bs0)).value
    base = TunedConfig(B0=bs0, S0=1.0, beta0=beta0, alpha0=RESTART_ALPHA, T0=RESTART_T0)
    T1 = budget_factor * RESTART_T0
    plan = plan_stages(base, consts, consts, [RESTART_T0, T1])

    seeds = [point_seed(seed_base, bs0, 1.0, trial) for trial in range(trials)]
    _, noise, config, _ = _group(spec, bs0, 1.0, RESTART_ALPHA, beta0, int(T1 // bs0), seeds)
    # The staged run reads neither the config's iters nor its alpha or beta.
    staged_losses = [log.final_loss for log in run_staged(spec, plan, config, seeds=seeds)]
    baseline_losses = [
        log.final_loss for log in run(replace(spec, noise=noise), config, seeds=seeds)]
    return {
        "plan": plan,
        "tuned": base,
        "constants": consts,
        "staged_losses": staged_losses,
        "baseline_losses": baseline_losses,
    }


def sweep_rows_to_csv(result: SweepResult, path_or_buf) -> None:
    """Write one row per SweepRow: floats with 17 significant digits, ints as
    they are, a missing error as an empty cell."""
    _write_csv(path_or_buf, SWEEP_CSV_HEADER, (astuple(r) for r in result.rows))
