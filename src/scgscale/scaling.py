"""Closed-form calculators for batch/sequence/token budget scaling.

Everything here is pure arithmetic on problem constants: the parameter
prescription that guarantees a target error, the achievable-error law under a
fixed token budget with its three regimes, the critical batch-sequence scale
where the middle and iteration-starved regimes meet, hyperparameter transfer
across model sizes and token budgets, multi-stage restart planning into the
StagePlan that optimizer.run_staged runs, and the square-root and nonconvex
baseline rules. The module imports nothing from the package.

Two constant modes are supported. "exact" is the paper's law: L carries
the factor a = 128 exp(3c) and rho sigma_star the factor b = 32 exp(1.5c),
and the prescription adds the factor 2 exp(1.5c)/c to eta, a floor of 1/2
and the factor log(2 delta0/eps) to K. "asymptotic" sets a = b = 1 and drops
the three prescription extras, which is the right lens for regime studies
where only the powers of T and BS matter. Each term is written once, with
the factors a and b in it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

__all__ = [
    "ProblemConstants",
    "TunedConfig",
    "Stage",
    "StagePlan",
    "Prescription",
    "ErrorLaw",
    "prescribe_params",
    "prescribed_alpha",
    "error_law",
    "critical_bs",
    "transfer_model_size",
    "transfer_token_budget",
    "plan_stages",
    "sqrt_rule",
    "nonconvex_rule",
    "round_scale",
]


@dataclass(frozen=True)
class ProblemConstants:
    """Constants entering the convergence analysis.

    L: smoothness in the composite norm. mu: error-bound slope linking the
    dual gradient norm to suboptimality. rho: dual-vs-euclidean norm gain.
    sigma_star: noise scale, with per-sample variance sigma_star^2 / (B S).
    delta0: initial suboptimality. c: the free constant in beta = c / K.
    """

    L: float
    mu: float
    rho: float
    sigma_star: float = 0.0
    delta0: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        for name in ("L", "mu", "rho", "delta0", "c"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if not (0.0 <= self.sigma_star and math.isfinite(self.sigma_star * self.sigma_star)):
            raise ValueError(f"sigma_star must be >= 0 with a finite square, got {self.sigma_star}")


@dataclass(frozen=True)
class TunedConfig:
    """The tuned small-scale operating point used as a transfer base."""

    B0: float
    S0: float
    beta0: float
    alpha0: float
    T0: float

    def __post_init__(self):
        for name in ("B0", "S0", "alpha0", "T0"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if not 0.0 < self.beta0 < 1.0:
            raise ValueError(f"beta0 must lie in (0, 1), got {self.beta0}")


@dataclass(frozen=True)
class Stage:
    token_allotment: float
    B: float
    S: float
    beta: float
    alpha: float
    note: str = ""

    def __post_init__(self):
        if self.token_allotment <= 0:
            raise ValueError("token_allotment must be positive")
        if self.B < 1 or self.S < 1:
            raise ValueError("B and S must be >= 1")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"stage beta must lie in (0, 1], got {self.beta}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"stage alpha must lie in (0, 1], got {self.alpha}")

    @property
    def iters(self) -> int:
        return int(self.token_allotment // (self.B * self.S))


@dataclass(frozen=True)
class StagePlan:
    stages: tuple[Stage, ...]

    def __post_init__(self):
        if not self.stages:
            raise ValueError("a stage plan needs at least one stage")
        object.__setattr__(self, "stages", tuple(self.stages))


@dataclass(frozen=True)
class Prescription:
    beta: float
    eta: float
    alpha: float
    iters: int


def _log_term(consts: ProblemConstants, eps: float) -> float:
    if not 0.0 < eps < 2.0 * consts.delta0:
        raise ValueError(
            f"target error must lie in (0, 2*delta0) = (0, {2.0 * consts.delta0}), got {eps}"
        )
    return math.log(2.0 * consts.delta0 / eps)


def _factors(consts: ProblemConstants, mode: str) -> tuple[float, float]:
    """The factors (a, b) of the law in mode: a on L and b on rho sigma_star,
    (128 exp(3c), 32 exp(1.5c)) when exact and (1, 1) when asymptotic."""
    if mode == "asymptotic":
        return 1.0, 1.0
    if mode == "exact":
        e15 = math.exp(1.5 * consts.c)
        return 128.0 * e15**2, 32.0 * e15
    raise ValueError(f"unknown mode {mode!r}")


def prescribed_alpha(consts: ProblemConstants, eps: float, bs: float, mode: str) -> float:
    """Momentum parameter of the prescription for target error eps at batch
    scale bs: 1 without noise, else (eps mu / (b rho sigma))^2 capped at 1,
    with sigma = sigma_star / sqrt(bs) and b the mode's factor."""
    _, b = _factors(consts, mode)
    sigma = consts.sigma_star / math.sqrt(bs)
    if sigma == 0.0:
        return 1.0
    return min(1.0, (eps * consts.mu) ** 2 / (b * consts.rho * sigma) ** 2)


def prescribe_params(
    consts: ProblemConstants, eps: float, bs: float = 1.0, mode: str = "exact"
) -> Prescription:
    """Parameter prescription guaranteeing expected error at most eps.

    Uses the effective noise sigma = sigma_star / sqrt(bs). The returned
    iteration count is rounded up and beta = c / K is recomputed from it so
    the tuple is self-consistent.
    """
    if bs < 1:
        raise ValueError("bs must be >= 1")
    c, mu = consts.c, consts.mu
    a, b = _factors(consts, mode)
    aL, noise = a * consts.L, b * consts.rho * (consts.sigma_star / math.sqrt(bs))
    log_term = _log_term(consts, eps)
    alpha = prescribed_alpha(consts, eps, bs, mode)
    eta = log_term / mu
    inner = max(
        aL / (eps * mu**2),
        noise / (eps * mu),
        aL * noise**2 / (mu * (eps * mu) ** 3),
        noise**3 / (eps * mu) ** 3,
    )
    if a != 1.0:  # exact mode, whose a = 128 exp(3c) exceeds 1
        eta = (2.0 * math.exp(1.5 * c) / c) * eta
        inner = max(0.5, inner) * log_term
    iters = max(1, math.ceil(max(2.0 * c, inner)))
    return Prescription(beta=c / iters, eta=eta, alpha=alpha, iters=iters)


@dataclass(frozen=True)
class ErrorLaw:
    """Achievable error at a (T, B, S) point: the max of three terms.

    terms[0] grows linearly in BS (iteration starved), terms[1] is
    BS-independent (the T^(-1/3) middle regime), terms[2] decays with BS
    (noise dominated). regime labels which zone the point sits in: 1 for
    noise dominated, 2 for the flat middle, 3 for iteration starved, so
    eps == terms[3 - regime].
    """

    eps: float
    terms: tuple[float, float, float]
    regime: int


def error_law(T, B, S, consts: ProblemConstants, mode: str = "asymptotic") -> ErrorLaw:
    bs = B * S
    if bs < 1:
        raise ValueError("B * S must be >= 1")
    if T < bs:
        raise ValueError(f"token budget T={T} is below one step of BS={bs}")
    L, mu, rho, sigma_star = consts.L, consts.mu, consts.rho, consts.sigma_star
    a, b = _factors(consts, mode)
    t1 = a * L * bs / (mu**2 * T)
    t2 = (a * L * (b * rho) ** 2 * sigma_star**2 / (mu**4 * T)) ** (1.0 / 3.0)
    t3 = b * rho * sigma_star / (mu * (T**2 * bs) ** (1.0 / 6.0))
    # Tie-break toward the larger-batch regime so the regime label is
    # nondecreasing when sweeping BS upward.
    regime = 3 if t1 >= t2 and t1 >= t3 else 2 if t2 >= t3 else 1
    return ErrorLaw(eps=max(t1, t2, t3), terms=(t1, t2, t3), regime=regime)


def critical_bs(T: float, consts: ProblemConstants) -> float:
    """Batch-sequence scale where the flat and iteration-starved terms meet.

    BS* = (T mu rho sigma_star / L)^(2/3); the caller rounds as needed.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    if consts.sigma_star <= 0:
        raise ValueError("critical scale needs a positive noise level")
    return (T * consts.mu * consts.rho * consts.sigma_star / consts.L) ** (2.0 / 3.0)


def transfer_model_size(
    base: TunedConfig,
    consts0: ProblemConstants,
    consts1: ProblemConstants,
    T1: float,
) -> tuple[float, float]:
    """Move a tuned operating point to a new model size and token budget.

    Returns (BS1, beta1) with BS1 = B0 S0 ((T1/T0)(mu1/mu0)(rho1/rho0)/(L1/L0))^(2/3)
    and beta1 = beta0 (sqrt(T0/T1)(mu1/mu0)(rho1/rho0)/(L1/L0))^(2/3); the
    momentum parameter transfers unchanged.
    """
    T0 = base.T0
    if T1 <= 0:
        raise ValueError("token budgets must be positive")
    ratios = (consts1.mu / consts0.mu) * (consts1.rho / consts0.rho) / (consts1.L / consts0.L)
    bs1 = base.B0 * base.S0 * ((T1 / T0) * ratios) ** (2.0 / 3.0)
    beta1 = base.beta0 * (math.sqrt(T0 / T1) * ratios) ** (2.0 / 3.0)
    return bs1, beta1


def transfer_token_budget(
    base: TunedConfig,
    rho_model,
    T1: float,
    fixed_covariates: Optional[dict] = None,
) -> tuple[float, float]:
    """Rescale batch size for a larger token budget at fixed model size.

    The model stays the same so only the norm-equivalence constant moves, and
    it moves with the batch size itself: B1 = B0 ((T1/T0) rho(B1)/rho(B0))^(2/3)
    is solved as a fixed point damped by 1/2, to a relative tolerance of 1e-6
    within 1000 iterations (sequence length held fixed). rho_model is a
    power-law model evaluated at {"batch_size": B, **fixed_covariates}.
    Returns (B1, beta1) with beta1 = beta0 (sqrt(T0/T1) rho(B1)/rho(B0))^(2/3).
    """
    if T1 <= 0:
        raise ValueError("T1 must be positive")
    extra = dict(fixed_covariates or {})

    def rho_of_b(b: float) -> float:
        return rho_model.value({"batch_size": b, **extra})

    rho0 = rho_of_b(base.B0)
    if rho0 <= 0:
        raise ValueError("rho at the base batch size must be positive")
    t_ratio = T1 / base.T0

    def step(b: float) -> float:
        return base.B0 * (t_ratio * rho_of_b(b) / rho0) ** (2.0 / 3.0)

    b = base.B0 * t_ratio ** (2.0 / 3.0)
    diverged = FloatingPointError("token-budget fixed point did not converge within 1000 iterations")
    for _ in range(1000):
        try:
            b_next = 0.5 * b + 0.5 * step(b)
        except OverflowError:
            raise diverged
        if not math.isfinite(b_next) or b_next > 1e15 * max(base.B0, 1.0):
            raise diverged
        if abs(b_next - b) <= 1e-6 * max(abs(b_next), 1e-30):
            b = b_next
            break
        b = b_next
    else:
        raise diverged
    beta1 = base.beta0 * (math.sqrt(base.T0 / T1) * rho_of_b(b) / rho0) ** (2.0 / 3.0)
    return b, beta1


def sqrt_rule(base: TunedConfig, T1: float) -> tuple[float, float]:
    """Square-root baseline: BS1 = B0 S0 sqrt(T1/T0), beta1 = beta0 sqrt(T0/T1)."""
    if T1 <= 0:
        raise ValueError("T1 must be positive")
    factor = math.sqrt(T1 / base.T0)
    return base.B0 * base.S0 * factor, base.beta0 / factor


def nonconvex_rule(
    base: TunedConfig,
    consts0: ProblemConstants,
    consts1: ProblemConstants,
    D0: float,
    D1: float,
) -> float:
    """Batch scaling when only smoothness is assumed (gradient-norm metric).

    BS1 = B0 S0 sqrt((D1/D0)(rho1/rho0)^2 (L0/L1)).
    """
    if D0 <= 0 or D1 <= 0:
        raise ValueError("model sizes must be positive")
    return base.B0 * base.S0 * math.sqrt(
        (D1 / D0) * (consts1.rho / consts0.rho) ** 2 * (consts0.L / consts1.L)
    )


def plan_stages(
    base: TunedConfig,
    consts0: ProblemConstants,
    consts1: ProblemConstants,
    budgets: Sequence[float],
) -> StagePlan:
    """Build a restart schedule over cumulative token budgets.

    budgets are the cumulative totals available by the end of each stage
    (strictly increasing; the first equals the initial allotment). Each
    stage's (BS, beta) is transfer_model_size's: the first stage's at the
    tuned budget T0, which applies only the constant-ratio correction, each
    later stage's at the cumulative budget available by its end. The
    batch-sequence product is split with the sequence length held at S0.
    """
    budgets = [float(t) for t in budgets]
    if not budgets or not all(0.0 < t < math.inf for t in budgets):
        raise ValueError("budgets must be positive and finite")
    if any(b1 <= b0 for b0, b1 in zip(budgets, budgets[1:])):
        raise ValueError("budgets must be strictly increasing")
    stages = []
    prev_total = 0.0
    for idx, total in enumerate(budgets):
        bs, beta = transfer_model_size(base, consts0, consts1, T1=total if idx else base.T0)
        note = (f"restart with cumulative budget {total:g}" if idx
                else "initial stage: tuned scale corrected by constant ratios")
        stages.append(
            Stage(
                token_allotment=total - prev_total,
                B=bs / base.S0,
                S=base.S0,
                beta=beta,
                alpha=base.alpha0,
                note=note,
            )
        )
        prev_total = total
    return StagePlan(tuple(stages))


def round_scale(value: float, policy: str = "none") -> float:
    """Round a batch-sequence scale per an explicit policy."""
    if value <= 0:
        raise ValueError("value must be positive")
    if policy == "none":
        return value
    if policy == "pow2":
        return float(2.0 ** round(math.log2(value)))
    if policy == "mult32":
        return float(max(32, 32 * round(value / 32.0)))
    raise ValueError(f"unknown rounding policy {policy!r}")
