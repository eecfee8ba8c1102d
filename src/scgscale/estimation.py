"""Constant estimation from trajectories and shifted power-law fitting.

The estimators mirror how the constants are measured in practice: smoothness
from the ratio of consecutive gradient-sample differences to iterate
displacements, the error-bound slope from a robust (Huber) linear regression
of dual gradient norm against loss, the norm-equivalence gain from
dual-vs-euclidean ratios of gradient-noise vectors, and the noise scale from
empirical minibatch-gradient variances at a fixed sample pool.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .geometry import composite_dual_norm
from .problems import from_dict

__all__ = [
    "PowerLawTerm",
    "PowerLawModel",
    "FitTerm",
    "VarianceCurve",
    "HuberFit",
    "huber_line_fit",
    "estimate_mu",
    "smoothness_from_steps",
    "estimate_L",
    "rho_from_norms",
    "estimate_rho",
    "estimate_variance",
    "fit_power_law",
    "bundled_constant_laws",
]


@dataclass(frozen=True)
class PowerLawTerm:
    name: str
    shift: float
    exponent: float


@dataclass(frozen=True)
class PowerLawModel:
    """value = C * prod over terms of (covariate + shift) ^ exponent."""

    C: float
    terms: tuple[PowerLawTerm, ...]

    def __post_init__(self):
        if self.C <= 0:
            raise ValueError("C must be positive")
        object.__setattr__(self, "terms", tuple(self.terms))
        names = [t.name for t in self.terms]
        if len(set(names)) != len(names):
            raise ValueError("covariate names must be unique")

    def value(self, covariates: Mapping[str, float]) -> float:
        out = self.C
        for t in self.terms:
            if t.name not in covariates:
                raise KeyError(f"missing covariate {t.name!r}")
            base = covariates[t.name] + t.shift
            if base <= 0:
                raise ValueError(
                    f"covariate {t.name!r} + shift = {base} is not positive"
                )
            out *= base**t.exponent
        return out

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d) -> "PowerLawModel":
        """Read the JSON object that to_dict writes; errors are ValueErrors."""
        return from_dict(cls, d, "power law")


@dataclass(frozen=True)
class FitTerm:
    """One term of a power-law fit; None leaves the parameter free."""

    name: str
    shift: Optional[float] = None
    exponent: Optional[float] = None


@dataclass(frozen=True)
class VarianceCurve:
    """Measured gradient variance against batch scale, plus the fitted law."""

    points: tuple[tuple[float, float], ...]
    fitted: PowerLawModel

    @classmethod
    def fit(cls, scales, variances) -> "VarianceCurve":
        """Fit a one-term shifted power law in the covariate "scale" to the
        measured (scale, variance) points."""
        points = tuple((float(b), float(v)) for b, v in zip(scales, variances))
        if any(v <= 0 for _, v in points):
            raise ValueError("degenerate variance data: a variance is not positive")
        fitted = fit_power_law({"scale": scales}, variances, [FitTerm("scale")])
        return cls(points=points, fitted=fitted)


@dataclass(frozen=True)
class HuberFit:
    slope: float
    intercept: float
    n_points: int


def huber_line_fit(x, y, delta: float = 1.345) -> HuberFit:
    """Robust line fit via iteratively reweighted least squares.

    Residuals are standardized by the median absolute deviation; points beyond
    delta standardized units get downweighted by delta * scale / |r|. With
    delta -> inf this reduces to ordinary least squares. Iteration stops
    after 200 rounds or once slope and intercept move by at most 1e-12
    (relative, or absolute below 1).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-D arrays of equal length")
    if len(x) < 2:
        raise ValueError("need at least 2 points")
    if np.ptp(x) == 0:
        raise ValueError("x values have zero spread")

    def weighted_fit(w):
        sw = np.sum(w)
        mx = np.sum(w * x) / sw
        my = np.sum(w * y) / sw
        sxx = np.sum(w * (x - mx) ** 2)
        if sxx <= 0:
            raise ValueError("degenerate weighted fit")
        slope = np.sum(w * (x - mx) * (y - my)) / sxx
        return slope, my - slope * mx

    slope, intercept = weighted_fit(np.ones_like(x))
    y_scale = max(float(np.max(np.abs(y))), 1e-300)
    for _ in range(200):
        r = y - slope * x - intercept
        scale = 1.4826 * float(np.median(np.abs(r)))
        if scale < 1e-14 * y_scale or not math.isfinite(delta):
            break
        w = np.minimum(1.0, delta * scale / np.maximum(np.abs(r), 1e-300))
        new_slope, new_intercept = weighted_fit(w)
        if abs(new_slope - slope) <= 1e-12 * max(1.0, abs(slope)) and abs(
            new_intercept - intercept
        ) <= 1e-12 * max(1.0, abs(intercept)):
            slope, intercept = new_slope, new_intercept
            break
        slope, intercept = new_slope, new_intercept
    return HuberFit(float(slope), float(intercept), len(x))


def estimate_mu(
    losses,
    dual_grad_norms,
    loss_cap: float = 5.0,
    delta: float = 1.345,
) -> HuberFit:
    """Slope of dual gradient norm against loss over the low-loss samples.

    Only points with loss below loss_cap enter the regression; the intercept
    is fitted and reported, the slope is the estimate.
    """
    losses = np.asarray(losses, dtype=float)
    dual_grad_norms = np.asarray(dual_grad_norms, dtype=float)
    keep = losses < loss_cap
    if int(np.sum(keep)) < 2:
        raise ValueError(
            f"need at least 2 samples with loss below {loss_cap}, got {int(np.sum(keep))}"
        )
    x = losses[keep]
    if np.ptp(x) == 0:
        raise ValueError("loss values have zero spread below the cap")
    return huber_line_fit(x, dual_grad_norms[keep], delta=delta)


def smoothness_from_steps(grad_diff_duals, step_disps, window: int = 100) -> float:
    """Mean ratio of gradient-sample change to iterate displacement.

    Ratios are taken over the trailing window (window >= 1); steps with
    displacement below 1e-12 are skipped.
    """
    if window < 1:
        raise ValueError(f"window must be at least 1, got {window}")
    diffs = np.asarray(grad_diff_duals, dtype=float)
    disps = np.asarray(step_disps, dtype=float)
    if diffs.shape != disps.shape or diffs.ndim != 1:
        raise ValueError("inputs must be 1-D arrays of equal length")
    if len(diffs) == 0:
        raise ValueError("need at least one consecutive step")
    tail_d = diffs[-window:]
    tail_s = disps[-window:]
    valid = tail_s >= 1e-12
    if not np.any(valid):
        raise ValueError("all steps in the window are degenerate")
    return float(np.mean(tail_d[valid] / tail_s[valid]))


def estimate_L(run_log, geometry, window: int = 100) -> float:
    """Smoothness estimate from a trajectory log that stored gradient samples."""
    if run_log.gradients is None or len(run_log.gradients) < 2:
        raise ValueError("run log must store gradients for at least 2 steps")
    if len(run_log.gradients) != len(run_log.step_disp):
        raise ValueError("smoothness estimation needs a log recorded at every step")
    kinds = [g.kind for g in geometry]
    grads = run_log.gradients
    diffs = [
        composite_dual_norm([cb - pb for cb, pb in zip(cur.arrays, prev.arrays)], kinds)
        for prev, cur in zip(grads, grads[1:])
    ]
    # displacement ||x_k - x_{k-1}|| is the step recorded at row k-1
    disps = np.asarray(run_log.step_disp, dtype=float)[: len(diffs)]
    return smoothness_from_steps(diffs, disps, window=window)


def rho_from_norms(dual_norms, euclid_norms, window: int = 100) -> tuple[float, int]:
    """Mean dual-vs-euclidean norm ratio over the trailing window (window >= 1).

    Pairs with zero euclidean norm are skipped. Returns the mean and the
    number of usable pairs; at least one must remain.
    """
    if window < 1:
        raise ValueError(f"window must be at least 1, got {window}")
    duals = np.asarray(dual_norms, dtype=float)
    euclids = np.asarray(euclid_norms, dtype=float)
    keep = euclids > 0
    if not np.any(keep):
        raise ValueError("all pairs are degenerate (zero euclidean difference)")
    return float(np.mean((duals[keep] / euclids[keep])[-window:])), int(np.sum(keep))


def estimate_rho(pairs, geometry, window: int = 100) -> float:
    """Mean dual-vs-euclidean norm ratio of minibatch-vs-reference residuals.

    pairs is a sequence of (g_minibatch, g_reference) layered points; exactly
    equal pairs are skipped, and at least one usable pair must remain in the
    trailing window.
    """
    kinds = [g.kind for g in geometry]
    duals, euclids = [], []
    for g_small, g_ref in pairs:
        if tuple(g_small.names) != tuple(g_ref.names):
            raise ValueError("pair block names do not match")
        diff = [a - b for a, b in zip(g_small.arrays, g_ref.arrays)]
        euclids.append(math.sqrt(sum(float(np.sum(d * d)) for d in diff)))
        duals.append(composite_dual_norm(diff, kinds))
    return rho_from_norms(duals, euclids, window)[0]


def estimate_variance(
    oracle: Callable,
    x,
    scales: Sequence[float],
    pool_size: int,
    seed: int = 0,
) -> VarianceCurve:
    """Empirical gradient variance across minibatch scales at a fixed point.

    For each scale B the oracle is called pool_size / B times (the pool must
    divide evenly, with at least two draws) with independent seed-derived
    generators, so results do not depend on evaluation order. The variance is
    the unbiased mean squared euclidean deviation from the sample mean. A
    one-term shifted power law in the covariate "scale" is fitted to the
    resulting curve.
    """
    scales = [float(b) for b in scales]
    if any(b2 <= b1 for b1, b2 in zip(scales, scales[1:])):
        raise ValueError("scales must be strictly increasing")
    variances = []
    for b_idx, b in enumerate(scales):
        if pool_size % int(b) != 0:
            raise ValueError(f"pool_size {pool_size} is not divisible by scale {b:g}")
        m = pool_size // int(b)
        if m < 2:
            raise ValueError(f"scale {b:g} leaves fewer than 2 draws in the pool")
        draws = np.stack(
            [
                np.asarray(oracle(x, b, np.random.default_rng([seed, b_idx, i])))
                for i in range(m)
            ]
        )
        mean = draws.mean(axis=0)
        dev = draws - mean
        var = float(np.sum(dev * dev) / (m - 1))
        variances.append(var)
    return VarianceCurve.fit(scales, variances)


def _log_residuals(shape, cols, log_y):
    """(free, unpack, residuals, jacobian) of the log residuals
    log C + sum over terms of e * log(x + s) - log y. The parameters are
    log C, then one per (term index, 0 for its shift or 1 for its exponent)
    in free: the free shifts first, then the free exponents."""
    free = [(i, j) for j in (0, 1) for i, t in enumerate(shape)
            if (t.shift, t.exponent)[j] is None]

    def unpack(params):
        terms = [[t.shift, t.exponent] for t in shape]
        for (i, j), p in zip(free, params[1:]):
            terms[i][j] = p
        return params[0], terms

    def residuals(params):
        log_c, terms = unpack(params)
        pred = np.full_like(log_y, log_c)
        for t, (s, e) in zip(shape, terms):
            pred = pred + e * np.log(cols[t.name] + s)
        return pred - log_y

    def jacobian(params):
        # d/d log C = 1, d/d e = log(x + s), d/d s = e / (x + s)
        _, terms = unpack(params)
        jac = np.ones((len(log_y), 1 + len(free)))
        for k, (i, j) in enumerate(free, 1):
            s, e = terms[i]
            base = cols[shape[i].name] + s
            jac[:, k] = np.log(base) if j else e / base
        return jac

    return free, unpack, residuals, jacobian


def fit_power_law(
    covariates: Mapping[str, Sequence[float]],
    values: Sequence[float],
    shape: Sequence[FitTerm],
    seed: int = 0,
) -> PowerLawModel:
    """Fit a shifted power law by robust least squares on log residuals.

    Minimizes sum of phi(r^2) with phi(z) = 2 (sqrt(1 + z) - 1), the soft-l1
    loss, over log C and the free shifts and exponents, with the exact
    Jacobian of the log residuals, keeping the best of 16 starts when a shift
    is free, else one: with every shift fixed the residuals are affine in
    log C and the free exponents, so the objective is convex, and seed is
    unused. Shifts are constrained so every covariate + shift stays positive
    on the data.
    """
    values = np.asarray(values, dtype=float)
    if np.any(values <= 0):
        raise ValueError("power-law fitting requires positive values")
    shape = list(shape)
    if not shape:
        raise ValueError("shape needs at least one term")
    cols = {}
    for term in shape:
        if term.name not in covariates:
            raise KeyError(f"missing covariate column {term.name!r}")
        col = np.asarray(covariates[term.name], dtype=float)
        if col.shape != values.shape:
            raise ValueError(f"covariate {term.name!r} length mismatch")
        cols[term.name] = col

    log_y = np.log(values)
    free, unpack, residuals, jacobian = _log_residuals(shape, cols, log_y)
    n_free = 1 + len(free)
    if len(values) < n_free:
        raise ValueError(
            f"need at least {n_free} observations for {n_free} free parameters"
        )
    for t in shape:
        if t.shift is not None and np.any(cols[t.name] + t.shift <= 0):
            raise ValueError(f"fixed shift for {t.name!r} makes a base non-positive")

    # A free shift keeps every base of its covariate above zero.
    mins = {i: float(np.min(cols[shape[i].name])) for i, j in free if j == 0}
    shift_lb = {i: -c + 1e-9 * max(1.0, abs(c)) for i, c in mins.items()}
    lo = [-np.inf] + [shift_lb[i] if j == 0 else -np.inf for i, j in free]

    from scipy.optimize import least_squares
    rng = np.random.default_rng(seed)
    best = None
    mean_log_y = float(np.mean(log_y))
    for start in range(16 if mins else 1):
        p0 = [mean_log_y]
        for i, j in free:
            if j == 0:
                span = float(np.ptp(cols[shape[i].name])) or 1.0
                p0.append(shift_lb[i] + (1e-3 if start == 0 else rng.uniform(0.0, 1.0)) * span)
            else:
                p0.append(0.0 if start == 0 else rng.uniform(-1.0, 1.0))
        try:
            res = least_squares(
                residuals, p0, jac=jacobian, loss="soft_l1", bounds=(lo, np.inf),
                max_nfev=20000,
            )
        except Exception:
            continue
        if best is None or res.cost < best.cost:
            best = res
    if best is None:
        raise FloatingPointError("power-law fit failed from every start")
    log_c, terms = unpack(best.x)
    return PowerLawModel(
        C=float(np.exp(log_c)),
        terms=tuple(PowerLawTerm(t.name, float(s), float(e)) for t, (s, e) in zip(shape, terms)),
    )


def bundled_constant_laws() -> dict[str, PowerLawModel]:
    """Reference power-law fits of the optimization constants against
    transformer shape covariates (layers, embedding width, batch size),
    measured on instrumented small language-model training runs."""
    return {
        "mu": PowerLawModel(5.2, (PowerLawTerm("n_layer", 1.7, -0.2),)),
        "L": PowerLawModel(
            0.4,
            (PowerLawTerm("n_layer", 0.7, 0.2), PowerLawTerm("n_embd", 126.0, 0.35)),
        ),
        "rho": PowerLawModel(
            4.1,
            (
                PowerLawTerm("n_layer", -2.7, 0.25),
                PowerLawTerm("n_embd", -250.8, 0.3),
                PowerLawTerm("batch_size", -9.4, 0.1),
            ),
        ),
    }
