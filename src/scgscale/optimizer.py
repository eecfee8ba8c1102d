"""Momentum conditional-gradient iteration loops and trajectory logging.

The constrained variant mixes the iterate convexly with a radius-scaled LMO
direction, x <- (1 - beta) x + beta eta d; the unconstrained variant takes
additive steps x <- x + eta d. Both share the same momentum buffer update
m <- (1 - alpha) m + alpha g.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from .geometry import (
    GeometryKind,
    LayeredPoint,
    block_primal_norm,
    composite_dual_norm,
    lmo_block,
    scaled_l2_norm,
)
from . import problems

__all__ = [
    "ConstantBeta",
    "WarmdownBeta",
    "BetaSchedule",
    "beta_at",
    "ScgConfig",
    "Stage",
    "StagePlan",
    "RunLog",
    "scg_step",
    "uscg_step",
    "run",
    "run_staged",
    "RUNLOG_CSV_HEADER",
]

_FLOAT_FMT = "{:.17g}"
_INVARIANT_SLACK = 1e-9
# Bound once: looking up an Enum member costs more than the identity test
# against it, and the block update does that test every step.
_SIGN, _EUCLIDEAN = GeometryKind.SIGN, GeometryKind.EUCLIDEAN
# A run draws its gradient noise for at most this many steps at once, and at
# most this many values (512 KiB of doubles) per draw.
_NOISE_CHUNK_STEPS = 256
_NOISE_CHUNK_VALUES = 1 << 16


@dataclass(frozen=True)
class ConstantBeta:
    value: float

    def __post_init__(self):
        if not 0.0 < self.value <= 1.0:
            raise ValueError(f"constant beta must lie in (0, 1], got {self.value}")

    @classmethod
    def horizon(cls, c: float, iters: int) -> "ConstantBeta":
        """Constant beta = c / iters; requires iters >= 2c."""
        if c <= 0:
            raise ValueError(f"c must be positive, got {c}")
        if iters < 2 * c:
            raise ValueError(f"iters must be at least 2c (got iters={iters}, c={c})")
        return cls(c / iters)


@dataclass(frozen=True)
class WarmdownBeta:
    """Constant stepsize with a terminal linear decay.

    beta_k = gamma for k < total_steps - warmdown_steps, then decays linearly
    as gamma * (total_steps - k) / warmdown_steps over the warmdown tail.
    warmdown_steps None selects the final 28% of the step budget,
    max(1, round(0.28 * total_steps)).
    """

    gamma: float
    total_steps: int
    warmdown_steps: Optional[int] = None

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in (0, 1], got {self.gamma}")
        if self.warmdown_steps is None:
            object.__setattr__(self, "warmdown_steps", max(1, round(0.28 * self.total_steps)))
        if not 0 <= self.warmdown_steps <= self.total_steps:
            raise ValueError("warmdown_steps must lie in [0, total_steps]")


BetaSchedule = Union[ConstantBeta, WarmdownBeta]


def beta_at(schedule: BetaSchedule, k: int) -> float:
    if isinstance(schedule, ConstantBeta):
        return schedule.value
    if isinstance(schedule, WarmdownBeta):
        n, m = schedule.total_steps, schedule.warmdown_steps
        if k < n - m:
            return schedule.gamma
        return schedule.gamma * (n - k) / m
    raise TypeError(f"unknown beta schedule {schedule!r}")


@dataclass(frozen=True)
class ScgConfig:
    """All optimizer hyperparameters for one run.

    radii overrides the per-block geometry radii when given (parallel to the
    block list). momentum_init selects the buffer seed: the first gradient
    sample (default) or zeros. check_invariants arms the per-step iterate
    bound checker whenever its preconditions hold. variant selects the
    constrained update "scg" (default) or the unconstrained additive "uscg".
    """

    alpha: float
    beta: BetaSchedule
    iters: int
    seed: int = 0
    radii: Optional[tuple[float, ...]] = None
    eval_every: int = 1
    store_gradients: bool = False
    momentum_init: str = "first_sample"
    check_invariants: bool = True
    variant: str = "scg"

    def __post_init__(self):
        if self.variant not in ("scg", "uscg"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.iters < 0:
            raise ValueError(f"iters must be nonnegative, got {self.iters}")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if self.momentum_init not in ("first_sample", "zeros"):
            raise ValueError(f"unknown momentum_init {self.momentum_init!r}")
        if self.radii is not None:
            object.__setattr__(self, "radii", tuple(float(r) for r in self.radii))
            if any(r <= 0 for r in self.radii):
                raise ValueError("all radii must be positive")
        if isinstance(self.beta, WarmdownBeta) and self.beta.total_steps < self.iters:
            raise ValueError(
                f"warmdown schedule covers {self.beta.total_steps} steps "
                f"but the run takes iters={self.iters}"
            )


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

    @property
    def total_tokens(self) -> float:
        return sum(s.token_allotment for s in self.stages)


RUNLOG_CSV_HEADER = ["k", "loss", "x_primal", "g_dual", "m_dual", "beta", "step_disp", "stage"]
_INT_COLUMNS = ("k", "stage")


@dataclass
class RunLog:
    """Per-iteration trajectory records plus the final state.

    Rows are recorded every ``eval_every`` steps: step index, exact loss and
    composite primal norm of the pre-update iterate, composite dual norms of
    the gradient sample and momentum buffer, the stepsize used, the composite
    primal norm of the step displacement, and the stage index.
    """

    k: np.ndarray
    loss: np.ndarray
    x_primal: np.ndarray
    g_dual: np.ndarray
    m_dual: np.ndarray
    beta: np.ndarray
    step_disp: np.ndarray
    stage: np.ndarray
    final_loss: float = math.nan
    final_x: Optional[LayeredPoint] = None
    invariant_violations: int = 0
    first_violation: Optional[str] = None
    checked_steps: int = 0
    gradients: Optional[list[LayeredPoint]] = None

    def __post_init__(self):
        n = len(self.k)
        for name in RUNLOG_CSV_HEADER:
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name} has mismatched length")
        if n and not np.all(np.diff(self.k) > 0):
            raise ValueError("step indices must be strictly increasing")
        for name in RUNLOG_CSV_HEADER:
            col = getattr(self, name)
            if n and name not in _INT_COLUMNS and not (
                np.all(np.isfinite(col)) and np.all(col >= 0)
            ):
                raise ValueError(f"column {name} must be finite and nonnegative")

    def __len__(self):
        return len(self.k)

    def to_csv(self, path_or_buf) -> None:
        if hasattr(path_or_buf, "write"):
            self._write(path_or_buf)
        else:
            with open(path_or_buf, "w", newline="") as fh:
                self._write(fh)

    def _write(self, fh) -> None:
        writer = csv.writer(fh)
        writer.writerow(RUNLOG_CSV_HEADER)
        columns = [
            [int(v) for v in getattr(self, name)] if name in _INT_COLUMNS
            else [_FLOAT_FMT.format(v) for v in getattr(self, name)]
            for name in RUNLOG_CSV_HEADER
        ]
        writer.writerows(zip(*columns))

    def to_csv_string(self) -> str:
        buf = io.StringIO()
        self._write(buf)
        return buf.getvalue()

    @classmethod
    def from_csv(cls, path_or_buf) -> "RunLog":
        if hasattr(path_or_buf, "read"):
            rows = list(csv.reader(path_or_buf))
        else:
            with open(path_or_buf, newline="") as fh:
                rows = list(csv.reader(fh))
        if not rows or rows[0] != RUNLOG_CSV_HEADER:
            raise ValueError(f"expected header {','.join(RUNLOG_CSV_HEADER)}")
        body = rows[1:]
        cols = {name: [] for name in RUNLOG_CSV_HEADER}
        for lineno, row in enumerate(body, start=2):
            if len(row) != len(RUNLOG_CSV_HEADER):
                raise ValueError(f"line {lineno}: expected {len(RUNLOG_CSV_HEADER)} fields")
            for name, val in zip(RUNLOG_CSV_HEADER, row):
                cols[name].append(val)
        return cls(**{
            name: np.array([int(v) for v in vals], dtype=int) if name in _INT_COLUMNS
            else np.array([float(v) for v in vals])
            for name, vals in cols.items()
        })


def _resolve_radii(config_radii, geometry) -> list[float]:
    if config_radii is None:
        return [g.radius_eta for g in geometry]
    if len(config_radii) != len(geometry):
        raise ValueError("radii must be parallel to the block list")
    return list(config_radii)


def _step_block(xb, mb, kind, keep, scale, scratch, spectral_method="exact"):
    """In place, xb <- keep * xb + scale * lmo(mb); scratch is shaped like mb.

    Sign and euclidean directions are formed in scratch, so those blocks
    allocate nothing per step; spectral blocks go through lmo_block.
    """
    xb *= keep
    if kind is _SIGN:
        np.sign(mb, out=scratch)
        scratch *= scale
        xb -= scratch
    elif kind is _EUCLIDEAN:
        v, nrm = scaled_l2_norm(mb)
        if nrm > 0.0:
            np.multiply(v, scale / nrm, out=scratch)
            xb -= scratch
    else:
        xb += scale * lmo_block(mb, kind, spectral_method)


def _step(x, m, g_sample, alpha, keep, scales, geometry, spectral_method):
    x_new = [a.copy() for a in x.arrays]
    m_new = [a.copy() for a in m.arrays]
    for xb, mb, gb, scale, geom in zip(x_new, m_new, g_sample.arrays, scales, geometry):
        mb *= 1.0 - alpha
        mb += alpha * gb
        _step_block(xb, mb, geom.kind, keep, scale, np.empty_like(mb), spectral_method)
    return (
        LayeredPoint.from_arrays(x.names, x_new),
        LayeredPoint.from_arrays(x.names, m_new),
    )


def scg_step(x, m, g_sample, alpha, beta_k, radii, geometry, spectral_method="exact"):
    """One constrained step: returns (x', m') as new layered points.

    m' = (1 - alpha) m + alpha g; d = lmo(m'); per block,
    x' = (1 - beta_k) x + beta_k eta d.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if not 0.0 <= beta_k <= 1.0:
        raise ValueError(f"beta_k must lie in [0, 1], got {beta_k}")
    scales = [beta_k * eta for eta in _resolve_radii(radii, geometry)]
    return _step(x, m, g_sample, alpha, 1.0 - beta_k, scales, geometry, spectral_method)


def uscg_step(x, m, g_sample, alpha, eta, radii=None, geometry=None, spectral_method="exact"):
    """One unconstrained step: additive update x' = x + eta d, no contraction.

    eta is a global step scale; per-block radii multiply it when given.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if eta < 0:
        raise ValueError(f"eta must be nonnegative, got {eta}")
    if geometry is None:
        raise ValueError("geometry is required")
    scales = [eta] * len(geometry) if radii is None else [eta * r for r in radii]
    return _step(x, m, g_sample, alpha, 1.0, scales, geometry, spectral_method)


@dataclass(frozen=True)
class _Segment:
    iters: int
    schedule: BetaSchedule
    alpha: float
    noise: "problems.NoiseModel"
    stage_index: int


def _primal_norms(x, kinds) -> list[float]:
    return [block_primal_norm(xb, kind) for xb, kind in zip(x, kinds)]


def _betas(schedule: BetaSchedule, iters: int):
    """The stepsizes of steps 0 .. iters-1 of a segment, in order."""
    if isinstance(schedule, ConstantBeta):
        return itertools.repeat(schedule.value, iters)
    return (beta_at(schedule, k) for k in range(iters))


def _run_segments(spec, segments, config, x0):
    geometry = spec.geometry
    names = spec.block_names
    radii = _resolve_radii(config.radii, geometry)
    kinds = [g.kind for g in geometry]
    n_blocks = len(geometry)

    if x0 is None:
        x = [np.zeros(g.shape) for g in geometry]
    else:
        if tuple(x0.names) != tuple(names):
            raise ValueError("x0 block names do not match the problem")
        x = [np.array(a, dtype=float, copy=True) for a in x0.arrays]
        for a, g in zip(x, geometry):
            if a.shape != g.shape:
                raise ValueError("x0 block shapes do not match the geometry")

    rng = np.random.default_rng(config.seed)
    m = None

    # Noise is drawn for up to chunk_steps steps at once into one reused
    # buffer: a draw of shape (n, n_params) yields the same normals in the
    # same order as n draws of n_params, and a step's row splits into the
    # blocks in block order.
    n_params = sum(g.size for g in geometry)
    chunk_steps = min(_NOISE_CHUNK_STEPS, max(1, _NOISE_CHUNK_VALUES // n_params))
    noise_buf = np.empty((chunk_steps, n_params))
    offsets = np.cumsum([0] + [g.size for g in geometry])
    noise = [
        noise_buf[:, a:b].reshape((chunk_steps,) + g.shape)
        for a, b, g in zip(offsets, offsets[1:], geometry)
    ]

    eval_every = config.eval_every
    n_rows = sum(len(range(0, s.iters, eval_every)) for s in segments)
    cols = {
        name: np.empty(n_rows, dtype=int if name in _INT_COLUMNS else float)
        for name in RUNLOG_CSV_HEADER
    }
    columns = list(cols.values())
    grads: Optional[list[LayeredPoint]] = [] if config.store_gradients else None

    violations = 0
    first_violation = None
    checked = 0

    scratch = [np.empty(g.shape) for g in geometry]
    # Per-block primal norms of x, kept until x moves: the arming test and
    # the checker compute them, and the next recorded row reads them.
    x_norms = None

    row = 0
    k_global = 0
    is_scg = config.variant == "scg"
    for seg in segments:
        loss_fn, grad_fn = problems.compiled(spec)
        sigma_pc = problems.per_coordinate_sigma(spec, seg.noise)
        alpha = seg.alpha
        one_minus_alpha = 1.0 - alpha
        # The iterate-bound checker needs a constant stepsize with
        # beta = c/K, K >= 2c (i.e. beta <= 1/2) and 2||x0|| <= eta per block.
        check = (
            config.check_invariants
            and is_scg
            and isinstance(seg.schedule, ConstantBeta)
            and seg.schedule.value <= 0.5
        )
        if check:
            if x_norms is None:
                x_norms = _primal_norms(x, kinds)
            check = all(2.0 * nrm <= eta for nrm, eta in zip(x_norms, radii))
        contraction = 1.0  # (1 - beta)^k, tracked while the checker is armed
        for k_local, beta_k in enumerate(_betas(seg.schedule, seg.iters)):
            record = (k_local % eval_every) == 0
            if record:
                loss_k = loss_fn(x)
                if x_norms is None:
                    x_norms = _primal_norms(x, kinds)
                x_primal_k = max(x_norms)
            g = grad_fn(x)
            if sigma_pc > 0.0:
                j = k_local % chunk_steps
                if j == 0:
                    draw = noise_buf[:min(chunk_steps, seg.iters - k_local)]
                    rng.standard_normal(out=draw)
                    draw *= sigma_pc
                for gb, nb in zip(g, noise):
                    gb += nb[j]
            if grads is not None:
                grads.append(LayeredPoint.from_arrays(names, [gb.copy() for gb in g]))
            if record:
                g_dual_k = composite_dual_norm(g, kinds)
            if m is None:
                if config.momentum_init == "first_sample":
                    m = [gb.copy() for gb in g]
                else:
                    m = [alpha * gb for gb in g]
            else:
                for mb, gb in zip(m, g):
                    mb *= one_minus_alpha
                    gb *= alpha
                    mb += gb
            if record:
                m_dual_k = composite_dual_norm(m, kinds)

            need_disp = record or check
            if need_disp:
                x_prev = [xb.copy() for xb in x]
            keep, step_scale = (1.0 - beta_k, beta_k) if is_scg else (1.0, 1.0)
            for i in range(n_blocks):
                _step_block(x[i], m[i], kinds[i], keep, step_scale * radii[i], scratch[i])
            x_norms = None
            if need_disp:
                disp_blocks = [
                    block_primal_norm(xb - xp, kind) for xb, xp, kind in zip(x, x_prev, kinds)
                ]

            if check:
                checked += 1
                contraction *= 1.0 - beta_k  # now (1 - beta)^(k+1)
                x_norms = _primal_norms(x, kinds)
                for i in range(n_blocks):
                    eta = radii[i]
                    x_norm = x_norms[i]
                    x_bound = eta * (1.0 - 0.5 * contraction) + _INVARIANT_SLACK
                    ok_norm = x_norm <= x_bound
                    ok_disp = disp_blocks[i] <= 2.0 * beta_k * eta + _INVARIANT_SLACK
                    if not (ok_norm and ok_disp):
                        violations += 1
                        if first_violation is None:
                            first_violation = (
                                f"step {k_global} block {names[i]}: "
                                f"|x|={x_norm:.6g} bound={x_bound:.6g} "
                                f"disp={disp_blocks[i]:.6g} disp_bound={2.0 * beta_k * eta:.6g}"
                            )

            if record:
                # in RUNLOG_CSV_HEADER order
                values = (
                    k_global, loss_k, x_primal_k, g_dual_k, m_dual_k, beta_k,
                    max(disp_blocks), seg.stage_index,
                )
                for col, value in zip(columns, values):
                    col[row] = value
                row += 1
            k_global += 1

    loss_fn, _ = problems.compiled(spec)
    final_loss = float(loss_fn(x))
    if not (math.isfinite(final_loss) and all(np.all(np.isfinite(c)) for c in cols.values())):
        raise FloatingPointError(
            f"the run diverged: final loss {final_loss}, or a recorded loss or norm, "
            "is not finite"
        )
    return RunLog(
        **cols,
        final_loss=final_loss,
        final_x=LayeredPoint.from_arrays(names, [a.copy() for a in x]),
        invariant_violations=violations,
        first_violation=first_violation,
        checked_steps=checked,
        gradients=grads,
    )


def run(spec, config: ScgConfig, x0: Optional[LayeredPoint] = None) -> RunLog:
    """Execute the iteration for config.iters steps; deterministic given seed.

    The momentum buffer is seeded with the first gradient sample unless the
    config selects zero initialization.
    """
    segments = [_Segment(config.iters, config.beta, config.alpha, spec.noise, 0)]
    return _run_segments(spec, segments, config, x0)


def run_staged(
    spec,
    plan: StagePlan,
    base_config: ScgConfig,
    x0: Optional[LayeredPoint] = None,
) -> RunLog:
    """Run the stages of a plan sequentially, carrying the iterate across
    boundaries.

    Each stage swaps in its own (B, S, beta, alpha); the momentum buffer is
    carried over. The random stream continues
    across boundaries, so equal consecutive stages concatenate exactly.
    """
    segments = []
    for idx, stage in enumerate(plan.stages):
        iters = stage.iters
        if iters < 1:
            raise ValueError(
                f"stage {idx} allots {stage.token_allotment} tokens but needs "
                f"at least B*S = {stage.B * stage.S}"
            )
        noise = replace(spec.noise, B=stage.B, S=stage.S)
        segments.append(
            _Segment(iters, ConstantBeta(stage.beta), stage.alpha, noise, idx)
        )
    return _run_segments(spec, segments, base_config, x0)
