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
    block_dual_norm,
    block_primal_norm,
    composite_dual_norm,
    lmo_block,
    scaled_l2_norm,
    _TINY,
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


def _euclidean_step(xb, mb, scale, scratch):
    """In place, xb <- xb - scale * mb / ||mb||; a zero mb leaves xb as it is."""
    v, nrm = scaled_l2_norm(mb)
    if nrm > 0.0:
        np.multiply(v, scale / nrm, out=scratch)
        xb -= scratch


def _step_block(xb, mb, kind, scale, scratch):
    """In place, xb[r] <- xb[r] + scale[r] * lmo(mb[r]) for every seed r.

    xb, mb, scale and scratch hold one block per seed, stacked as (R, *shape);
    scale[r] holds one value. Sign and euclidean directions are formed in
    scratch, so those blocks allocate nothing per step. A spectral block takes
    one lmo_block call for the whole stack, and the step returns the R nuclear
    norms of mb that its SVD gives; other kinds return None. Each seed's
    result is bit-equal to stepping its block alone: the stacked matmul below
    forms the same dot product as the np.vdot of scaled_l2_norm on each
    seed's block, and the SVD and the polar product run matrix by matrix.
    """
    if kind is _SIGN:
        np.sign(mb, out=scratch)
        scratch *= scale
        xb -= scratch
    elif kind is _EUCLIDEAN:
        flat = mb.reshape(len(mb), -1)
        sq = np.matmul(flat[:, None, :], flat[:, :, None]).ravel()
        if sq.min() >= _TINY:  # False for a NaN too
            factor = scale.reshape(len(mb), -1)[:, 0] / np.sqrt(sq)
            np.multiply(mb, factor.reshape((-1,) + (1,) * (mb.ndim - 1)), out=scratch)
            xb -= scratch
            return
        # Some seed's block is tiny, zero or not finite: seed by seed.
        for xr, mr, cr, sr in zip(xb, mb, scale, scratch):
            _euclidean_step(xr, mr, cr.item(0), sr)
    else:
        d, nuclear = lmo_block(mb, kind)
        np.multiply(d, scale, out=scratch)
        xb += scratch
        return nuclear


@dataclass(frozen=True)
class _Segment:
    iters: int
    schedule: BetaSchedule
    alpha: float
    noise: "problems.NoiseModel"
    stage_index: int


def _betas(schedule: BetaSchedule, iters: int):
    """The stepsizes of steps 0 .. iters-1 of a segment, in order."""
    if isinstance(schedule, ConstantBeta):
        return itertools.repeat(schedule.value, iters)
    return (beta_at(schedule, k) for k in range(iters))


def _segments(spec, config: ScgConfig, plan: Optional[StagePlan]) -> list[_Segment]:
    if plan is None:
        return [_Segment(config.iters, config.beta, config.alpha, spec.noise, 0)]
    segments = []
    for idx, stage in enumerate(plan.stages):
        iters = stage.iters
        if iters < 1:
            raise ValueError(
                f"stage {idx} allots {stage.token_allotment} tokens but needs "
                f"at least B*S = {stage.B * stage.S}"
            )
        noise = replace(spec.noise, B=stage.B, S=stage.S)
        segments.append(_Segment(iters, ConstantBeta(stage.beta), stage.alpha, noise, idx))
    return segments


def _run_segments(spec, config: ScgConfig, seeds, plan: Optional[StagePlan] = None,
                  x0: Optional[LayeredPoint] = None) -> list[RunLog]:
    """One run of config (or of the stages of plan, as run_staged) per seed.

    The seeds step together: every block is held as an (R, *shape) array for
    the R seeds, and config.seed is not read. Seed r draws its noise from its
    own generator, so its RunLog is bit-equal to that of a lone run with
    config.seed = seeds[r]. Recording, the checker and stored gradients are
    kept per seed.
    """
    if len(seeds) == 0:
        raise ValueError("seeds must name at least one seed")
    segments = _segments(spec, config, plan)
    geometry = spec.geometry
    names = spec.block_names
    radii = _resolve_radii(config.radii, geometry)
    kinds = [g.kind for g in geometry]
    n_blocks = len(geometry)
    n_seeds = len(seeds)

    if x0 is not None:
        problems.check_point(spec, x0)

    # Each per-step quantity is one (R, n_params) array, seed r's blocks side by
    # side in row r: elementwise stages run on it once per step, and the LMO
    # and the oracle get (R, *shape) block views made once. Step constants are
    # such arrays too, as numpy converts a Python float operand on every call.
    n_params = sum(g.size for g in geometry)
    offsets = np.cumsum([0] + [g.size for g in geometry])

    def flat_and_blocks():
        flat = np.empty((n_seeds, n_params))
        return flat, [flat[:, a:b].reshape((n_seeds,) + g.shape, copy=False)
                      for a, b, g in zip(offsets, offsets[1:], geometry)]

    xf, x = flat_and_blocks()
    xf[:] = 0.0 if x0 is None else x0.flatten()
    (gf, g), (mf, m), (df, disp), (_, scratch), (_, scale) = (
        flat_and_blocks() for _ in range(5))
    c_1ma, c_alpha, c_keep = (np.empty((n_seeds, n_params)) for _ in range(3))
    beta_filled = None

    rngs = [np.random.default_rng(seed) for seed in seeds]

    # Noise is drawn for up to chunk_steps steps at once into one reused
    # (R, chunk_steps, n_params) buffer, within _NOISE_CHUNK_VALUES in all.
    # Seed r's generator fills buf[r, :n]: a draw of shape (n, n_params)
    # yields the same normals in the same order as n draws of n_params, and a
    # step's row splits into the blocks in block order.
    chunk_values = _NOISE_CHUNK_VALUES // (n_seeds * n_params)
    chunk_steps = min(_NOISE_CHUNK_STEPS, max(1, chunk_values))
    noise_buf = np.empty((n_seeds, chunk_steps, n_params))

    eval_every = config.eval_every
    n_rows = sum(len(range(0, s.iters, eval_every)) for s in segments)
    cols = {
        name: np.empty((n_seeds, n_rows), dtype=int if name in _INT_COLUMNS else float)
        for name in RUNLOG_CSV_HEADER
    }
    columns = list(cols.values())
    grads = [[] for _ in seeds] if config.store_gradients else None

    violations = [0] * n_seeds
    first_violation = [None] * n_seeds
    checked = [0] * n_seeds

    # Per block, the nuclear norms of m that a spectral step returns.
    nuclear = [None] * n_blocks
    # The buffers are updated in place, so the views of each seed's blocks
    # (zip(*blocks) yields them seed by seed) stay valid.
    x_seeds = list(zip(*x))
    disp_seeds = list(zip(*disp))
    # Per-seed lists of per-block primal norms of x, kept until x moves: the
    # arming test and the checker compute them, and the next recorded row
    # reads them.
    x_norms = None

    def primal_norms(per_seed):
        return [[block_primal_norm(b, kind) for b, kind in zip(blocks, kinds)] for blocks in per_seed]

    row = 0
    k_global = 0
    is_scg = config.variant == "scg"
    loss_fn, grad_fn = problems.compiled(spec, n_seeds)
    for seg in segments:
        sigma_pc = problems.per_coordinate_sigma(spec, seg.noise)
        c_1ma.fill(1.0 - seg.alpha)
        c_alpha.fill(seg.alpha)
        # The iterate-bound checker needs a constant stepsize with
        # beta = c/K, K >= 2c (i.e. beta <= 1/2) and 2||x0|| <= eta per block;
        # it is armed per seed.
        armed = []
        if (
            config.check_invariants
            and is_scg
            and isinstance(seg.schedule, ConstantBeta)
            and seg.schedule.value <= 0.5
        ):
            if x_norms is None:
                x_norms = primal_norms(x_seeds)
            armed = [
                r for r in range(n_seeds)
                if all(2.0 * nrm <= eta for nrm, eta in zip(x_norms[r], radii))
            ]
        check = bool(armed)
        contraction = 1.0  # (1 - beta)^k, tracked while the checker is armed
        for k_local, beta_k in enumerate(_betas(seg.schedule, seg.iters)):
            record = (k_local % eval_every) == 0
            if record:
                loss_k = [loss_fn(blocks) for blocks in x_seeds]
                if x_norms is None:
                    x_norms = primal_norms(x_seeds)
                x_primal_k = [max(norms) for norms in x_norms]
            grad_fn(x, g)
            if sigma_pc > 0.0:
                j = k_local % chunk_steps
                if j == 0:
                    n = min(chunk_steps, seg.iters - k_local)
                    for rng, buf in zip(rngs, noise_buf):
                        rng.standard_normal(out=buf[:n])
                    noise_buf[:, :n] *= sigma_pc
                gf += noise_buf[:, j]
            if grads is not None:
                for seed_grads, blocks in zip(grads, zip(*g)):
                    seed_grads.append(LayeredPoint.from_arrays(names, [b.copy() for b in blocks]))
            if record:
                g_dual_k = [composite_dual_norm(blocks, kinds) for blocks in zip(*g)]
            if k_global > 0:
                mf *= c_1ma
                gf *= c_alpha
                mf += gf
            elif config.momentum_init == "first_sample":
                np.copyto(mf, gf)
            else:
                np.multiply(gf, c_alpha, out=mf)

            need_disp = record or check
            if need_disp:
                np.copyto(df, xf)
            if beta_k != beta_filled:
                keep, step_scale = (1.0 - beta_k, beta_k) if is_scg else (1.0, 1.0)
                c_keep.fill(keep)
                for sb, eta in zip(scale, radii):
                    sb.fill(step_scale * eta)
                beta_filled = beta_k
            xf *= c_keep
            for i in range(n_blocks):
                nuclear[i] = _step_block(x[i], m[i], kinds[i], scale[i], scratch[i])
            x_norms = None
            if record:
                # The composite dual norm of m, summed in block order; the
                # spectral terms are the nuclear norms from the step's SVD.
                m_dual_k = [
                    sum(block_dual_norm(mb[r], kind) if nb is None else nb[r]
                        for mb, kind, nb in zip(m, kinds, nuclear))
                    for r in range(n_seeds)
                ]
            if need_disp:
                np.subtract(xf, df, out=df)
                disp_norms = primal_norms(disp_seeds)

            if check:
                contraction *= 1.0 - beta_k  # now (1 - beta)^(k+1)
                x_norms = primal_norms(x_seeds)
                for r in armed:
                    checked[r] += 1
                    for eta, x_norm, d, name in zip(radii, x_norms[r], disp_norms[r], names):
                        x_bound = eta * (1.0 - 0.5 * contraction) + _INVARIANT_SLACK
                        if not (x_norm <= x_bound and d <= 2.0 * beta_k * eta + _INVARIANT_SLACK):
                            violations[r] += 1
                            if first_violation[r] is None:
                                first_violation[r] = (
                                    f"step {k_global} block {name}: "
                                    f"|x|={x_norm:.6g} bound={x_bound:.6g} "
                                    f"disp={d:.6g} disp_bound={2.0 * beta_k * eta:.6g}"
                                )

            if record:
                values = (  # in RUNLOG_CSV_HEADER order, a value or one per seed
                    k_global, loss_k, x_primal_k, g_dual_k, m_dual_k, beta_k,
                    [max(norms) for norms in disp_norms], seg.stage_index,
                )
                for col, value in zip(columns, values):
                    col[:, row] = value
                row += 1
            k_global += 1

    logs = []
    for r, blocks in enumerate(x_seeds):
        final_loss = float(loss_fn(blocks))
        seed_cols = {name: col[r] for name, col in cols.items()}
        if not (
            math.isfinite(final_loss) and all(np.all(np.isfinite(c)) for c in seed_cols.values())
        ):
            raise FloatingPointError(
                f"the run diverged: final loss {final_loss}, or a recorded loss or norm, "
                "is not finite"
            )
        logs.append(RunLog(
            **seed_cols,
            final_loss=final_loss,
            final_x=LayeredPoint.from_arrays(names, [b.copy() for b in blocks]),
            invariant_violations=violations[r],
            first_violation=first_violation[r],
            checked_steps=checked[r],
            gradients=None if grads is None else grads[r],
        ))
    return logs


class _SeedLogs(list):
    """The RunLogs of runs that stepped together, one per seed in seed order.

    checked_steps and invariant_violations total those of the runs, so that
    code reading them off the result of run or run_staged reads a batch the
    way it reads a lone run.
    """

    @property
    def checked_steps(self) -> int:
        return sum(log.checked_steps for log in self)

    @property
    def invariant_violations(self) -> int:
        return sum(log.invariant_violations for log in self)


def run(spec, config: ScgConfig, x0: Optional[LayeredPoint] = None, seeds=None):
    """Execute the iteration for config.iters steps; deterministic given seed.

    The momentum buffer is seeded with the first gradient sample unless the
    config selects zero initialization. Given seeds, one run per seed steps
    in the same loop (config.seed is not read), and the result is the list of
    their RunLogs in seed order, each bit-equal to a lone run with that seed.
    """
    if seeds is None:
        return _run_segments(spec, config, [config.seed], x0=x0)[0]
    return _SeedLogs(_run_segments(spec, config, seeds, x0=x0))


def run_staged(
    spec,
    plan: StagePlan,
    base_config: ScgConfig,
    x0: Optional[LayeredPoint] = None,
    seeds=None,
):
    """Run the stages of a plan sequentially, carrying the iterate across
    boundaries.

    Each stage swaps in its own (B, S, beta, alpha); the momentum buffer is
    carried over. The random stream continues
    across boundaries, so equal consecutive stages concatenate exactly.
    seeds works as in run.
    """
    if seeds is None:
        return _run_segments(spec, base_config, [base_config.seed], plan, x0)[0]
    return _SeedLogs(_run_segments(spec, base_config, seeds, plan, x0))
