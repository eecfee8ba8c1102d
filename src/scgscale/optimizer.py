"""Momentum conditional-gradient iteration loops and trajectory logging.

The constrained variant mixes the iterate convexly with a radius-scaled LMO
direction, x <- (1 - beta) x + beta eta d; the unconstrained variant takes
additive steps x <- x + eta d. Both share the same momentum buffer update
m <- (1 - alpha) m + alpha g.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass, fields, replace
from typing import Optional, Union

import numpy as np

from .geometry import LayeredPoint, block_dual_norm, block_primal_norm, composite_dual_norm, _step_block
from . import problems
from .scaling import StagePlan

__all__ = [
    "ConstantBeta",
    "WarmdownBeta",
    "ScgConfig",
    "RunLog",
    "run",
    "run_staged",
    "RUNLOG_CSV_HEADER",
]

_FLOAT_FMT = "{:.17g}"
_INVARIANT_SLACK = 1e-9
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
    beta: Union[ConstantBeta, WarmdownBeta]
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
        for name in ("iters", "seed", "eval_every"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.iters < 0:
            raise ValueError(f"iters must be nonnegative, got {self.iters}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if self.momentum_init not in ("first_sample", "zeros"):
            raise ValueError(f"unknown momentum_init {self.momentum_init!r}")
        if self.radii is not None:
            object.__setattr__(self, "radii", tuple(float(r) for r in self.radii))
            if not all(0 < r < math.inf for r in self.radii):
                raise ValueError(f"all radii must be positive and finite, got {self.radii}")
        if isinstance(self.beta, WarmdownBeta) and self.beta.total_steps < self.iters:
            raise ValueError(
                f"warmdown schedule covers {self.beta.total_steps} steps "
                f"but the run takes iters={self.iters}"
            )


RUNLOG_CSV_HEADER = ["k", "loss", "x_primal", "g_dual", "m_dual", "beta", "step_disp", "stage"]


@dataclass
class RunLog:
    """Per-iteration trajectory records plus the final state.

    Rows are recorded every ``eval_every`` steps: step index, exact loss and
    composite primal norm of the pre-update iterate, composite dual norms of
    the gradient sample and momentum buffer, the stepsize used, the composite
    primal norm of the step displacement, and the stage index. gradients holds
    each step's stored gradient sample, one (K, *shape) stack per block.
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
    gradients: Optional[list[np.ndarray]] = None

    def __len__(self):
        return len(self.k)

    def to_csv(self, path_or_buf) -> None:
        columns = (getattr(self, name).tolist() for name in RUNLOG_CSV_HEADER)
        _write_csv(path_or_buf, RUNLOG_CSV_HEADER, zip(*columns))


def _write_csv(path_or_buf, header, rows) -> None:
    """Write header and rows to a path or an open text file: floats with 17
    significant digits, so that they read back bit-equal, None as an empty
    cell and anything else as it is."""
    if not hasattr(path_or_buf, "write"):
        with open(path_or_buf, "w", newline="") as fh:
            return _write_csv(fh, header, rows)
    writer = csv.writer(path_or_buf)
    writer.writerow(header)
    writer.writerows(
        ["" if v is None else _FLOAT_FMT.format(v) if isinstance(v, float) else v for v in row]
        for row in rows
    )


@dataclass(frozen=True)
class _Segment:
    iters: int
    # The stepsizes are the (R,) constant betas of the rows, or one warmdown
    # for every row; alpha is (R, 1) and sigma, the per-coordinate noise std,
    # (R, 1, 1).
    schedule: Union[np.ndarray, WarmdownBeta]
    alpha: np.ndarray
    sigma: np.ndarray
    stage_index: int


def _beta(schedule, k: int):
    """The stepsize of step k of a segment: its per-row betas, or its warmdown's."""
    if isinstance(schedule, np.ndarray):
        return schedule
    gamma, n, m = schedule.gamma, schedule.total_steps, schedule.warmdown_steps
    return gamma if k < n - m else gamma * (n - k) / m


def _segments(spec, configs, plan: Optional[StagePlan], noises) -> list[_Segment]:
    n = len(configs)
    if plan is not None:
        segments = []
        for idx, stage in enumerate(plan.stages):
            if stage.iters < 1:
                raise ValueError(
                    f"stage {idx} allots {stage.token_allotment} tokens but needs "
                    f"at least B*S = {stage.B * stage.S}"
                )
            sigma = problems.per_coordinate_sigma(spec, replace(spec.noise, B=stage.B, S=stage.S))
            segments.append(_Segment(stage.iters, np.full(n, stage.beta), np.full((n, 1), stage.alpha),
                                     np.full((n, 1, 1), sigma), idx))
        return segments
    first = configs[0]
    schedule = first.beta
    if all(isinstance(c.beta, ConstantBeta) for c in configs):
        schedule = np.array([c.beta.value for c in configs])
    elif any(c.beta != schedule for c in configs):
        raise ValueError(f"the rows of one stack share one warmdown, got {[c.beta for c in configs]}")
    noises = noises or [spec.noise] * n
    sigma = np.array([problems.per_coordinate_sigma(spec, nm) for nm in noises])
    alpha = np.array([c.alpha for c in configs])
    return [_Segment(first.iters, schedule, alpha[:, None], sigma[:, None, None], 0)]


def _run_segments(spec, configs, plan: Optional[StagePlan] = None,
                  x0: Optional[LayeredPoint] = None, noises=None):
    """One run per config in configs, its rows, stepped together as one stack.

    Row r runs configs[r] (or the stages of plan, as run_staged) with the
    noise of spec at noises[r] (spec.noise when noises is None), from x0. The
    rows may differ in seed, iters, alpha, constant beta and noise, and a row
    may have none; the rows of one stack share one warmdown and every other
    setting (ValueError otherwise). Every block is held as an (R, *shape)
    array for the R rows, and row r draws its noise from its own generator
    seeded with configs[r].seed. So its RunLog is bit-equal to that of a
    lone run of configs[r]: the ops are elementwise, or run row by row (the
    oracle's matrix-vector products, the euclidean norms, the SVD).

    Without a plan the rows come longest first. Per-row state lives in
    arrays of all R rows, read on the leading rows still running; when a
    row's iters end it retires, and bind remakes the views of the flat
    arrays, at most once per distinct iters. Step 0 and the steps that
    record, check, store, refill noise, change beta or retire are event
    steps; any other step costs one integer comparison beside its update.
    A step that records or checks only copies its rows' x, displacement, g
    and m into snapshot buffers, and settle takes the losses, norms and bound
    tests of a chunk of such steps with one stacked call per block and
    quantity. Each iterate is factored once.

    Returns the RunLogs in row order. A row becomes Python objects only in
    finish, where one finiteness test over its final loss, final iterate,
    recorded values and stored gradients decides divergence: a diverged row
    raises nothing here, and its RunLog has final_x and gradients None.
    """
    if len(configs) == 0:
        raise ValueError("seeds must name at least one seed")
    first = configs[0]
    if len(configs) > 1:
        differ = [f.name for f in fields(ScgConfig) if f.name not in ("alpha", "beta", "iters", "seed")
                  and len({getattr(c, f.name) for c in configs}) > 1]
        if differ:
            raise ValueError(f"the rows of a stack differ in {', '.join(differ)}; they may differ "
                             "only in seed, iters, alpha and beta")
    segments = _segments(spec, configs, plan, noises)
    for s in segments:  # the row tables below are sized from the step counts
        if s.iters > sys.maxsize:
            raise OverflowError(
                f"stage {s.stage_index} takes {s.iters:.4g} steps, too large for one run")
    total = sum(s.iters for s in segments)
    row_iters = [total] * len(configs) if plan is not None else [c.iters for c in configs]
    if row_iters != sorted(row_iters, reverse=True):
        raise ValueError("the rows of a stack must come longest first")
    geometry = spec.geometry
    names = spec.block_names
    radii = [g.radius_eta for g in geometry] if first.radii is None else first.radii
    if len(radii) != len(geometry):
        raise ValueError("radii must be parallel to the block list")
    kinds = [g.kind for g in geometry]
    n_blocks = len(geometry)
    n_seeds = len(configs)

    if x0 is not None:
        problems.check_point(spec, x0)

    # Each per-step quantity is one (R, n_params) array, row r's blocks side by
    # side in row r: elementwise stages run on it once per step, and the LMO
    # and the loss get (R, *shape) block views. Step constants are such
    # arrays too, as numpy converts a Python float operand on every call.
    # The eight are x, g, m, scratch, the step scale, 1 - alpha, alpha and the
    # kept share of x. The step scale is the stepsize (1 for uscg) times
    # radius_row, each block's radius over its entries.
    sizes = [g.size for g in geometry]
    n_params = sum(sizes)
    offsets = np.cumsum([0] + sizes)
    spans = list(zip(offsets, offsets[1:]))
    radius_row = np.repeat(radii, sizes)
    flats = np.empty((8, n_seeds, n_params))
    flats[0] = 0.0 if x0 is None else x0.flatten()
    beta_rows = np.empty(n_seeds)

    rngs = [np.random.default_rng(c.seed) for c in configs]

    # Noise is drawn for up to chunk_steps steps at once into one reused
    # (R, chunk_steps, n_params) buffer, within _NOISE_CHUNK_VALUES in all.
    # Row r's generator fills buf[r, :n]: a draw of shape (n, n_params)
    # yields the same normals in the same order as n draws of n_params, and a
    # step's row splits into the blocks in block order. A row that retires
    # mid-chunk leaves the rest of its draw unread.
    chunk_values = _NOISE_CHUNK_VALUES // (n_seeds * n_params)
    chunk_steps = min(_NOISE_CHUNK_STEPS, max(1, chunk_values))
    noise_buf = np.empty((n_seeds, chunk_steps, n_params))

    # Snapped step j writes xs[j] and ds[j], a recorded one the next slots of
    # gs and ms: cap steps each, and one more x for a checked chunk's result.
    cap = max(1, (chunk_values - 1) // 4)
    snap_buf = np.empty((4 * cap + 1) * n_seeds * n_params)

    eval_every = first.eval_every
    n_rows = sum(len(range(0, s.iters, eval_every)) for s in segments)
    columns = [  # in RUNLOG_CSV_HEADER order, one row per stack row
        np.empty((n_seeds, n_rows), dtype=int if name in ("k", "stage") else float)
        for name in RUNLOG_CSV_HEADER
    ]
    # Row r's gradient sample of step k is grads[r, k], kept only when stored.
    store = first.store_gradients
    grads = np.empty((n_seeds, row_iters[0] if store else 0, n_params))
    counts = np.zeros((2, n_seeds), dtype=int)  # checked steps and violations
    first_violation = [None] * n_seeds
    logs = [None] * n_seeds

    def blocks(f):
        """The (N, *shape) block views of a flat (..., n_params) array of N rows."""
        f = f.reshape(-1, n_params)
        return [f[:, a:b].reshape((len(f),) + gb.shape, copy=False)
                for (a, b), gb in zip(spans, geometry)]

    def bind(n):
        """Make the views of the running rows 0 .. n-1 that a step reads, and
        the snapshot buffers of n rows. steps holds each block's index and its
        _step_block arguments: x, m, kind, scale and scratch."""
        nonlocal xf, gf, mf, sf, c_1ma, c_alpha, c_keep, x, steps, \
            noise_rows, loss_fn, grad_fn, xs, ds, gs, ms
        xf, gf, mf, sf, kf, c_1ma, c_alpha, c_keep = flats[:, :n]
        x = blocks(xf)
        steps = list(zip(range(n_blocks), x, blocks(mf), kinds, blocks(kf), blocks(sf)))
        noise_rows = list(noise_buf[:n].swapaxes(0, 1))
        slots = snap_buf[:(4 * cap + 1) * n * n_params].reshape(-1, n, n_params)
        xs, ds, gs, ms = np.split(slots, [cap + 1, 2 * cap + 1, 3 * cap + 1])
        loss_fn, grad_fn = problems.compiled(spec, n)

    def finish(lo, hi):
        """Take the final losses and RunLogs of rows lo .. hi-1, which end here."""
        final = loss_fn([b[lo:hi] for b in x])
        finite = np.all(
            [np.isfinite(final), np.isfinite(xf[lo:hi]).all(axis=1),
             np.isfinite(grads[lo:hi, :row_iters[lo]]).all(axis=(1, 2))]
            + [np.isfinite(c[lo:hi, :row]).all(axis=1) for c in columns], axis=0)
        for r, ok, final_loss in zip(range(lo, hi), finite, final):
            logs[r] = RunLog(
                **{name: col[r, :row] for name, col in zip(RUNLOG_CSV_HEADER, columns)},
                final_loss=float(final_loss),
                final_x=LayeredPoint.from_arrays(names, [b[r].copy() for b in x]) if ok else None,
                invariant_violations=int(counts[1, r]),
                first_violation=first_violation[r],
                checked_steps=int(counts[0, r]),
                gradients=blocks(grads[r, :row_iters[r]].copy()) if store and ok else None,
            )

    xf = gf = mf = sf = c_1ma = c_alpha = c_keep = x = steps = None
    noise_rows = loss_fn = grad_fn = xs = ds = gs = ms = None
    bind(n_seeds)

    eta = np.array(radii)[:, None]  # (n_blocks, 1), against (n_blocks, n) norm tables
    nuclear = [None] * n_blocks  # per block, the nuclear norms of m that a spectral step returns
    snapped = []  # the step k of each snapped step of the chunk
    rec = []  # the slots j of the chunk's recorded steps in snapped
    nuclears = []  # the nuclear lists of the chunk's recorded steps
    x_norms = None  # the (n_blocks, n) primal norms of the chunk's first x, when known

    def norm_table(norm, slots):
        """The (n_blocks, S, n) norms of the blocks of S slots (S, n, n_params)."""
        return np.array([norm(b, kind) for b, kind in zip(blocks(slots), kinds)]).reshape(
            (n_blocks,) + slots.shape[:2])

    def settle():
        """Take the losses, norms and bound tests of the chunk's steps, write
        their rows, checker counts and first violations, and empty it."""
        nonlocal row, x_norms
        if not snapped:
            return
        n, n_snap = len(xf), len(snapped)
        ks = np.array(snapped)
        if check:  # the steps are consecutive: slot j + 1 holds step j's result
            xs[n_snap] = xf
        norms = norm_table(block_primal_norm, xs[x_norms is not None:n_snap + check])
        if x_norms is not None:
            norms = np.concatenate((x_norms[:, None], norms), axis=1)
        disp_norms = norm_table(block_primal_norm, ds[:n_snap])
        x_norms = norms[:, -1] if check else None
        if check:
            decay = np.full((n_snap, n), 1.0 - beta_rows[:n])  # (1 - beta)^(k+1)
            decay[0] *= contraction[:n]
            contraction[:n] = np.multiply.accumulate(decay, out=decay)[-1]
            x_bound = eta[:, None] * (1.0 - 0.5 * decay) + _INVARIANT_SLACK
            failed = armed[:n] & ~((norms[:, 1:] <= x_bound) & (
                disp_norms <= disp_bound[:, None, :n] + _INVARIANT_SLACK))
            counts[0, :n] += n_snap * armed[:n]
            counts[1, :n] += failed.sum(axis=(0, 1))
            for r in np.nonzero(failed.any(axis=(0, 1)))[0]:
                if first_violation[r] is None:
                    j, i = np.argwhere(failed[:, :, r].T)[0]  # the first step, then block
                    first_violation[r] = (
                        f"step {k0 + ks[j]} block {names[i]}: |x|={norms[i, j + 1, r]:.6g} "
                        f"bound={x_bound[i, j, r]:.6g} disp={disp_norms[i, j, r]:.6g} "
                        f"disp_bound={disp_bound[i, r]:.6g}")
        if rec:
            n_rec = len(rec)
            # A spectral step took the nuclear norms of m from its SVD.
            m_dual = sum(block_dual_norm(b, kind) if nuclear[i] is None
                         else np.ravel([ns[i] for ns in nuclears])
                         for i, (b, kind) in enumerate(zip(blocks(ms[:n_rec]), kinds)))
            values = (  # in RUNLOG_CSV_HEADER order, each one or n values per step
                k0 + ks[rec], loss_fn(blocks(xs[rec])), norms[:, rec].max(axis=0),
                composite_dual_norm(blocks(gs[:n_rec]), kinds), m_dual,
                np.reshape([_beta(seg.schedule, k) for k in ks[rec]], (n_rec, -1))[:, :n],
                disp_norms[:, rec].max(axis=0), [seg.stage_index] * n_rec)
            for col, value in zip(columns, values):
                col[:n, row:row + n_rec] = np.reshape(value, (n_rec, -1)).T
            row += n_rec
        snapped.clear()
        rec.clear()
        nuclears.clear()

    row = 0
    k0 = 0  # the global index of the segment's step 0
    is_scg = first.variant == "scg"
    multiply = np.multiply  # a local: the plain step reads it every step
    for seg in segments:
        np.subtract(1.0, seg.alpha, out=flats[5])
        flats[6] = seg.alpha
        # The iterate-bound checker needs a constant stepsize with
        # beta = c/K, K >= 2c (i.e. beta <= 1/2) and 2||x0|| <= eta per block;
        # it is armed per row, against the row's own (n_blocks, R) bounds.
        armed = np.zeros(n_seeds, dtype=bool)
        if first.check_invariants and is_scg and isinstance(seg.schedule, np.ndarray):
            if x_norms is None:
                x_norms = norm_table(block_primal_norm, xf[None])[:, 0]
            armed = np.all(2.0 * x_norms <= eta, axis=0) & (seg.schedule <= 0.5)
            disp_bound = 2.0 * seg.schedule * eta
            contraction = np.ones(n_seeds)  # (1 - beta)^k per row
        check = bool(armed.any())
        # From step tail on, a warmdown changes the stepsize at every step.
        tail = (seg.iters if isinstance(seg.schedule, np.ndarray)
                else seg.schedule.total_steps - seg.schedule.warmdown_steps)
        # A plain step records, checks, stores, refills and retires nothing,
        # and keeps beta: it runs only the update below. Every other step is
        # an event step, and each event step works out the next one.
        next_event = 0
        for k in range(seg.iters):
            event = k == next_event
            if event:
                k_global = k0 + k
                n = len(xf)  # the running rows are 0 .. n-1
                if k_global == row_iters[n - 1]:  # the last of them end here
                    settle()
                    n = sum(i > k_global for i in row_iters)
                    finish(n, len(xf))
                    bind(n)
                    x_norms = None if x_norms is None else x_norms[:, :n]
                if k == 0 or k >= tail:
                    # Filled for every row of the stack; the running rows read
                    # their leading part.
                    beta_rows[:] = _beta(seg.schedule, k)
                    step = beta_rows[:, None] if is_scg else 1.0
                    flats[7] = 1.0 - step if is_scg else 1.0
                    np.multiply(step, radius_row, out=flats[4])
                if k % chunk_steps == 0:
                    # A noiseless row draws nothing: its -0.0 times its sigma
                    # 0.0 is -0.0, and g + (-0.0) is g, bit for bit.
                    noise = noise_buf[:n, :min(chunk_steps, seg.iters - k)]
                    for rng, buf, sigma in zip(rngs, noise, seg.sigma.flat):
                        if sigma:
                            rng.standard_normal(out=buf)
                        else:
                            buf[...] = -0.0
                    noise *= seg.sigma[:n]
                if k_global == 0:
                    # (1 - alpha) (-0.0) + a g is a g, bit for bit: the update
                    # seeds m with the first sample (a = 1) or alpha times it.
                    mf[:] = -0.0
                    if first.momentum_init == "first_sample":
                        flats[6] = 1.0
                record = (k % eval_every) == 0
                if record or check:
                    xs[len(snapped)] = xf
                next_event = k + 1 if check or store else min(
                    k - k % eval_every + eval_every, k - k % chunk_steps + chunk_steps,
                    row_iters[n - 1] - k0, max(k + 1, tail))

            # The update; alpha g goes to the scratch row, so g keeps the sample.
            grad_fn(xf, gf)
            gf += noise_rows[k % chunk_steps]
            mf *= c_1ma
            multiply(gf, c_alpha, sf)
            mf += sf
            xf *= c_keep
            for i, xb, mb, kind, scale, scratch in steps:
                nuclear[i] = _step_block(xb, mb, kind, scale, scratch)

            if not event:
                continue
            if k_global == 0:
                flats[6] = seg.alpha
            if store:
                grads[:n, k_global] = gf
            if record or check:
                j = len(snapped)
                np.subtract(xf, xs[j], out=ds[j])
                if record:
                    gs[len(rec)], ms[len(rec)] = gf, mf
                    rec.append(j)
                    nuclears.append(nuclear.copy())
                snapped.append(k)
                if j + 1 == cap:
                    settle()
        settle()
        k0 += seg.iters

    finish(0, len(xf))
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


def _configs(config: ScgConfig, seeds):
    return [config] if seeds is None else [replace(config, seed=seed) for seed in seeds]


def _returned(logs, seeds):
    """What run and run_staged return for the RunLogs of their rows: the lone
    RunLog, or given seeds all of them. Raises the divergence error when a
    row diverged (its RunLog has no final_x)."""
    if any(log.final_x is None for log in logs):
        raise FloatingPointError(
            f"the run diverged: a final loss ({[log.final_loss for log in logs]}), the final "
            "iterate or a recorded loss or norm is not finite"
        )
    return logs[0] if seeds is None else _SeedLogs(logs)


def run(spec, config: ScgConfig, x0: Optional[LayeredPoint] = None, seeds=None):
    """Execute the iteration for config.iters steps; deterministic given seed.

    The momentum buffer is seeded with the first gradient sample unless the
    config selects zero initialization. Given seeds, one run per seed steps
    in the same loop (config.seed is not read), and the result is the list of
    their RunLogs in seed order, each bit-equal to a lone run with that seed.
    """
    return _returned(_run_segments(spec, _configs(config, seeds), x0=x0), seeds)


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
    return _returned(_run_segments(spec, _configs(base_config, seeds), plan, x0), seeds)
