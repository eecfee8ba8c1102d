"""Norm geometries over layered parameter spaces.

Each parameter block carries one of three geometries: sign (entrywise max
norm), spectral (operator norm of a matrix), or euclidean (l2). The composite
primal norm of a layered point is the max of the per-block primal norms; the
composite dual norm is the sum of the per-block dual norms. Linear
minimization oracles (LMOs) over the per-block unit balls drive the
conditional-gradient update: sign of the buffer for sign blocks, polar factor
for spectral blocks, normalized buffer for euclidean blocks. _step_block
takes that step in place on the blocks of a run; lmo_block is its one-block
view.

Everything here but _step_block, which writes into the arrays it is given, is
a pure function over value inputs with no shared mutable state, so concurrent
calls are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

_TINY = np.finfo(float).tiny

__all__ = [
    "GeometryKind",
    "BlockGeometry",
    "LayeredPoint",
    "block_primal_norm",
    "block_dual_norm",
    "composite_dual_norm",
    "lmo_block",
    "newton_schulz_polar",
    "NS_CUBIC",
    "NS_QUINTIC",
]


class GeometryKind(str, Enum):
    SIGN = "sign"
    SPECTRAL = "spectral"
    EUCLIDEAN = "euclidean"


@dataclass(frozen=True)
class BlockGeometry:
    """Norm geometry and constraint radius of one parameter block.

    Spectral blocks must be 2-D; sign and euclidean blocks accept any shape.
    """

    kind: GeometryKind
    shape: tuple[int, ...]
    radius_eta: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "kind", GeometryKind(self.kind))
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))
        if any(s <= 0 for s in self.shape) or not self.shape:
            raise ValueError(f"block shape must have positive dims, got {self.shape}")
        if self.kind is GeometryKind.SPECTRAL and len(self.shape) != 2:
            raise ValueError(f"spectral geometry requires a 2-D shape, got {self.shape}")
        if not (self.radius_eta > 0 and math.isfinite(self.radius_eta)):
            raise ValueError(f"radius_eta must be positive, got {self.radius_eta}")

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    def dual_gain(self) -> float:
        """Largest ratio of the block dual norm to the block l2 norm.

        sign: sqrt(n) (l1 vs l2), spectral: sqrt(min(rows, cols)) (nuclear vs
        Frobenius), euclidean: 1; the square root of lipschitz_gain.
        """
        return math.sqrt(self.lipschitz_gain())

    def lipschitz_gain(self) -> float:
        """Largest ratio of the block dual norm to the block primal norm."""
        if self.kind is GeometryKind.SIGN:
            return float(self.size)  # l1 vs max norm
        if self.kind is GeometryKind.SPECTRAL:
            return float(min(self.shape))  # nuclear vs operator norm
        return 1.0

    def max_l2_distance(self, theta: np.ndarray) -> float:
        """Max l2 distance from theta over the block's primal ball of radius eta."""
        if self.kind is GeometryKind.SIGN:
            return float(np.linalg.norm(np.abs(theta) + self.radius_eta))
        # The ball's point of largest l2 norm lies dual_gain * eta from 0.
        return float(np.linalg.norm(theta)) + self.radius_eta * self.dual_gain()


class LayeredPoint:
    """An ordered collection of named dense blocks.

    Block names must be unique and all entries finite. Arithmetic needed by
    callers goes through plain numpy on ``.arrays``; this class is a thin,
    validated container.
    """

    __slots__ = ("names", "arrays")

    def __init__(self, blocks: Sequence[tuple[str, np.ndarray]]):
        names = tuple(str(n) for n, _ in blocks)
        if len(set(names)) != len(names):
            raise ValueError(f"block names must be unique, got {names}")
        arrays = []
        for name, values in blocks:
            arr = np.asarray(values, dtype=float)
            if not np.isfinite(arr).all():
                raise ValueError(f"block {name!r} contains non-finite entries")
            arrays.append(arr)
        self.names = names
        self.arrays = arrays

    @classmethod
    def from_arrays(cls, names, arrays) -> "LayeredPoint":
        return cls(list(zip(names, arrays)))

    @classmethod
    def zeros(cls, names, geometry: Sequence[BlockGeometry]) -> "LayeredPoint":
        return cls([(n, np.zeros(g.shape)) for n, g in zip(names, geometry)])

    def flatten(self) -> np.ndarray:
        return np.concatenate([a.ravel() for a in self.arrays])

    def __eq__(self, other):
        if not isinstance(other, LayeredPoint):
            return NotImplemented
        return self.names == other.names and all(
            a.shape == b.shape and np.array_equal(a, b)
            for a, b in zip(self.arrays, other.arrays)
        )

    def __repr__(self):
        parts = ", ".join(f"{n}:{a.shape}" for n, a in zip(self.names, self.arrays))
        return f"LayeredPoint({parts})"


def _rows(values: np.ndarray) -> np.ndarray:
    """The (N, size) rows of a stack (N, *shape), or the one row of a 1-D block."""
    values = np.atleast_2d(values)
    return values.reshape(len(values), math.prod(values.shape[1:]))


def _sum_squares(rows: np.ndarray) -> np.ndarray:
    """Each row's sum of squares: a matmul with a column on the right, one dot
    product per row, the bits of np.dot of the row with itself."""
    return np.matmul(rows[:, None, :], rows[:, :, None]).ravel()


def block_primal_norm(values: np.ndarray, kind: GeometryKind) -> np.ndarray:
    """The primal norms of a stack (N, *shape) of N blocks of one kind, each
    with the bits of its block's norm alone: each block reduces on its own,
    and the SVD runs matrix by matrix. A 1-D values, or a 2-D spectral one, is one block."""
    if kind is GeometryKind.SPECTRAL:
        return np.linalg.svd(values, compute_uv=False)[..., 0]
    rows = _rows(values)
    return np.abs(rows).max(axis=1) if kind is _SIGN else np.sqrt(_sum_squares(rows))


def block_dual_norm(values: np.ndarray, kind: GeometryKind) -> np.ndarray:
    """The dual norms of a stack of blocks, as block_primal_norm takes the primal ones."""
    if kind is GeometryKind.SPECTRAL:
        return np.linalg.svd(values, compute_uv=False).sum(-1)
    rows = _rows(values)
    return np.abs(rows).sum(axis=1) if kind is _SIGN else np.sqrt(_sum_squares(rows))


def composite_dual_norm(stacks, kinds) -> np.ndarray:
    """Dual norms of N layered points given as block stacks (N, *shape) and kinds:
    the sums of the block dual norms in block order, as the dual of a max is the sum."""
    return sum(block_dual_norm(a, kind) for a, kind in zip(stacks, kinds))


# Newton-Schulz coefficients (a, b, c), applied each iteration as
# X <- a X + b (X X^T) X + c (X X^T)^2 X. The cubic set keeps all singular
# values of the iterate inside [0, 1]; the quintic set converges faster but
# can transiently overshoot 1.
NS_CUBIC = (1.5, -0.5, 0.0)
NS_QUINTIC = (3.4445, -4.7750, 2.0315)

_FROBENIUS_EPS = 1e-7


def newton_schulz_polar(
    M: np.ndarray, iters: int = 5, coefficients: tuple[float, float, float] = NS_CUBIC
) -> np.ndarray:
    """Approximate the polar factor of a matrix by a Newton-Schulz iteration.

    The input is normalized by its Frobenius norm (plus a small epsilon) so
    the iteration starts inside its convergence basin; singular values are
    driven toward 1. Wide/tall handling is transpose-consistent.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {M.shape}")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    fro = float(np.linalg.norm(M))
    if fro == 0.0:
        raise ValueError("polar factor of the zero matrix is undefined")
    transposed = M.shape[0] > M.shape[1]
    X = (M.T if transposed else M) / (fro + _FROBENIUS_EPS)
    a, b, c = coefficients
    for _ in range(iters):
        A = X @ X.T
        B = b * A
        if c != 0.0:
            B = B + c * (A @ A)
        X = a * X + B @ X
    return X.T if transposed else X


def lmo_block(values: np.ndarray, kind: GeometryKind):
    """(d, n): the minimizer d of <values, d> over the unit ball of the block
    norm, and the block's dual norm n = -<values, d>.

    A sign or euclidean d is the one-block view of _step_block, the step that
    runs take: the step from zero at unit scale. A zero block returns the
    zero block: any feasible point minimizes the trivial objective and zero
    avoids a spurious step. So does a euclidean block with a NaN, as a run
    does not step on one. A spectral d is the exact polar factor, and the
    block may be a stack (R, rows, cols) of matrices: one SVD call covers the
    stack, each matrix gets its own polar factor (singular values below
    1e-12 of its largest are dropped, so a zero matrix gets zero), and n is
    the array of their nuclear norms, taken from the same SVD.
    """
    if kind is not GeometryKind.SPECTRAL:
        d = np.zeros((1,) + np.shape(values))
        _step_block(d, np.asarray(values)[None], kind, np.ones_like(d), np.empty_like(d))
        return d[0], float(block_dual_norm(np.asarray(values)[None], kind)[0])
    U, s, Vt = np.linalg.svd(values, full_matrices=False)
    keep = s > 1e-12 * s[..., :1]
    d = (U * keep[..., None, :]) @ Vt
    return np.negative(d, out=d), s.sum(-1)


# Bound once: looking up an Enum member costs more than the identity test
# against it, and the block update does that test every step.
_SIGN, _EUCLIDEAN = GeometryKind.SIGN, GeometryKind.EUCLIDEAN


def _step_block(xb, mb, kind, scale, scratch):
    """In place, xb[r] <- xb[r] + scale[r] * lmo(mb[r]) for every seed r.

    xb, mb, scale and scratch hold one block per seed, stacked as (R, *shape);
    scale[r] holds one value. Sign and euclidean directions are formed in
    scratch, so those blocks allocate nothing per step. A euclidean step is
    xb[r] - scale[r] * mb[r] / ||mb[r]||, and a zero or NaN mb[r] leaves xb[r]
    as it is. A spectral block takes one lmo_block call for the whole stack,
    and the step returns the R nuclear norms of mb that its SVD gives; other
    kinds return None. Each seed's result is bit-equal to stepping its block
    alone: the sums of squares are one dot product per seed, and the SVD and
    the polar product run matrix by matrix.
    """
    if kind is _SIGN:
        np.sign(mb, scratch)
        scratch *= scale
        xb -= scratch
    elif kind is _EUCLIDEAN:
        sq = _sum_squares(mb.reshape(len(mb), -1))
        if sq.min() >= _TINY:  # False for a NaN too
            factor = scale.reshape(len(mb), -1)[:, 0] / np.sqrt(sq)
            np.multiply(mb, factor.reshape((-1,) + (1,) * (mb.ndim - 1)), out=scratch)
            xb -= scratch
            return
        # Some seed's block is tiny, zero or not finite: seed by seed. Below
        # the smallest normal float the squares have lost precision or
        # underflowed to zero, so mb / max|mb| takes the place of mb: the same
        # direction, with a sum of squares of at least 1.
        for xr, mr, cr, sr, sq_r in zip(xb, mb, scale, scratch, sq):
            if not sq_r >= _TINY:  # also for a NaN
                peak = np.max(np.abs(mr))
                if not peak > 0.0:
                    continue
                mr = mr / peak
                sq_r = np.vdot(mr, mr)
            np.multiply(mr, cr.item(0) / math.sqrt(sq_r), out=sr)
            xr -= sr
    else:
        d, nuclear = lmo_block(mb, kind)
        np.multiply(d, scale, out=scratch)
        xb += scratch
        return nuclear
