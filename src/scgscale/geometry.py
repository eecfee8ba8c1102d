"""Norm geometries over layered parameter spaces.

Each parameter block carries one of three geometries: sign (entrywise max
norm), spectral (operator norm of a matrix), or euclidean (l2). The composite
primal norm of a layered point is the max of the per-block primal norms; the
composite dual norm is the sum of the per-block dual norms. Linear
minimization oracles (LMOs) over the per-block unit balls drive the
conditional-gradient update: sign of the buffer for sign blocks, polar factor
for spectral blocks, normalized buffer for euclidean blocks.

Everything here is a pure function over value inputs with no shared mutable
state, so concurrent calls are safe.
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
    "exact_polar",
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
        return int(np.prod(self.shape))

    def dual_gain(self) -> float:
        """Largest ratio of the block dual norm to the block l2 norm.

        sign: sqrt(n) (l1 vs l2), spectral: sqrt(min(rows, cols)) (nuclear vs
        Frobenius), euclidean: 1.
        """
        if self.kind is GeometryKind.SIGN:
            return math.sqrt(self.size)
        if self.kind is GeometryKind.SPECTRAL:
            return math.sqrt(min(self.shape))
        return 1.0

    def lipschitz_gain(self) -> float:
        """Largest ratio of the block dual norm to the block primal norm."""
        if self.kind is GeometryKind.SIGN:
            return float(self.size)  # l1 vs max norm
        if self.kind is GeometryKind.SPECTRAL:
            return float(min(self.shape))  # nuclear vs operator norm
        return 1.0


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
            if not np.all(np.isfinite(arr)):
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


def block_primal_norm(values: np.ndarray, kind: GeometryKind) -> float:
    if kind is GeometryKind.SIGN:
        return float(np.max(np.abs(values)))
    if kind is GeometryKind.SPECTRAL:
        return float(np.linalg.svd(values, compute_uv=False)[0])
    return float(np.linalg.norm(values.ravel()))


def scaled_l2_norm(values: np.ndarray) -> tuple[np.ndarray, float]:
    """(v, n): a positive multiple v of the block and its l2 norm n.

    v is the block itself unless the sum of squares falls below the smallest
    normal float, where the squares have lost precision or underflowed to
    zero; then v is the block divided by max|values|. Either way v / n is the
    unit vector along the block, and n is 0 only for a zero block.
    """
    sq = float(np.vdot(values, values))
    if sq >= _TINY:
        return values, math.sqrt(sq)
    peak = float(np.max(np.abs(values)))
    if peak == 0.0:
        return values, 0.0
    scaled = values / peak
    return scaled, math.sqrt(float(np.vdot(scaled, scaled)))


def block_dual_norm(values: np.ndarray, kind: GeometryKind) -> float:
    if kind is GeometryKind.SIGN:
        return float(np.sum(np.abs(values)))
    if kind is GeometryKind.SPECTRAL:
        return float(np.sum(np.linalg.svd(values, compute_uv=False)))
    return float(np.linalg.norm(values.ravel()))


def composite_dual_norm(arrays, kinds) -> float:
    """Dual norm of a layered point given as its block arrays and their kinds:
    the sum of the block dual norms, as the dual of a max is the sum."""
    return sum(block_dual_norm(a, kind) for a, kind in zip(arrays, kinds))


# Newton-Schulz coefficient sets: (a, b, c) applied each iteration as
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


def exact_polar(M: np.ndarray) -> np.ndarray:
    """Exact polar factor U V^T from an SVD (test oracle for the LMO).

    Directions with negligible singular value are dropped, so the result is
    supported on the row/column space of the input, matching the rank
    preservation of the Newton-Schulz iteration.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {M.shape}")
    if not np.any(M):
        raise ValueError("polar factor of the zero matrix is undefined")
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    keep = s > 1e-12 * s[0]
    return U[:, keep] @ Vt[keep]


def lmo_block(
    values: np.ndarray,
    kind: GeometryKind,
    spectral_method: str = "exact",
    ns_iters: int = 5,
    ns_coefficients: tuple[float, float, float] = NS_CUBIC,
) -> np.ndarray:
    """Minimizer of <values, d> over the unit ball of the block norm.

    A zero block returns the zero block: any feasible point minimizes the
    trivial objective and zero avoids a spurious step.
    """
    if not np.any(values):
        return np.zeros_like(values)
    if kind is GeometryKind.SIGN:
        return -np.sign(values)
    if kind is GeometryKind.EUCLIDEAN:
        v, nrm = scaled_l2_norm(values)
        return -v / nrm
    if spectral_method == "exact":
        return -exact_polar(values)
    if spectral_method == "newton_schulz":
        return -newton_schulz_polar(values, iters=ns_iters, coefficients=ns_coefficients)
    raise ValueError(f"unknown spectral_method {spectral_method!r}")
