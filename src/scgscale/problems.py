"""Synthetic stochastic objectives with controllable constants.

Two problem kinds: a layered quadratic whose smoothness, error-bound, and
norm-equivalence constants are analytic, and a logistic regression on
separable synthetic data whose constants must be estimated. Stochasticity is
additive isotropic Gaussian noise on the flattened gradient whose total
squared-norm variance is sigma_star^2 / (B * S), so batch size and sequence
length enter only through the noise scale and the token accounting
T = K * B * S is exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import lru_cache
from typing import Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from .geometry import (
    BlockGeometry,
    GeometryKind,
    LayeredPoint,
    block_primal_norm,
)
from .scaling import ProblemConstants

__all__ = [
    "NoiseModel",
    "LayeredQuadratic",
    "LogisticRegression",
    "ProblemSpec",
    "loss",
    "grad",
    "grad_sample",
    "known_constants",
    "per_coordinate_sigma",
    "compiled",
    "from_dict",
    "spec_from_dict",
]


@dataclass(frozen=True)
class NoiseModel:
    """Additive gradient-noise parameters.

    Per-sample noise has mean zero and total squared-Euclidean variance
    sigma_star^2 / (B * S), the variance the scaling law assumes.
    """

    sigma_star: float
    B: float = 1.0
    S: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.sigma_star and math.isfinite(self.sigma_star * self.sigma_star)):
            raise ValueError(f"sigma_star must be >= 0 with a finite square, got {self.sigma_star}")
        if not (1.0 <= self.B < math.inf and 1.0 <= self.S < math.inf):
            raise ValueError(f"B and S must be finite and >= 1, got {self}")

    def variance(self) -> float:
        return self.sigma_star**2 / (self.B * self.S)


@dataclass(frozen=True, eq=False)
class LayeredQuadratic:
    """f(x) = sum_l (lambda_l / 2) ||x_l - theta_l||_2^2 with f* = 0.

    Every target must be primal-feasible for its block radius so the optimum
    is reachable under the constrained update. Two quadratics are equal when
    their fields are, the targets compared by value; as the targets are
    arrays, a quadratic is not hashable.
    """

    kind = "layered_quadratic"

    geometry: tuple[BlockGeometry, ...]
    block_names: tuple[str, ...]
    curvatures: tuple[float, ...]
    targets: tuple[np.ndarray, ...]
    noise: NoiseModel
    flat_curvatures: np.ndarray = field(init=False, repr=False, compare=False)
    flat_targets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "geometry", tuple(self.geometry))
        object.__setattr__(self, "block_names", tuple(self.block_names))
        object.__setattr__(self, "curvatures", tuple(float(c) for c in self.curvatures))
        object.__setattr__(
            self, "targets", tuple(np.asarray(t, dtype=float) for t in self.targets)
        )
        n = len(self.geometry)
        if n == 0:
            raise ValueError("a layered quadratic needs at least one block")
        if not (len(self.block_names) == len(self.curvatures) == len(self.targets) == n):
            raise ValueError("geometry, names, curvatures, and targets must be parallel")
        if len(set(self.block_names)) != n:
            raise ValueError("block names must be unique")
        if not all(0.0 < c < math.inf for c in self.curvatures):
            raise ValueError(f"curvatures must be positive and finite, got {self.curvatures}")
        for name, t, g in zip(self.block_names, self.targets, self.geometry):
            if t.shape != g.shape:
                raise ValueError(f"target for block {name!r} has the wrong shape")
            if not block_primal_norm(t[None], g.kind)[0] <= g.radius_eta:
                raise ValueError(
                    f"target for block {name!r} is not finite or lies outside its "
                    "radius ball; the optimum would be unreachable"
                )
        # The oracle's (1, P) constants, each block's curvature and target raveled
        # in block order: a (P,) operand would cost each (1, P) ufunc a broadcast.
        sizes = [t.size for t in self.targets]
        object.__setattr__(self, "flat_curvatures", np.array(self.curvatures).repeat(sizes)[None])
        object.__setattr__(
            self, "flat_targets", np.concatenate([t.ravel() for t in self.targets])[None])

    @property
    def total_params(self) -> int:
        return sum(g.size for g in self.geometry)

    def losses(self, arrays) -> np.ndarray:
        """The loss_fn of compiled: each point's row is summed on its own."""
        total = 0.0
        for xb, lam, theta in zip(arrays, self.curvatures, self.targets):
            diff = (xb - theta).reshape(len(xb), -1)
            total += 0.5 * lam * np.sum(diff * diff, axis=1)
        return total

    def grad_fn(self, n_points: int):
        """The grad_fn of compiled, elementwise over the flat parameters."""
        lam, theta = self.flat_curvatures, self.flat_targets
        if n_points > 1:
            lam, theta = lam.repeat(n_points, axis=0), theta.repeat(n_points, axis=0)

        def grad_fn(xf, out):
            np.subtract(xf, theta, out)
            out *= lam
            return out

        return grad_fn

    def __eq__(self, other):
        if not isinstance(other, LayeredQuadratic):
            return NotImplemented
        return (self.geometry, self.block_names, self.curvatures, self.noise) == (
            other.geometry, other.block_names, other.curvatures, other.noise
        ) and all(np.array_equal(a, b) for a, b in zip(self.targets, other.targets))


@dataclass(frozen=True)
class LogisticRegression:
    """Mean logistic loss on synthetic linearly separable data.

    Features are rows of a fixed Gaussian design matrix (scaled to roughly
    unit row norm) and labels come from a planted separator, both generated
    deterministically from data_seed. margin_boost shifts every sample along
    the separator so all margins are at least that large; without it, near
    zero margin samples put a high floor under the constrained optimum.
    Constants are not analytic; use the estimation pipeline.
    """

    kind = "logistic_regression"

    geometry: tuple[BlockGeometry, ...]
    block_names: tuple[str, ...]
    n_samples: int
    dim: int
    data_seed: int
    noise: NoiseModel
    margin_boost: float = 0.0
    features: np.ndarray = field(init=False, repr=False, compare=False)
    labels: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "geometry", tuple(self.geometry))
        object.__setattr__(self, "block_names", tuple(self.block_names))
        if len(self.geometry) != 1 or len(self.block_names) != 1:
            raise ValueError("logistic regression uses a single weight block")
        g = self.geometry[0]
        if g.kind is not GeometryKind.EUCLIDEAN or g.shape != (self.dim,):
            raise ValueError("weight block must be euclidean with shape (dim,)")
        if self.n_samples < 1 or self.dim < 1:
            raise ValueError("n_samples and dim must be positive")
        if self.margin_boost < 0:
            raise ValueError("margin_boost must be nonnegative")
        data = _logistic_data(self.n_samples, self.dim, self.data_seed, self.margin_boost)
        object.__setattr__(self, "features", data[0])
        object.__setattr__(self, "labels", data[1])

    @property
    def total_params(self) -> int:
        return self.dim

    def losses(self, arrays) -> np.ndarray:
        """The loss_fn of compiled: one matrix-vector product per point."""
        z = self.labels * np.matmul(self.features, arrays[0][..., None])[..., 0]
        return np.mean(np.logaddexp(0.0, -z), axis=-1)

    def grad_fn(self, n_points: int):
        """The grad_fn of compiled: one matrix-vector product per point each way.

        The (R, n, 1) products are the one array a call allocates: the chain
        -(labels * (1 / (1 + exp(labels * products)))) / n runs in place on them.
        """
        features, n = self.features, self.n_samples
        labels = self.labels[None]  # (1, n), as one point's products
        if n_points > 1:
            labels = labels.repeat(n_points, axis=0)

        def grad_fn(xf, out):
            products = np.matmul(features, xf[..., None])
            p = products[..., 0]
            np.multiply(labels, p, p)
            np.exp(p, p)
            np.add(1.0, p, p)
            np.divide(1.0, p, p)  # sigmoid(-margin)
            np.multiply(labels, p, p)
            np.negative(p, p)
            np.divide(p, n, p)
            # The loss's derivative in the products, back through features.
            np.matmul(features.T, products, out=out[..., None])
            return out

        return grad_fn


@lru_cache(maxsize=16)
def _logistic_data(n_samples: int, dim: int, data_seed: int, margin_boost: float):
    """Read-only (features, labels), made once for the instances that share them."""
    rng = np.random.default_rng(data_seed)
    A = rng.standard_normal((n_samples, dim)) / math.sqrt(dim)
    w_true = rng.standard_normal(dim)
    w_true /= np.linalg.norm(w_true)
    margins = A @ w_true
    # Nudge near-zero margins so labels are unambiguous and the data is
    # strictly separable.
    margins = np.where(np.abs(margins) < 1e-3, np.sign(margins + 1e-12) * 1e-3, margins)
    y = np.sign(margins)
    if margin_boost > 0:
        A = A + np.outer(y * margin_boost, w_true)
    A.setflags(write=False)
    y.setflags(write=False)
    return A, y


ProblemSpec = LayeredQuadratic | LogisticRegression


def per_coordinate_sigma(spec: ProblemSpec, noise: Optional[NoiseModel] = None) -> float:
    """Per-coordinate noise std so the total squared-norm variance matches."""
    nm = spec.noise if noise is None else noise
    var = nm.variance()
    return math.sqrt(var / spec.total_params) if var > 0 else 0.0


def compiled(spec: ProblemSpec, n_points: int = 1):
    """Array-level (loss_fn, grad_fn) pair used by the iteration hot loop.

    loss_fn takes the blocks of R points stacked as (R, *shape) and returns
    their R losses. grad_fn(xf, out) takes the R points flat, row r of the
    (R, n_params) array xf holding point r's blocks raveled in block order,
    writes their gradients into out, laid out the same way, and returns out.
    Each loss and gradient is bit-equal to that of its point alone: the
    quadratic is elementwise (two ufunc calls for any number of blocks) and
    sums each point's blocks one by one, and the logistic oracle's stacked
    matmuls with a column on the right make one matrix-vector product per
    point. grad_fn's constants are stacked n_points times, so its R must equal
    n_points, unless n_points is 1, which numpy broadcasts to any R.
    """
    return spec.losses, spec.grad_fn(n_points)


def _point_grad(spec: ProblemSpec, x: LayeredPoint) -> list[np.ndarray]:
    """The exact gradient blocks at x, through the flat grad_fn with R = 1,
    whose constants the problem holds. A one-block point is its own flat row."""
    check_point(spec, x)
    arrays = x.arrays
    if len(arrays) == 1:
        out = np.empty(arrays[0].shape)
        spec.grad_fn(1)(arrays[0].reshape(1, -1), out.reshape(1, -1))
        return [out]
    flat = spec.grad_fn(1)(x.flatten()[None], np.empty((1, spec.total_params)))[0]
    ends = itertools.accumulate(g.size for g in spec.geometry)
    return [flat[e - g.size:e].reshape(g.shape) for e, g in zip(ends, spec.geometry)]


def check_point(spec: ProblemSpec, x: LayeredPoint) -> None:
    """Raise ValueError unless x has the block names and shapes of spec."""
    if tuple(x.names) != tuple(spec.block_names):
        raise ValueError("point block names do not match the problem")
    for a, g in zip(x.arrays, spec.geometry):
        if a.shape != g.shape:
            raise ValueError("point block shapes do not match the problem")


def loss(spec: ProblemSpec, x: LayeredPoint) -> float:
    """Exact objective value at x."""
    check_point(spec, x)
    return float(spec.losses([a[None] for a in x.arrays])[0])


def grad(spec: ProblemSpec, x: LayeredPoint) -> LayeredPoint:
    """Exact gradient at x."""
    return LayeredPoint.from_arrays(spec.block_names, _point_grad(spec, x))


def grad_sample(
    spec: ProblemSpec,
    x: LayeredPoint,
    rng: np.random.Generator,
    noise: Optional[NoiseModel] = None,
) -> LayeredPoint:
    """Exact gradient plus zero-mean Gaussian noise with the modeled variance."""
    g = _point_grad(spec, x)
    sigma_pc = per_coordinate_sigma(spec, noise)
    if sigma_pc > 0.0:
        g = [gb + sigma_pc * rng.standard_normal(gb.shape) for gb in g]
    return LayeredPoint.from_arrays(spec.block_names, g)


def initial_point(spec: ProblemSpec) -> LayeredPoint:
    return LayeredPoint.zeros(spec.block_names, spec.geometry)


def known_constants(spec: ProblemSpec) -> ProblemConstants:
    """Analytic (L, mu, rho, sigma_star) for the layered quadratic.

    L sums the per-block curvature times the dual-vs-primal norm gain, which
    is tight for the composite norms. The error-bound slope is certified only
    on the sublevel set reachable from the radius ball: mu = sqrt(2 min
    lambda) / sqrt(f_max), where f_max is the largest objective value on the
    ball, so the constants hold on the sublevel set f <= f_max. rho is the
    exact dual-vs-euclidean gain of the composite norm, and delta0 the loss
    at the zero start point (initial_point). Logistic problems have no
    analytic constants and raise.
    """
    if isinstance(spec, LogisticRegression):
        raise ValueError(
            "constants for logistic regression are not analytic; "
            "estimate them from a trajectory instead"
        )
    L = sum(lam * g.lipschitz_gain() for lam, g in zip(spec.curvatures, spec.geometry))
    f_max = sum(
        0.5 * lam * g.max_l2_distance(theta) ** 2
        for lam, theta, g in zip(spec.curvatures, spec.targets, spec.geometry)
    )
    mu = math.sqrt(2.0 * min(spec.curvatures)) / math.sqrt(f_max)
    rho = math.sqrt(sum(g.dual_gain() ** 2 for g in spec.geometry))
    delta0 = loss(spec, initial_point(spec))
    if delta0 <= 0.0:
        raise ValueError("the zero start point is already optimal (zero initial suboptimality)")
    return ProblemConstants(
        L=L,
        mu=mu,
        rho=rho,
        sigma_star=spec.noise.sigma_star,
        delta0=delta0,
    )


# -- JSON (de)serialization ---------------------------------------------------

_type_hints = lru_cache(maxsize=None)(get_type_hints)


def _json_value(value, hint, where: str, name: str):
    """The JSON value of the field name, read as its resolved type hint.

    str needs a JSON string, float a JSON number, int an integral number,
    bool true or false, tuple[...] a list of such values (of any length for
    tuple[X, ...]), np.ndarray an array of numbers, a dataclass a JSON object
    (read by from_dict as name, or as name[i] when entry i of a list), and
    Optional[X] null or an X; each comes back as that type. Values of other
    hints pass as they are. Errors are ValueErrors that name where and name.
    """
    if hint is str:
        if not isinstance(value, str):
            raise ValueError(f"{where}: {name} must be a string, got {value!r}")
    elif hint is bool:
        if not isinstance(value, bool):
            raise ValueError(f"{where}: {name} must be true or false, got {value!r}")
    elif hint in (int, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{where}: {name} must be a number, got {value!r}")
        if hint is int and isinstance(value, float) and not value.is_integer():
            raise ValueError(f"{where}: {name} must be an integer, got {value!r}")
        try:
            value = hint(value)
        except OverflowError:  # an integer beyond the float range
            raise ValueError(f"{where}: {name} must be a number within the float range") from None
    elif get_origin(hint) is Union and type(None) in get_args(hint):  # Optional[X]
        if value is not None:
            value = _json_value(value, get_args(hint)[0], where, name)
    elif get_origin(hint) is tuple:
        args = get_args(hint)
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{where}: {name} must be a list, got {value!r}")
        hints = [args[0]] * len(value) if args[1:] == (...,) else args
        if len(value) != len(hints):
            inner = repr(hint)[len("tuple["):-1]
            raise ValueError(f"{where}: {name} must be a list of {inner}, got {value!r}")
        value = tuple(
            _json_value(v, h, where, f"{name}[{i}]" if is_dataclass(h) else name)
            for i, (v, h) in enumerate(zip(value, hints))
        )
    elif hint is np.ndarray:
        try:
            arr = np.asarray(value)
        except ValueError:  # lists of different lengths at one depth
            raise ValueError(f"{where}: {name} must be a rectangular array of numbers") from None
        if arr.dtype.kind not in "iuf":
            raise ValueError(
                f"{where}: {name} must be an array of numbers, got an array of {arr.dtype.name}"
            )
        value = arr.astype(float)
    elif is_dataclass(hint):
        value = from_dict(hint, value, name)
    return value


def from_dict(cls, d, where: str, **parsers):
    """Build the dataclass cls from the JSON object d, keyed by its init fields.

    Fields without a default are required. parsers maps a field whose value
    is not plain data to the function that builds it from its JSON value.
    Every other field is read by _json_value as its resolved type hint, so a
    nested object or list is read by its field's type and any Optional field
    may be null; the values then reach cls, for its own checks. Every error,
    those of cls included, is a ValueError that names where.
    """
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(d).__name__}")
    init = [f for f in fields(cls) if f.init]
    unknown = set(d) - {f.name for f in init}
    if unknown:
        raise ValueError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = [
        f.name for f in init
        if f.default is MISSING and f.default_factory is MISSING and f.name not in d
    ]
    if missing:
        raise ValueError(f"missing keys in {where}: {sorted(missing)}")
    kwargs = {}
    for name, value in d.items():  # each key is an init field by now
        if name in parsers:
            kwargs[name] = parsers[name](value)
        else:
            kwargs[name] = _json_value(value, _type_hints(cls)[name], where, name)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


# -- JSON layouts of the problem kinds -----------------------------------------

@dataclass
class _QuadraticBlock:
    name: str
    geometry: BlockGeometry
    curvature: float
    target: np.ndarray


@dataclass
class _LogisticBlock:
    name: str
    geometry: BlockGeometry


@dataclass
class _QuadraticLayout:
    kind: str
    blocks: tuple[_QuadraticBlock, ...]
    noise: NoiseModel

    def build(self) -> LayeredQuadratic:
        return LayeredQuadratic(
            geometry=tuple(b.geometry for b in self.blocks),
            block_names=tuple(b.name for b in self.blocks),
            curvatures=tuple(b.curvature for b in self.blocks),
            targets=tuple(b.target for b in self.blocks),
            noise=self.noise,
        )


@dataclass
class _LogisticLayout:
    kind: str
    blocks: tuple[_LogisticBlock, ...]
    n_samples: int
    dim: int
    data_seed: int
    noise: NoiseModel
    margin_boost: float = 0.0

    def build(self) -> LogisticRegression:
        # every block goes in, so LogisticRegression itself rejects a count other than one
        return LogisticRegression(
            geometry=tuple(b.geometry for b in self.blocks),
            block_names=tuple(b.name for b in self.blocks),
            n_samples=self.n_samples,
            dim=self.dim,
            data_seed=self.data_seed,
            margin_boost=self.margin_boost,
            noise=self.noise,
        )


_LAYOUTS = {
    LayeredQuadratic.kind: _QuadraticLayout,
    LogisticRegression.kind: _LogisticLayout,
}


def spec_from_dict(d: dict) -> ProblemSpec:
    if not isinstance(d, dict):
        raise ValueError(f"problem must be a JSON object, got {type(d).__name__}")
    kind = d.get("kind")
    if not (isinstance(kind, str) and kind in _LAYOUTS):
        raise ValueError(f"unknown problem kind {kind!r}")
    return from_dict(_LAYOUTS[kind], d, "problem").build()
