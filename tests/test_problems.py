import math
import pickle
import re
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
import pytest

from scgscale import experiments, problems
from scgscale.estimation import estimate_L, estimate_mu
from scgscale.geometry import (
    BlockGeometry,
    LayeredPoint,
    block_primal_norm,
    composite_dual_norm,
)
from scgscale.optimizer import ConstantBeta, ScgConfig, run
from scgscale.problems import (
    LayeredQuadratic,
    LogisticRegression,
    NoiseModel,
    grad_sample,
    known_constants,
    loss,
    spec_from_dict,
)
from scgscale.scaling import ProblemConstants, TunedConfig


def simple_quadratic(lam=2.0, dist=1.0, eta=3.0, sigma=0.0, dim=1):
    theta = np.zeros(dim)
    theta[0] = dist
    return LayeredQuadratic(
        geometry=(BlockGeometry("euclidean", (dim,), eta),),
        block_names=("w",),
        curvatures=(lam,),
        targets=(theta,),
        noise=NoiseModel(sigma),
    )


_VALID_FIELDS = {
    ProblemConstants: dict(L=1.0, mu=1.0, rho=1.0, sigma_star=1.0, delta0=1.0, c=1.0),
    TunedConfig: dict(B0=4.0, S0=2.0, beta0=0.1, alpha0=0.5, T0=100.0),
    NoiseModel: dict(sigma_star=0.1, B=2.0, S=2.0),
}


def _with_field(cls, field):
    return lambda bad: cls(**dict(_VALID_FIELDS[cls], **{field: bad}))


NON_FINITE_CASES = {
    f"{cls.__name__}.{field}": _with_field(cls, field)
    for cls, fields in _VALID_FIELDS.items()
    for field in fields
}
NON_FINITE_CASES["LayeredQuadratic.curvatures"] = lambda bad: replace(
    simple_quadratic(), curvatures=(bad,)
)
NON_FINITE_CASES["LayeredQuadratic.targets"] = lambda bad: replace(
    simple_quadratic(dim=2), targets=(np.array([0.5, bad]),)
)


_EUCLID_4 = BlockGeometry("euclidean", (4,), 10.0)
_logistic = partial(LogisticRegression, geometry=(_EUCLID_4,), block_names=("w",), n_samples=8,
                    dim=4, data_seed=0, noise=NoiseModel(0.0))


@pytest.mark.parametrize("make, message", [
    pytest.param(lambda: replace(simple_quadratic(), curvatures=(1.0, 2.0)),
                 "geometry, names, curvatures, and targets must be parallel", id="quadratic-parallel"),
    pytest.param(lambda: replace(simple_quadratic(), geometry=(_EUCLID_4, _EUCLID_4),
                                 block_names=("w", "w"), curvatures=(1.0, 1.0),
                                 targets=(np.zeros(4), np.zeros(4))),
                 "block names must be unique", id="quadratic-names"),
    pytest.param(lambda: _logistic(block_names=("w", "v")),
                 "logistic regression uses a single weight block", id="logistic-blocks"),
    pytest.param(lambda: _logistic(dim=5),
                 "weight block must be euclidean with shape (dim,)", id="logistic-shape"),
    pytest.param(lambda: _logistic(n_samples=0),
                 "n_samples and dim must be positive", id="logistic-samples"),
    pytest.param(lambda: _logistic(margin_boost=-0.1),
                 "margin_boost must be nonnegative", id="logistic-margin"),
    pytest.param(lambda: loss(simple_quadratic(), LayeredPoint([("v", [0.0])])),
                 "point block names do not match the problem", id="point-names"),
    pytest.param(lambda: known_constants(simple_quadratic(dist=0.0)),
                 "the zero start point is already optimal (zero initial suboptimality)",
                 id="constants-optimal-start"),
])
def test_input_checks_raise_their_message(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("case", sorted(NON_FINITE_CASES))
def test_constructors_reject_non_finite(case, bad):
    with pytest.raises(ValueError):
        NON_FINITE_CASES[case](bad)


class TestNoiseModel:
    def test_variance_formula(self):
        nm = NoiseModel(2.0, B=4.0, S=2.0)
        assert nm.variance() == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(-1.0)
        with pytest.raises(ValueError):
            NoiseModel(1.0, B=0.5)


class TestLoss:
    def test_loss_zero_at_target(self):
        spec = simple_quadratic()
        x = LayeredPoint([("w", spec.targets[0].copy())])
        assert loss(spec, x) == 0.0

    def test_unit_distance(self):
        spec = simple_quadratic(lam=2.0, dist=2.0)
        x = LayeredPoint([("w", np.array([1.0]))])  # distance 1 from theta
        assert loss(spec, x) == pytest.approx(1.0)

    def test_logistic_at_origin_is_log_two(self):
        spec = LogisticRegression(
            geometry=(BlockGeometry("euclidean", (4,), 10.0),),
            block_names=("w",),
            n_samples=8,
            dim=4,
            data_seed=0,
            noise=NoiseModel(0.0),
        )
        x = LayeredPoint([("w", np.zeros(4))])
        assert loss(spec, x) == pytest.approx(math.log(2.0))

    def test_shape_mismatch(self):
        spec = simple_quadratic(dim=3)
        with pytest.raises(ValueError):
            loss(spec, LayeredPoint([("w", np.zeros(2))]))

    def test_no_blocks_rejected(self):
        with pytest.raises(ValueError, match="at least one block"):
            LayeredQuadratic(
                geometry=(), block_names=(), curvatures=(), targets=(), noise=NoiseModel(0.1)
            )

    def test_infeasible_target_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            simple_quadratic(dist=5.0, eta=3.0)


class TestGradSample:
    def test_zero_noise_is_exact(self):
        spec = simple_quadratic(lam=2.0, dist=1.0)
        rng = np.random.default_rng(0)
        x = LayeredPoint([("w", np.zeros(1))])
        g = grad_sample(spec, x, rng)
        assert g.arrays[0][0] == pytest.approx(-2.0)

    def test_montecarlo_mean_and_variance(self):
        spec = simple_quadratic(lam=1.0, dist=1.0, sigma=0.8, dim=8)
        spec = LayeredQuadratic(
            geometry=spec.geometry,
            block_names=spec.block_names,
            curvatures=spec.curvatures,
            targets=(np.concatenate([[1.0], np.zeros(7)]),),
            noise=NoiseModel(0.8, B=2.0, S=2.0),
        )
        rng = np.random.default_rng(123)
        x = LayeredPoint([("w", np.full(8, 0.5))])
        exact = problems.grad(spec, x).arrays[0]
        n_draws = 20000
        draws = np.stack(
            [grad_sample(spec, x, rng).arrays[0] for _ in range(n_draws)]
        )
        sigma2 = spec.noise.variance()
        per_coord_sd = math.sqrt(sigma2 / 8.0)
        se = per_coord_sd / math.sqrt(n_draws)
        assert np.all(np.abs(draws.mean(axis=0) - exact) < 4.0 * se)
        sq_dev = ((draws - exact) ** 2).sum(axis=1).mean()
        assert sq_dev == pytest.approx(sigma2, rel=0.05)


class TestKnownConstants:
    def test_mu_formula_single_block(self):
        # eta + |theta| = 2 so f_max = (1/2) * 2^2 = 2 and mu = sqrt(2/2) = 1
        spec = simple_quadratic(lam=1.0, dist=0.5, eta=1.5)
        out = known_constants(spec)
        assert out.mu == pytest.approx(1.0)
        assert out.rho == pytest.approx(1.0)
        assert out.L == pytest.approx(1.0)

    def test_composite_L_sums_blocks(self):
        spec = LayeredQuadratic(
            geometry=(
                BlockGeometry("euclidean", (2,), 2.0),
                BlockGeometry("euclidean", (3,), 2.0),
            ),
            block_names=("a", "b"),
            curvatures=(1.0, 4.0),
            targets=(np.full(2, 0.5), np.full(3, 0.5)),
            noise=NoiseModel(0.0),
        )
        out = known_constants(spec)
        # dual norm is a sum over blocks, so the tight constant adds up
        assert out.L == pytest.approx(5.0)
        assert out.rho == pytest.approx(math.sqrt(2.0))

    def test_sign_block_gains(self):
        spec = LayeredQuadratic(
            geometry=(BlockGeometry("sign", (9,), 1.0),),
            block_names=("w",),
            curvatures=(2.0,),
            targets=(np.full(9, 0.25),),
            noise=NoiseModel(0.0),
        )
        out = known_constants(spec)
        assert out.L == pytest.approx(18.0)  # lambda * n for l1 vs max
        assert out.rho == pytest.approx(3.0)  # sqrt(n)

    def test_spectral_block_gains(self):
        rng = np.random.default_rng(12)
        theta = rng.standard_normal((5, 3))
        theta *= 0.7 / np.linalg.svd(theta, compute_uv=False)[0]
        lam, eta, k = 1.5, 2.0, 3  # k = min(shape)
        spec = LayeredQuadratic(
            geometry=(BlockGeometry("spectral", (5, 3), eta),),
            block_names=("W",),
            curvatures=(lam,),
            targets=(theta,),
            noise=NoiseModel(0.0),
        )
        out = known_constants(spec)
        assert out.L == pytest.approx(lam * k)  # nuclear vs operator norm
        assert out.rho == pytest.approx(math.sqrt(k))  # nuclear vs Frobenius
        # the farthest point of the ball lies eta sqrt(k) from theta in Frobenius
        f_max = lam / 2 * (np.linalg.norm(theta) + eta * math.sqrt(k)) ** 2
        assert out.mu == pytest.approx(math.sqrt(2.0 * lam / f_max))

    def test_logistic_has_no_analytic_constants(self):
        spec = LogisticRegression(
            geometry=(BlockGeometry("euclidean", (4,), 10.0),),
            block_names=("w",),
            n_samples=8,
            dim=4,
            data_seed=0,
            noise=NoiseModel(0.0),
        )
        with pytest.raises(ValueError, match="estimate"):
            known_constants(spec)

    def test_error_bound_predicate_on_sampled_points(self):
        rng = np.random.default_rng(7)
        spec = LayeredQuadratic(
            geometry=(
                BlockGeometry("sign", (5,), 1.5),
                BlockGeometry("euclidean", (4,), 2.0),
            ),
            block_names=("a", "b"),
            curvatures=(0.7, 2.0),
            targets=(rng.uniform(-1.0, 1.0, 5), np.zeros(4)),
            noise=NoiseModel(0.0),
        )
        out = known_constants(spec)
        mu = out.mu
        kinds = [g.kind for g in spec.geometry]
        for _ in range(1000):
            blocks = []
            for name, g in zip(spec.block_names, spec.geometry):
                raw = rng.uniform(-1.0, 1.0, g.shape)
                if g.kind.value == "euclidean":
                    raw *= g.radius_eta / max(np.linalg.norm(raw), 1e-12)
                    raw *= rng.uniform(0.0, 1.0)
                else:
                    raw *= g.radius_eta
                blocks.append((name, raw))
            x = LayeredPoint(blocks)
            f = loss(spec, x)
            g_dual = composite_dual_norm([a[None] for a in problems.grad(spec, x).arrays], kinds)[0]
            assert g_dual >= mu * f - 1e-9

    def test_smoothness_predicate_on_sampled_pairs(self):
        rng = np.random.default_rng(11)
        spec = LayeredQuadratic(
            geometry=(
                BlockGeometry("sign", (4,), 1.0),
                BlockGeometry("euclidean", (3,), 1.0),
            ),
            block_names=("a", "b"),
            curvatures=(1.2, 0.5),
            targets=(np.full(4, 0.3), np.full(3, 0.3)),
            noise=NoiseModel(0.0),
        )
        L = known_constants(spec).L
        kinds = [g.kind for g in spec.geometry]
        for _ in range(300):
            xa = LayeredPoint([("a", rng.standard_normal(4)), ("b", rng.standard_normal(3))])
            xb = LayeredPoint([("a", rng.standard_normal(4)), ("b", rng.standard_normal(3))])
            diff = [p - q for p, q in zip(xa.arrays, xb.arrays)]
            grad_diff = [
                ga - gb
                for ga, gb in zip(problems.grad(spec, xa).arrays, problems.grad(spec, xb).arrays)
            ]
            lhs = composite_dual_norm([d[None] for d in grad_diff], kinds)[0]
            rhs = L * max(block_primal_norm(d[None], kind)[0] for d, kind in zip(diff, kinds))
            assert lhs <= rhs + 1e-9

    def test_single_euclid_block_smoothness_is_exact(self):
        spec = simple_quadratic(lam=3.0, dist=1.0, eta=2.0, dim=4)
        L = known_constants(spec).L
        rng = np.random.default_rng(2)
        for _ in range(50):
            d = rng.standard_normal(4)
            # gradient difference is exactly lambda * displacement
            assert 3.0 * np.linalg.norm(d) == pytest.approx(L * np.linalg.norm(d))


class TestDogfooding:
    def test_estimators_recover_known_constants(self):
        rng = np.random.default_rng(5)
        theta = rng.standard_normal(6)
        theta /= np.linalg.norm(theta) * 1.25
        spec = LayeredQuadratic(
            geometry=(BlockGeometry("euclidean", (6,), 2.0),),
            block_names=("w",),
            curvatures=(1.5,),
            targets=(theta,),
            noise=NoiseModel(0.005, B=8.0, S=1.0),
        )
        out = known_constants(spec)
        cfg = ScgConfig(
            alpha=0.3, beta=ConstantBeta(0.01), iters=400, seed=3, store_gradients=True
        )
        log = run(spec, cfg)
        L_hat = estimate_L(log, spec.geometry)
        assert L_hat == pytest.approx(out.L, rel=0.1)
        # the analytic error-bound slope is certified on the whole ball, so
        # the slope measured along a low-loss trajectory must dominate it
        mu_hat = estimate_mu(log.loss, log.g_dual, loss_cap=float("inf")).slope
        assert mu_hat >= 0.9 * out.mu


def quadratic_dict():
    """The JSON layout of simple_quadratic(lam=2.0, dist=1.0, sigma=0.3)."""
    return {
        "kind": "layered_quadratic",
        "blocks": [
            {"name": "w", "geometry": {"kind": "euclidean", "shape": [1], "radius_eta": 3.0},
             "curvature": 2.0, "target": [1.0]},
        ],
        "noise": {"sigma_star": 0.3, "B": 1.0, "S": 1.0},
    }


@dataclass
class _PairAndCount:
    """A field of nested fixed tuples, as from_dict reads it from JSON."""

    value: tuple[tuple[float, float], int]


def _logistic_grad_by_formula(spec, xf):
    """The logistic gradients at the rows of xf, each step of the sigmoid
    chain on a fresh array, as the oracle once formed them."""
    labels = np.repeat(spec.labels[None], len(xf), axis=0)
    products = np.matmul(spec.features, xf[..., None])[..., 0]
    s = 1.0 / (1.0 + np.exp(labels * products))
    return np.matmul(spec.features.T, (-(labels * s) / spec.n_samples)[..., None])[..., 0]


class TestOracle:
    @pytest.mark.parametrize("n_points", [1, 3, 28])
    def test_in_place_logistic_oracle_keeps_the_formula_bits(self, n_points):
        spec = experiments.rate_study_problem()
        rng = np.random.default_rng(n_points)
        # Scales from 1e-3 to 1e3 take the margins past where exp overflows.
        xf = rng.standard_normal((n_points, spec.dim)) * 10.0 ** rng.uniform(-3, 3, (n_points, 1))
        with np.errstate(over="ignore"):
            expected = _logistic_grad_by_formula(spec, xf)
            for stacked_for in {1, n_points}:
                out = np.full_like(xf, np.nan)
                problems.compiled(spec, stacked_for)[1](xf, out)
                assert out.tobytes() == expected.tobytes()
            if n_points == 1:
                x = LayeredPoint.from_arrays(spec.block_names, list(xf))
                assert problems.grad(spec, x).arrays[0].tobytes() == expected[0].tobytes()

    @pytest.mark.parametrize("n_points", [1, 3])
    def test_logistic_oracle_keeps_the_bits_of_the_seven_call_chain(self, n_points):
        # The chain the oracle ran before it divided -labels by 1 + exp(.)
        # in one call: 1 / q, times labels, negated.
        spec = experiments.rate_study_problem()
        rng = np.random.default_rng(10 + n_points)
        xf = rng.standard_normal((n_points, spec.dim)) * 10.0 ** rng.uniform(-3, 3, (n_points, 1))
        labels = spec.labels[None].repeat(n_points, axis=0)
        with np.errstate(over="ignore"):
            products = np.matmul(spec.features, xf[..., None])
            p = products[..., 0]
            np.multiply(labels, p, p)
            np.exp(p, p)
            np.add(1.0, p, p)
            np.divide(1.0, p, p)
            np.multiply(labels, p, p)
            np.negative(p, p)
            np.divide(p, spec.n_samples, p)
            expected = np.matmul(spec.features.T, products)[..., 0]
            out = np.full_like(xf, np.nan)
            problems.compiled(spec, n_points)[1](xf, out)
        assert out.tobytes() == expected.tobytes()

    def test_logistic_labels_are_exactly_plus_or_minus_one(self):
        # The oracle's one division by -labels is bit-exact only for these.
        for spec in (experiments.rate_study_problem(),
                     replace(experiments.rate_study_problem(), margin_boost=0.0, data_seed=3)):
            assert np.all((spec.labels == 1.0) | (spec.labels == -1.0))

    @pytest.mark.parametrize("make", [
        lambda: LayeredQuadratic(
            geometry=(BlockGeometry("euclidean", (1,), 1.0), BlockGeometry("sign", (1, 1), 1.0)),
            block_names=("w", "v"), curvatures=(2.0, 0.5),
            targets=(np.full(1, 0.25), np.full((1, 1), -0.5)), noise=NoiseModel(0.3)),
        experiments.regime_sweep_problem,
        experiments.rate_study_problem,
    ], ids=["quadratic", "sign16_quadratic", "logistic"])
    def test_a_problem_that_served_its_oracle_pickles_replaces_and_compares(self, make):
        # The oracle's constants live in fields outside init, repr and
        # comparison, so a spec that has served grad and grad_sample still
        # crosses a process boundary and is rebuilt by replace.
        spec = make()
        x = LayeredPoint.from_arrays(
            spec.block_names, [np.full(g.shape, 0.1) for g in spec.geometry])
        g = problems.grad(spec, x).flatten()
        sample = grad_sample(spec, x, np.random.default_rng(3)).flatten()
        back = pickle.loads(pickle.dumps(spec))
        assert back == spec and replace(spec) == spec and repr(back) == repr(spec)
        assert replace(spec, noise=NoiseModel(0.5)) != spec
        for other in (back, replace(spec)):
            assert problems.grad(other, x).flatten().tobytes() == g.tobytes()
            assert grad_sample(other, x, np.random.default_rng(3)).flatten().tobytes() == \
                sample.tobytes()

    def test_quadratics_compare_targets_by_value_and_do_not_hash(self):
        spec = experiments.regime_sweep_problem()
        (target,) = spec.targets
        assert spec.geometry[0].size == 16
        assert spec == experiments.regime_sweep_problem()
        assert replace(spec, targets=(target.copy(),)) == spec
        moved = target.copy()
        moved[7] = -moved[7]
        assert replace(spec, targets=(moved,)) != spec
        assert spec != experiments.rate_study_problem()
        with pytest.raises(TypeError, match="unhashable type: 'LayeredQuadratic'"):
            hash(spec)


class TestSerialization:
    def test_quadratic_round_trip(self):
        spec = simple_quadratic(lam=2.0, dist=1.0, sigma=0.3)
        back = spec_from_dict(quadratic_dict())
        assert back == spec

    def test_logistic_round_trip(self):
        spec = LogisticRegression(
            geometry=(BlockGeometry("euclidean", (4,), 10.0),),
            block_names=("w",),
            n_samples=8,
            dim=4,
            data_seed=42,
            margin_boost=0.25,
            noise=NoiseModel(0.1, B=2.0, S=4.0),
        )
        back = spec_from_dict({
            "kind": "logistic_regression",
            "blocks": [
                {"name": "w", "geometry": {"kind": "euclidean", "shape": [4], "radius_eta": 10.0}},
            ],
            "n_samples": 8,
            "dim": 4,
            "data_seed": 42,
            "margin_boost": 0.25,
            "noise": {"sigma_star": 0.1, "B": 2.0, "S": 4.0},
        })
        assert back == spec
        assert np.array_equal(back.features, spec.features)
        assert np.array_equal(back.labels, spec.labels)
        assert back.noise == spec.noise

    def test_replaced_logistic_shares_read_only_data(self):
        # replace() with new noise, as the rate study does per budget, keeps
        # the data set instead of generating it again.
        spec = experiments.rate_study_problem()
        other = replace(spec, noise=replace(spec.noise, B=64.0))
        assert other.features is spec.features and other.labels is spec.labels
        assert not spec.features.flags.writeable and not spec.labels.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            other.features[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            other.labels[0] = -other.labels[0]

    def test_nested_fixed_tuple_field(self):
        read = problems.from_dict(_PairAndCount, {"value": [[1.0, 2], 3]}, "pair")
        assert read.value == ((1.0, 2.0), 3)
        assert isinstance(read.value[0][1], float) and isinstance(read.value[1], int)
        with pytest.raises(ValueError, match=r"pair: value must be a list of float, float"):
            problems.from_dict(_PairAndCount, {"value": [[1.0], 3]}, "pair")

    @pytest.mark.parametrize(
        "key,value,message",
        [("curvature", "1.0", "curvature must be a number"),
         ("target", "x", "target must be an array of numbers"),
         ("target", [[0.1, 0.0], [0.5]], "target must be a rectangular array of numbers")],
    )
    def test_bad_second_block_names_its_entry(self, key, value, message):
        d = quadratic_dict()
        d["blocks"].append(dict(d["blocks"][0], name="v", **{key: value}))
        with pytest.raises(ValueError, match=rf"blocks\[1\]: {message}"):
            spec_from_dict(d)

    def test_unknown_keys_rejected(self):
        d = quadratic_dict()
        d["typo"] = 1
        with pytest.raises(ValueError, match="unknown"):
            spec_from_dict(d)

    def test_margin_boost_floors_margins(self):
        common = dict(
            geometry=(BlockGeometry("euclidean", (6,), 10.0),),
            block_names=("w",),
            n_samples=64,
            dim=6,
            data_seed=3,
            noise=NoiseModel(0.0),
        )
        plain = LogisticRegression(**common)
        boosted = LogisticRegression(margin_boost=0.4, **common)
        # the boost shifts each row by y * 0.4 * w_true; recover the planted
        # separator from the shift and check every margin clears the floor
        shift = (boosted.features - plain.features)[0] * boosted.labels[0] / 0.4
        margins = boosted.labels * (boosted.features @ shift)
        assert np.all(margins >= 0.4 - 1e-9)
