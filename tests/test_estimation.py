import hashlib
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scgscale.estimation import (
    FitTerm,
    _log_residuals,
    PowerLawModel,
    PowerLawTerm,
    bundled_constant_laws,
    estimate_L,
    estimate_mu,
    estimate_rho,
    estimate_variance,
    fit_power_law,
    huber_line_fit,
    rho_from_norms,
    smoothness_from_steps,
)
from scgscale.geometry import BlockGeometry
from scgscale.optimizer import ConstantBeta, ScgConfig, run
from scgscale.problems import LayeredQuadratic, NoiseModel


class TestPowerLawModel:
    def test_evaluation(self):
        m = PowerLawModel(2.0, (PowerLawTerm("x", 1.0, 2.0),))
        assert m.value({"x": 3.0}) == pytest.approx(2.0 * 16.0)

    def test_missing_covariate(self):
        m = PowerLawModel(2.0, (PowerLawTerm("x", 0.0, 1.0),))
        with pytest.raises(KeyError):
            m.value({"y": 1.0})

    def test_nonpositive_base(self):
        m = PowerLawModel(2.0, (PowerLawTerm("x", -5.0, 1.0),))
        with pytest.raises(ValueError, match="positive"):
            m.value({"x": 3.0})

    def test_dict_round_trip(self):
        m = PowerLawModel(0.4, (PowerLawTerm("n_layer", 0.7, 0.2),))
        assert PowerLawModel.from_dict(m.to_dict()) == m

    def test_bundled_law_values_match_measured_constants(self):
        laws = bundled_constant_laws()
        cov = {"n_layer": 12.0, "n_embd": 768.0, "batch_size": 512.0}
        assert laws["mu"].value(cov) == pytest.approx(3.1, abs=0.05)
        assert laws["L"].value(cov) == pytest.approx(7.2, abs=0.1)


def _sparse_gradient_log():
    """A log that stores every step's gradient but records every other step,
    and its geometry."""
    spec = run_quadratic(iters=1)[0]
    cfg = ScgConfig(alpha=0.5, beta=ConstantBeta(0.02), iters=4, eval_every=2,
                    store_gradients=True)
    return run(spec, cfg), spec.geometry


def _fit_table(shape, cols):
    """The (2, terms) table of shifts and exponents, NaN where shape leaves
    one free, and the covariates, one row per term, that fit_power_law builds."""
    return (np.array([[t.shift, t.exponent] for t in shape], dtype=float).T,
            np.array([cols[t.name] for t in shape]))


_FIT_COLUMNS = {"x": [1.0, 2.0, 4.0]}
_FIT_VALUES = [1.0, 2.0, 3.0]


@pytest.mark.parametrize("make, error, message", [
    pytest.param(lambda: PowerLawModel(0.0, ()), ValueError, "C must be positive", id="law-C"),
    pytest.param(lambda: PowerLawModel(1.0, (PowerLawTerm("x", 0.0, 1.0),) * 2),
                 ValueError, "covariate names must be unique", id="law-names"),
    pytest.param(lambda: estimate_variance(None, None, [4.0, 2.0], 64),
                 ValueError, "scales must be strictly increasing", id="variance-scales"),
    pytest.param(lambda: estimate_variance(None, None, [2.5], 10), ValueError,
                 "scale 2.5 is not a whole number of at least 1", id="variance-fractional-scale"),
    pytest.param(lambda: estimate_variance(None, None, [0.5, 1.0], 10), ValueError,
                 "scale 0.5 is not a whole number of at least 1", id="variance-scale-below-one"),
    pytest.param(lambda: PowerLawModel(math.inf, ()), ValueError, "C must be finite, got inf",
                 id="law-C-infinite"),
    pytest.param(lambda: PowerLawModel(math.nan, ()), ValueError, "C must be positive",
                 id="law-C-nan"),
    pytest.param(lambda: fit_power_law(_FIT_COLUMNS, _FIT_VALUES, []),
                 ValueError, "shape needs at least one term", id="fit-empty-shape"),
    pytest.param(lambda: fit_power_law(_FIT_COLUMNS, _FIT_VALUES, [FitTerm("y")]),
                 KeyError, "missing covariate column 'y'", id="fit-missing-column"),
    pytest.param(lambda: fit_power_law({"x": [1.0, 2.0]}, _FIT_VALUES, [FitTerm("x")]),
                 ValueError, "covariate 'x' length mismatch", id="fit-length"),
    pytest.param(lambda: fit_power_law(_FIT_COLUMNS, _FIT_VALUES, [FitTerm("x", shift=-1.0)]),
                 ValueError, "fixed shift for 'x' makes a base non-positive", id="fit-shift"),
    pytest.param(lambda: huber_line_fit([1.0, 2.0], [1.0, 2.0, 3.0]),
                 ValueError, "x and y must be 1-D arrays of equal length", id="huber-shape"),
    pytest.param(lambda: huber_line_fit([1.0], [1.0]),
                 ValueError, "need at least 2 points", id="huber-one-point"),
    # The weights of the reweighted fit underflow, and with them sum w (x - mean)^2.
    pytest.param(lambda: huber_line_fit([0.0, 0.1, 0.2, 0.3], [0.0, 10.0, -10.0, 0.0],
                                        delta=5e-324),
                 ValueError, "degenerate weighted fit", id="huber-degenerate"),
    pytest.param(lambda: smoothness_from_steps([1.0, 2.0], [1.0]),
                 ValueError, "inputs must be 1-D arrays of equal length", id="smoothness-shape"),
    pytest.param(lambda: smoothness_from_steps([], []),
                 ValueError, "need at least one consecutive step", id="smoothness-empty"),
    pytest.param(lambda: estimate_L(*_sparse_gradient_log()), ValueError,
                 "smoothness estimation needs a log recorded at every step", id="L-sparse-log"),
    pytest.param(lambda: estimate_rho([np.ones((2, 3))], [BlockGeometry("euclidean", (4,))]),
                 ValueError, "residual stacks of shapes [(2, 3)] do not stack the blocks [(4,)]",
                 id="rho-shapes"),
    pytest.param(lambda: estimate_rho([np.ones((2, 1)), np.ones((3, 1))],
                                      [BlockGeometry("euclidean", (1,))] * 2), ValueError,
                 "residual stacks of shapes [(2, 1), (3, 1)] do not stack the blocks [(1,), (1,)]",
                 id="rho-lengths"),
    pytest.param(lambda: estimate_rho([], [BlockGeometry("sign", (2,))]), ValueError,
                 "residual stacks of shapes [] do not stack the blocks [(2,)]", id="rho-no-stack"),
    pytest.param(lambda: rho_from_norms([1.0, 2.0], [1.0]),
                 ValueError, "inputs must be 1-D arrays of equal length", id="rho-shape"),
    # NaN and inf are rejected by argument name before any work.
    pytest.param(lambda: huber_line_fit([1.0, 2.0, 3.0], [1.0, math.nan, 3.0]),
                 ValueError, "y contains non-finite entries", id="huber-nan-y"),
    pytest.param(lambda: huber_line_fit([1.0, math.inf, 3.0], [1.0, 2.0, 3.0]),
                 ValueError, "x contains non-finite entries", id="huber-inf-x"),
    pytest.param(lambda: huber_line_fit([1.0, 2.0], [1.0, 2.0], delta=math.nan), ValueError,
                 "delta must be positive (inf for least squares), got nan", id="huber-nan-delta"),
    pytest.param(lambda: huber_line_fit([1.0, 2.0], [1.0, 2.0], delta=0.0), ValueError,
                 "delta must be positive (inf for least squares), got 0.0", id="huber-zero-delta"),
    pytest.param(lambda: estimate_mu([0.1, math.nan, 0.3], [1.0, 2.0, 3.0]),
                 ValueError, "losses contains non-finite entries", id="mu-nan-loss"),
    pytest.param(lambda: estimate_mu([0.1, 0.2, 0.3], [1.0, -math.inf, 3.0]),
                 ValueError, "dual_grad_norms contains non-finite entries", id="mu-inf-norm"),
    pytest.param(lambda: estimate_mu([0.1, 0.2, 0.3], [1.0, 2.0, 3.0], loss_cap=math.nan),
                 ValueError, "loss_cap must be a number or inf, got nan", id="mu-nan-cap"),
    pytest.param(lambda: smoothness_from_steps([1.0, math.nan], [1.0, 1.0]),
                 ValueError, "grad_diff_duals contains non-finite entries", id="smoothness-nan"),
    pytest.param(lambda: smoothness_from_steps([1.0, 2.0], [math.inf, 1.0]),
                 ValueError, "step_disps contains non-finite entries", id="smoothness-inf"),
    pytest.param(lambda: rho_from_norms([math.nan, 2.0], [1.0, 1.0]),
                 ValueError, "dual_norms contains non-finite entries", id="rho-nan"),
    pytest.param(lambda: rho_from_norms([1.0, 2.0], [1.0, math.inf]),
                 ValueError, "euclid_norms contains non-finite entries", id="rho-inf"),
    pytest.param(lambda: fit_power_law({"x": [1.0, math.nan, 4.0]}, _FIT_VALUES, [FitTerm("x")]),
                 ValueError, "covariate 'x' contains non-finite entries", id="fit-nan-covariate"),
    pytest.param(lambda: fit_power_law(_FIT_COLUMNS, [1.0, math.inf, 3.0], [FitTerm("x")]),
                 ValueError, "values contains non-finite entries", id="fit-inf-value"),
    pytest.param(lambda: fit_power_law(_FIT_COLUMNS, _FIT_VALUES, [FitTerm("x", shift=math.nan)]),
                 ValueError, "shift of term 'x' must be finite, got nan", id="fit-nan-shift"),
    pytest.param(lambda: fit_power_law(_FIT_COLUMNS, _FIT_VALUES,
                                       [FitTerm("x", exponent=math.nan)]),
                 ValueError, "exponent of term 'x' must be finite, got nan", id="fit-nan-exponent"),
    pytest.param(lambda: fit_power_law(_FIT_COLUMNS, _FIT_VALUES, [FitTerm("x", shift=math.inf)]),
                 ValueError, "shift of term 'x' must be finite, got inf", id="fit-inf-shift"),
    pytest.param(lambda: fit_power_law(_FIT_COLUMNS, _FIT_VALUES,
                                       [FitTerm("x", exponent=math.inf)]),
                 ValueError, "exponent of term 'x' must be finite, got inf", id="fit-inf-exponent"),
])
def test_input_checks_raise_their_message(make, error, message):
    with pytest.raises(error) as info, warnings.catch_warnings():
        warnings.simplefilter("error")  # and warn of nothing on the way
        make()
    assert info.value.args == (message,)


class TestHuberLineFit:
    def test_exact_line(self):
        x = np.linspace(0.0, 4.0, 40)
        fit = huber_line_fit(x, 3.1 * x + 0.2)
        assert fit.slope == pytest.approx(3.1, abs=1e-9)
        assert fit.intercept == pytest.approx(0.2, abs=1e-9)

    def test_two_points(self):
        fit = huber_line_fit(np.array([0.0, 1.0]), np.array([0.0, 2.7]))
        assert fit.slope == pytest.approx(2.7)

    def test_robust_to_outliers(self):
        rng = np.random.default_rng(0)
        x = np.linspace(0.1, 5.0, 100)
        y = 3.1 * x
        idx = rng.choice(100, size=10, replace=False)
        y = y.copy()
        y[idx] *= 10.0
        fit = huber_line_fit(x, y)
        assert 2.8 <= fit.slope <= 3.4

    def test_infinite_delta_matches_ols(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 5, 60)
        y = 2.0 * x + 1.0 + rng.standard_normal(60)
        fit = huber_line_fit(x, y, delta=math.inf)
        ols = np.polyfit(x, y, 1)
        assert fit.slope == pytest.approx(ols[0], abs=1e-9)
        assert fit.intercept == pytest.approx(ols[1], abs=1e-9)

    def test_zero_spread_rejected(self):
        with pytest.raises(ValueError, match="spread"):
            huber_line_fit(np.ones(5), np.arange(5.0))


class TestEstimateMu:
    def test_cap_filters_points(self):
        losses = np.array([1.0, 2.0, 3.0, 50.0, 80.0])
        norms = 3.1 * losses
        norms[-2:] = 1000.0  # junk above the cap
        fit = estimate_mu(losses, norms, loss_cap=5.0)
        assert fit.slope == pytest.approx(3.1, abs=1e-9)
        assert fit.n_points == 3

    def test_needs_two_points_below_cap(self):
        with pytest.raises(ValueError, match="below"):
            estimate_mu([10.0, 20.0], [1.0, 2.0], loss_cap=5.0)

    def test_infinite_cap_keeps_every_point(self):
        losses = np.array([1.0, 2.0, 3.0, 50.0, 80.0])
        fit = estimate_mu(losses, 3.1 * losses, loss_cap=math.inf, delta=math.inf)
        assert fit.slope == pytest.approx(3.1, abs=1e-9)
        assert fit.n_points == 5

    @given(st.floats(0.1, 50.0))
    @settings(max_examples=40, deadline=None)
    def test_scale_equivariance(self, a):
        losses = np.linspace(0.2, 4.0, 30)
        norms = 2.5 * losses + 0.3
        base = estimate_mu(losses, norms).slope
        scaled_x = estimate_mu(a * losses, norms, loss_cap=5.0 * a).slope
        scaled_y = estimate_mu(losses, a * norms).slope
        assert scaled_x == pytest.approx(base / a, rel=1e-8)
        assert scaled_y == pytest.approx(base * a, rel=1e-8)


def run_quadratic(lam=2.5, sigma=0.0, iters=50, dim=4, seed=0):
    rng = np.random.default_rng(9)
    theta = rng.standard_normal(dim)
    theta /= np.linalg.norm(theta)
    spec = LayeredQuadratic(
        geometry=(BlockGeometry("euclidean", (dim,), 3.0),),
        block_names=("w",),
        curvatures=(lam,),
        targets=(theta,),
        noise=NoiseModel(sigma, B=8.0, S=4.0),
    )
    cfg = ScgConfig(
        alpha=0.5, beta=ConstantBeta(0.02), iters=iters, seed=seed, store_gradients=True
    )
    return spec, run(spec, cfg)


class TestEstimateL:
    def test_exact_on_deterministic_quadratic(self):
        spec, log = run_quadratic(lam=2.5, sigma=0.0)
        assert estimate_L(log, spec.geometry) == pytest.approx(2.5, rel=1e-9)

    def test_window_one_takes_last_ratio(self):
        diffs = np.array([4.0, 6.0])
        disps = np.array([2.0, 2.0])
        assert smoothness_from_steps(diffs, disps, window=1) == pytest.approx(3.0)

    @pytest.mark.parametrize("estimator", [smoothness_from_steps, rho_from_norms])
    @pytest.mark.parametrize("window", [0, -2])
    def test_window_below_one_rejected(self, estimator, window):
        with pytest.raises(ValueError, match="window must be at least 1"):
            estimator(np.array([4.0, 6.0]), np.array([2.0, 2.0]), window=window)

    def test_recovers_under_noise(self):
        spec, log = run_quadratic(lam=4.0, sigma=0.01, iters=300)
        assert estimate_L(log, spec.geometry) == pytest.approx(4.0, rel=0.1)

    def test_degenerate_steps_skipped(self):
        diffs = np.array([1.0, 5.0])
        disps = np.array([0.0, 2.5])
        assert smoothness_from_steps(diffs, disps) == pytest.approx(2.0)

    def test_all_degenerate_raises(self):
        with pytest.raises(ValueError, match="degenerate"):
            smoothness_from_steps(np.ones(3), np.zeros(3))

    def test_needs_stored_gradients(self):
        spec = run_quadratic()[0]
        cfg = ScgConfig(alpha=0.5, beta=ConstantBeta(0.02), iters=5, seed=0)
        log = run(spec, cfg)
        with pytest.raises(ValueError, match="gradients"):
            estimate_L(log, spec.geometry)


class TestEstimateRho:
    def _pairs(self, kind, dim, n_pairs, seed=0):
        """The (n_pairs, dim) stack of residuals noisy - ref, and its geometry."""
        rng = np.random.default_rng(seed)
        geometry = [BlockGeometry(kind, (dim,))]
        diffs = []
        for _ in range(n_pairs):
            ref = rng.standard_normal(dim)
            noisy = ref + rng.standard_normal(dim)
            diffs.append(noisy - ref)
        return [np.array(diffs)], geometry

    def test_euclidean_ratio_is_one(self):
        pairs, geom = self._pairs("euclidean", 16, 20)
        assert estimate_rho(pairs, geom) == pytest.approx(1.0, rel=1e-12)

    def test_sign_ratio_within_norm_bounds(self):
        dim = 64
        pairs, geom = self._pairs("sign", dim, 50)
        rho = estimate_rho(pairs, geom)
        assert 1.0 <= rho <= math.sqrt(dim)

    def test_gaussian_sign_ratio_near_analytic(self):
        # l1/l2 ratio of an n-dim gaussian concentrates near sqrt(2 n / pi)
        dim = 1024
        pairs, geom = self._pairs("sign", dim, 200, seed=3)
        rho = estimate_rho(pairs, geom, window=200)
        assert rho == pytest.approx(math.sqrt(2.0 * dim / math.pi), rel=0.1)

    def test_degenerate_pairs_skipped_then_error(self):
        geom = [BlockGeometry("euclidean", (3,))]
        same = np.ones((1, 3))
        with pytest.raises(ValueError, match="degenerate"):
            estimate_rho([same - same], geom)


class TestEstimateVariance:
    @staticmethod
    def planted_oracle(sigma_star, dim=8):
        def oracle(x, b, rng):
            return rng.standard_normal(dim) * (sigma_star / math.sqrt(b * dim))

        return oracle

    def test_recovers_inverse_scale_law(self):
        curve = estimate_variance(
            self.planted_oracle(2.0), None, [8.0, 16.0, 32.0, 64.0, 128.0], 4096, seed=1
        )
        term = curve.fitted.terms[0]
        assert -1.1 <= term.exponent <= -0.9
        assert abs(term.shift) < 8.0

    def test_zero_noise_rejected(self):
        with pytest.raises(ValueError, match="degenerate|zero"):
            estimate_variance(
                lambda x, b, rng: np.zeros(4), None, [8.0, 16.0, 32.0], 128, seed=0
            )

    def test_pool_must_divide(self):
        with pytest.raises(ValueError, match="divisible"):
            estimate_variance(self.planted_oracle(1.0), None, [3.0, 7.0], 64, seed=0)

    def test_needs_two_draws(self):
        with pytest.raises(ValueError, match="2 draws"):
            estimate_variance(self.planted_oracle(1.0), None, [64.0, 128.0], 128, seed=0)

    def test_two_seeds_agree_at_large_pool(self):
        scales = [16.0, 64.0, 256.0]
        a = estimate_variance(self.planted_oracle(1.5), None, scales, 32768, seed=0)
        b = estimate_variance(self.planted_oracle(1.5), None, scales, 32768, seed=1)
        for (_, va), (_, vb) in zip(a.points, b.points):
            assert abs(va - vb) / va < 0.2


class TestFitPowerLaw:
    def test_recovers_bundled_mu_law(self):
        law = bundled_constant_laws()["mu"]
        n_layer = np.arange(3.0, 31.0)
        values = np.array([law.value({"n_layer": n}) for n in n_layer])
        fitted = fit_power_law({"n_layer": n_layer}, values, [FitTerm("n_layer")])
        term = fitted.terms[0]
        assert fitted.C == pytest.approx(5.2, rel=0.05)
        assert term.shift == pytest.approx(1.7, rel=0.05)
        assert term.exponent == pytest.approx(-0.2, rel=0.05)

    def test_exact_fit_residual_small(self):
        x = np.linspace(2.0, 40.0, 25)
        values = 3.0 * (x + 5.0) ** 0.7
        fitted = fit_power_law({"x": x}, values, [FitTerm("x")])
        pred = np.array([fitted.value({"x": v}) for v in x])
        assert np.max(np.abs(np.log(pred) - np.log(values))) < 1e-8

    def test_fixed_parameters_respected(self):
        x = np.linspace(1.0, 20.0, 15)
        values = 2.0 * (x + 1.0) ** -0.5
        fitted = fit_power_law(
            {"x": x}, values, [FitTerm("x", shift=1.0, exponent=None)]
        )
        assert fitted.terms[0].shift == 1.0
        assert fitted.terms[0].exponent == pytest.approx(-0.5, abs=1e-6)

    def test_fixed_exponent_respected(self):
        x = np.linspace(1.0, 20.0, 15)
        values = 2.0 * (x + 1.0) ** -0.5
        fitted = fit_power_law({"x": x}, values, [FitTerm("x", exponent=-0.5)])
        assert fitted.terms[0].exponent == -0.5
        assert fitted.terms[0].shift == pytest.approx(1.0, abs=1e-6)
        assert fitted.C == pytest.approx(2.0, rel=1e-6)

    def test_nonpositive_values_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            fit_power_law({"x": np.array([1.0, 2.0])}, np.array([1.0, -1.0]), [FitTerm("x")])

    @pytest.mark.parametrize("shape", [[FitTerm("x")], [FitTerm("x", shift=0.0)]],
                             ids=["free_shift", "convex"])
    def test_every_start_failing_raises(self, monkeypatch, shape):
        def failing(*args, **kwargs):
            raise ValueError("residuals are not finite")

        monkeypatch.setattr("scipy.optimize.least_squares", failing)
        with pytest.raises(FloatingPointError, match="^power-law fit failed from every start$"):
            fit_power_law(_FIT_COLUMNS, _FIT_VALUES, shape)

    @pytest.mark.parametrize("fitted", [[800.0, -1.0], [1.0, math.nan]],
                             ids=["C-overflows", "nan-exponent"])
    def test_a_fit_that_is_not_finite_raises(self, monkeypatch, fitted):
        # With a free shift, the points (1, 3.613008866616589),
        # (2.5, 1.292822648059595) and (5, 0.13704302795526574) drive every
        # start past log C = 709.8, where exp overflows (tests/test_cli.py
        # runs that fit); a stub returns such a fit here.
        monkeypatch.setattr("scipy.optimize.least_squares",
                            lambda *args, **kwargs: SimpleNamespace(x=np.array(fitted), cost=0.0))
        with pytest.raises(FloatingPointError, match=r"^the power-law fit in x is not finite: "
                                                     r"C = (inf|2\.7\d+), parameters"), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            fit_power_law(_FIT_COLUMNS, _FIT_VALUES, [FitTerm("x", shift=0.0)])

    @staticmethod
    def spy_on_least_squares(monkeypatch):
        """Record the result of every least_squares call fit_power_law makes."""
        import scipy.optimize

        real, results = scipy.optimize.least_squares, []

        def spy(*args, **kwargs):
            results.append(real(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr("scipy.optimize.least_squares", spy)
        return results

    @pytest.mark.parametrize("shape", [
        [FitTerm("x", shift=0.0)],
        [FitTerm("x", shift=1.0), FitTerm("z", shift=0.0, exponent=0.5)],
        [FitTerm("x", shift=1.0, exponent=-0.5)],
        [FitTerm("x")],
        [FitTerm("x", exponent=-0.5)],
        [FitTerm("x", shift=0.0), FitTerm("z")],
    ], ids=["fixed_shift", "two_fixed_shifts", "only_C", "free_shift",
            "free_shift_fixed_exponent", "one_of_two_shifts_free"])
    def test_one_least_squares_call_per_fit(self, monkeypatch, shape):
        results = self.spy_on_least_squares(monkeypatch)
        x = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        fit_power_law({"x": x, "z": x[::-1] + 3.0}, 2.0 / (x + 1.0), shape)
        assert len(results) == 1

    @staticmethod
    def convex_case(seed):
        """Noisy data from a random law whose every shift the fit holds fixed."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 12))
        cols = {"x": rng.uniform(1.0, 100.0, n), "z": rng.uniform(10.0, 1000.0, n)}
        shape = [
            [FitTerm("x", shift=float(rng.uniform(0.0, 5.0)))],
            [FitTerm("x", shift=0.0), FitTerm("z", shift=float(rng.uniform(-5.0, 5.0)))],
            [FitTerm("x", shift=1.0, exponent=-0.5), FitTerm("z", shift=0.0)],
        ][seed % 3]
        values = np.exp(rng.normal(0.0, 0.3, n))
        for t in shape:
            values = values * (cols[t.name] + t.shift) ** rng.uniform(-1.5, 1.5)
        return cols, values, shape

    @pytest.mark.parametrize("seed", range(30))
    def test_one_start_reaches_the_sixteen_start_minimum(self, monkeypatch, seed):
        from scipy.optimize import least_squares

        cols, values, shape = self.convex_case(seed)
        results = self.spy_on_least_squares(monkeypatch)
        fit_power_law(cols, values, shape)
        (one_start,) = results
        # The 16 starts fit_power_law runs when a shift is free: start 0 at
        # [mean log y, 0, ...], then exponents drawn from seed 0's generator.
        log_y = np.log(values)
        table, x = _fit_table(shape, cols)
        residuals, jacobian = _log_residuals(table, x, log_y)
        rng = np.random.default_rng(0)
        costs = [
            least_squares(
                residuals,
                [float(np.mean(log_y))] + [0.0 if start == 0 else rng.uniform(-1.0, 1.0)
                                           for _ in range(np.isnan(table).sum())],
                jac=jacobian, loss="soft_l1", max_nfev=20000,
            ).cost
            for start in range(16)
        ]
        assert one_start.cost == pytest.approx(min(costs), rel=1e-12, abs=0)

    @staticmethod
    def free_shift_case(seed):
        """Data from a random shifted law, with noise of 0.1 in log, for the
        shape seed % 4 of: one free shift, a free shift with a fixed
        exponent, one of two shifts free, two free shifts."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 13))
        cols = {"x": rng.uniform(1.0, 100.0, n), "z": rng.uniform(10.0, 1000.0, n)}
        shape = [
            [FitTerm("x")],
            [FitTerm("x", exponent=-0.7)],
            [FitTerm("x", shift=0.0), FitTerm("z")],
            [FitTerm("x"), FitTerm("z")],
        ][seed % 4]
        values = np.exp(rng.normal(0.0, 0.1, n))
        for t in shape:
            shift = rng.uniform(0.0, 20.0) if t.shift is None else t.shift
            exponent = (rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.5)
                        if t.exponent is None else t.exponent)
            values = values * (cols[t.name] + shift) ** exponent
        return cols, values, shape

    @staticmethod
    def sixteen_start_cost(cols, values, shape):
        """The lowest cost of the 16 least_squares starts that fit_power_law
        ran on a free shift before its screen: start 0 at [mean log y, each
        free shift 1e-3 of a span above its lower bound, each free exponent
        0], then shifts uniform over one span above the bound and exponents
        uniform on [-1, 1], drawn from seed 0's generator."""
        from scipy.optimize import least_squares

        log_y = np.log(values)
        table, x = _fit_table(shape, cols)
        residuals, jacobian = _log_residuals(table, x, log_y)
        free_shift, free_exp = np.isnan(table)
        low = x.min(axis=1)
        lower = -low + 1e-9 * np.maximum(1.0, np.abs(low))
        bounds = ([-np.inf, *lower[free_shift], *[-np.inf] * free_exp.sum()], np.inf)
        rng = np.random.default_rng(0)
        costs = []
        for start in range(16):
            p0 = [float(np.mean(log_y))]
            for i in np.flatnonzero(free_shift):
                span = float(np.ptp(x[i])) or 1.0
                p0.append(lower[i] + (1e-3 if start == 0 else rng.uniform(0.0, 1.0)) * span)
            p0 += [0.0 if start == 0 else rng.uniform(-1.0, 1.0) for _ in range(free_exp.sum())]
            costs.append(least_squares(residuals, p0, jac=jacobian, loss="soft_l1",
                                       bounds=bounds, max_nfev=20000).cost)
        return min(costs)

    def test_fits_keep_their_bits(self):
        # One sha256 over the repr of every convex_case and free_shift_case
        # fit (the error text where one raises), so that a change to how a fit
        # is computed that moves any of its floats shows here.
        digest = hashlib.sha256()
        for case in [*map(self.convex_case, range(30)), *map(self.free_shift_case, range(12))]:
            try:
                out = repr(fit_power_law(*case))
            except Exception as exc:
                out = f"{type(exc).__name__}: {exc}"
            digest.update(out.encode() + b"\n")
        assert digest.hexdigest() == (
            "a90677f9b3c293d7e72a3513444a27b0a3a518a334e89ffb4d485a8cd5e21563")

    @pytest.mark.parametrize("seed", range(12))
    def test_screen_and_polish_reach_the_sixteen_start_minimum(self, monkeypatch, seed):
        cols, values, shape = self.free_shift_case(seed)
        results = self.spy_on_least_squares(monkeypatch)
        fit_power_law(cols, values, shape)
        (polish,) = results
        assert polish.cost <= self.sixteen_start_cost(cols, values, shape) * (1.0 + 1e-5)

    def test_a_fit_whose_minimum_sits_on_the_shift_bound_ends_within_100_evaluations(
            self, monkeypatch):
        # Most of the 16 random starts this fit used to run spent 2,400-3,400
        # evaluations each in a basin of cost 0.0648; the minimum, cost 0.0547,
        # puts the duplicated x = 3.4445 a base of 3.4e-9 above the bound.
        x = [3.4445, 3.4445, 240.41097739293446, 977.3822584131232, 977.3822584131232]
        values = [1000.0, 1000.0, 655.2985872348409, 977.3822584131232, 977.3822584131232]
        results = self.spy_on_least_squares(monkeypatch)
        fitted = fit_power_law({"x": x}, values, [FitTerm("x")])
        (polish,) = results
        assert polish.cost <= 0.05470 and polish.nfev <= 100
        assert fitted.terms[0].shift == pytest.approx(-3.4445, abs=1e-8)

    @pytest.mark.parametrize("z", [1.0, 5.0])
    def test_a_constant_covariate_leaves_only_its_product_with_C_fitted(self, z):
        # Its log column is constant (0 at z = 1), a singular normal matrix
        # for the screen's solve without its ridge.
        x = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        fitted = fit_power_law({"x": x, "z": np.full(5, z)}, 2.0 / (x + 1.0),
                               [FitTerm("x"), FitTerm("z", shift=0.0)])
        term, constant = fitted.terms
        assert term.shift == pytest.approx(1.0, rel=1e-5)
        assert term.exponent == pytest.approx(-1.0, rel=1e-5)
        assert fitted.C * z**constant.exponent == pytest.approx(2.0, rel=1e-5)

    def test_insufficient_observations(self):
        with pytest.raises(ValueError, match="observations"):
            fit_power_law({"x": np.array([1.0, 2.0])}, np.array([1.0, 2.0]), [FitTerm("x")])

    def test_two_covariate_recovery(self):
        rng = np.random.default_rng(5)
        n_layer = rng.uniform(3, 30, 40)
        n_embd = rng.uniform(300, 2000, 40)
        law = bundled_constant_laws()["L"]
        values = np.array(
            [law.value({"n_layer": a, "n_embd": b}) for a, b in zip(n_layer, n_embd)]
        )
        fitted = fit_power_law(
            {"n_layer": n_layer, "n_embd": n_embd},
            values,
            [FitTerm("n_layer"), FitTerm("n_embd")],
        )
        by_name = {t.name: t for t in fitted.terms}
        assert by_name["n_layer"].exponent == pytest.approx(0.2, abs=0.02)
        assert by_name["n_embd"].exponent == pytest.approx(0.35, abs=0.02)

    def test_recovers_planted_variance_law_to_1e9(self):
        # the golden variance data, 4 / (b + 3) for b = 8 ... 256
        b = 2.0 ** np.arange(3, 9)
        fitted = fit_power_law({"scale": b}, 4.0 / (b + 3.0), [FitTerm("scale")])
        term = fitted.terms[0]
        assert fitted.C == pytest.approx(4.0, rel=1e-9, abs=0)
        assert term.shift == pytest.approx(3.0, rel=1e-9, abs=0)
        assert term.exponent == pytest.approx(-1.0, rel=1e-9, abs=0)


class TestLogResiduals:
    @pytest.mark.parametrize("shape", [
        [FitTerm("x")],
        [FitTerm("x", shift=2.0)],
        [FitTerm("x", exponent=-0.5)],
        [FitTerm("x"), FitTerm("z")],
    ], ids=["free", "fixed_shift", "fixed_exponent", "two_terms"])
    def test_jacobian_matches_central_difference(self, shape):
        rng = np.random.default_rng(11)
        cols = {"x": rng.uniform(1.0, 50.0, 12), "z": rng.uniform(100.0, 900.0, 12)}
        log_y = rng.normal(size=12)
        table, x = _fit_table(shape, cols)
        residuals, jacobian = _log_residuals(table, x, log_y)
        kinds = np.nonzero(np.isnan(table))[0]  # 0 for a free shift, 1 for a free exponent
        assert len(kinds) == sum((t.shift is None) + (t.exponent is None) for t in shape)
        for _ in range(5):
            # Bases stay at 0.5 or more and exponents at 0.2 or more in size,
            # so the central difference with step 1e-4 is good to about 3e-8.
            params = np.array([rng.normal()] + [
                rng.uniform(-0.5, 5.0) if j == 0 else rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0)
                for j in kinds
            ])
            jac = jacobian(params)
            assert jac.shape == (12, 1 + len(kinds))
            central = np.empty_like(jac)
            for k, step in enumerate(1e-4 * np.eye(len(params))):
                central[:, k] = (residuals(params + step) - residuals(params - step)) / 2e-4
            np.testing.assert_allclose(jac, central, rtol=1e-6, atol=0)
