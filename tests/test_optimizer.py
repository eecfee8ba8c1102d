import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scgscale.geometry import BlockGeometry, GeometryKind, LayeredPoint, block_primal_norm
from scgscale.optimizer import (
    ConstantBeta,
    RunLog,
    ScgConfig,
    Stage,
    StagePlan,
    WarmdownBeta,
    beta_at,
    run,
    run_staged,
    scg_step,
    uscg_step,
)
from scgscale.problems import LayeredQuadratic, NoiseModel
from scgscale.scaling import prescribe_params


def quadratic_1d(target=10.0, eta=12.0, lam=1.0, sigma=0.0):
    return LayeredQuadratic(
        geometry=(BlockGeometry("euclidean", (1,), eta),),
        block_names=("w",),
        curvatures=(lam,),
        targets=(np.array([target]),),
        noise=NoiseModel(sigma),
    )


def noisy_quadratic(dim=6, sigma=0.3, eta=4.0, lam=1.0, seed=3):
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal(dim)
    theta *= 1.0 / np.linalg.norm(theta)
    return LayeredQuadratic(
        geometry=(BlockGeometry("euclidean", (dim,), eta),),
        block_names=("w",),
        curvatures=(lam,),
        targets=(theta,),
        noise=NoiseModel(sigma, B=4.0, S=2.0),
    )


class TestSchedules:
    def test_constant_bounds(self):
        with pytest.raises(ValueError):
            ConstantBeta(0.0)
        with pytest.raises(ValueError):
            ConstantBeta(1.2)

    def test_horizon_schedule_requires_enough_iters(self):
        with pytest.raises(ValueError, match="2c"):
            ConstantBeta.horizon(c=2.0, iters=3)
        assert beta_at(ConstantBeta.horizon(c=2.0, iters=10), 5) == pytest.approx(0.2)

    def test_warmdown_values(self):
        sched = WarmdownBeta(gamma=0.4, total_steps=10, warmdown_steps=4)
        values = [beta_at(sched, k) for k in range(10)]
        assert values[:6] == [0.4] * 6
        assert values[6:] == pytest.approx([0.4 * x / 4 for x in (4, 3, 2, 1)])
        assert all(0.0 < v <= 1.0 for v in values)

    def test_warmdown_default_tail_is_28_percent(self):
        sched = WarmdownBeta(0.1, 100)
        assert sched.warmdown_steps == 28


class TestSteps:
    def test_alpha_one_copies_gradient(self):
        g = [BlockGeometry("euclidean", (2,), 1.0)]
        x = LayeredPoint([("w", np.zeros(2))])
        m = LayeredPoint([("w", np.array([5.0, -5.0]))])
        gs = LayeredPoint([("w", np.array([1.0, 2.0])) ])
        _, m_new = scg_step(x, m, gs, alpha=1.0, beta_k=0.5, radii=None, geometry=g)
        assert np.allclose(m_new.arrays[0], [1.0, 2.0])

    def test_beta_zero_freezes_iterate(self):
        g = [BlockGeometry("euclidean", (2,), 1.0)]
        x = LayeredPoint([("w", np.array([0.3, -0.4]))])
        m = LayeredPoint([("w", np.zeros(2))])
        gs = LayeredPoint([("w", np.array([1.0, 2.0]))])
        x_new, _ = scg_step(x, m, gs, alpha=0.5, beta_k=0.0, radii=None, geometry=g)
        assert np.array_equal(x_new.arrays[0], x.arrays[0])

    def test_hand_evaluated_single_step(self):
        # f = (x - 10)^2 / 2 at x = 0: gradient -10, direction +1,
        # x' = 0.5 * 0 + 0.5 * 1 * 1 = 0.5
        g = [BlockGeometry("euclidean", (1,), 1.0)]
        x = LayeredPoint([("w", np.zeros(1))])
        m = LayeredPoint([("w", np.array([123.0]))])  # irrelevant with alpha=1
        gs = LayeredPoint([("w", np.array([-10.0]))])
        x_new, _ = scg_step(x, m, gs, alpha=1.0, beta_k=0.5, radii=[1.0], geometry=g)
        assert x_new.arrays[0][0] == pytest.approx(0.5)

    def test_uscg_sign_block_step(self):
        g = [BlockGeometry("sign", (4,), 1.0)]
        x = LayeredPoint([("w", np.ones(4))])
        m = LayeredPoint([("w", np.zeros(4))])
        gs = LayeredPoint([("w", np.ones(4))])  # positive gradient -> d = -1
        x_new, _ = uscg_step(x, m, gs, alpha=1.0, eta=0.1, geometry=g)
        assert np.allclose(x_new.arrays[0], 0.9)

    def test_uscg_zero_eta_freezes(self):
        g = [BlockGeometry("euclidean", (2,), 1.0)]
        x = LayeredPoint([("w", np.array([1.0, 2.0]))])
        m = LayeredPoint([("w", np.zeros(2))])
        gs = LayeredPoint([("w", np.array([3.0, 4.0]))])
        x_new, _ = uscg_step(x, m, gs, alpha=1.0, eta=0.0, geometry=g)
        assert np.array_equal(x_new.arrays[0], x.arrays[0])

    def test_uscg_hand_evaluated(self):
        g = [BlockGeometry("euclidean", (1,), 1.0)]
        x = LayeredPoint([("w", np.zeros(1))])
        m = LayeredPoint([("w", np.zeros(1))])
        gs = LayeredPoint([("w", np.array([-10.0]))])
        x_new, _ = uscg_step(x, m, gs, alpha=1.0, eta=0.5, geometry=g)
        assert x_new.arrays[0][0] == pytest.approx(0.5)

    @given(
        st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
        st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
        st.floats(0.01, 1.0),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_update_contraction_bound(self, xs, gs, alpha, beta):
        # per block: |x'| <= (1 - beta) |x| + beta * eta
        eta = 2.0
        g = [BlockGeometry("euclidean", (4,), eta)]
        x = LayeredPoint([("w", np.array(xs))])
        m = LayeredPoint([("w", np.zeros(4))])
        grad = LayeredPoint([("w", np.array(gs))])
        x_new, _ = scg_step(x, m, grad, alpha=alpha, beta_k=beta, radii=None, geometry=g)
        lhs = block_primal_norm(x_new.arrays[0], GeometryKind.EUCLIDEAN)
        rhs = (1.0 - beta) * block_primal_norm(x.arrays[0], GeometryKind.EUCLIDEAN) + beta * eta
        assert lhs <= rhs + 1e-9


class TestRun:
    def test_zero_iters_empty_log(self):
        spec = quadratic_1d()
        cfg = ScgConfig(alpha=0.5, beta=ConstantBeta(0.1), iters=0, seed=0)
        log = run(spec, cfg)
        assert len(log) == 0
        assert log.final_loss == pytest.approx(50.0)  # f(0) = 10^2 / 2
        assert not np.any(log.final_x.arrays[0])

    def test_deterministic_quadratic_descends(self):
        from scgscale.problems import known_constants

        spec = noisy_quadratic(sigma=0.0)
        params = prescribe_params(known_constants(spec).constants, eps=1e-3)
        k = min(params.iters, 500)
        cfg = ScgConfig(
            alpha=params.alpha, beta=ConstantBeta(min(params.beta, 0.5)), iters=k, seed=0
        )
        log = run(spec, cfg)
        assert log.final_loss < log.loss[0]

    def test_same_seed_bitwise_identical(self):
        spec = noisy_quadratic()
        cfg = ScgConfig(alpha=0.3, beta=ConstantBeta(0.05), iters=60, seed=42)
        a, b = run(spec, cfg), run(spec, cfg)
        assert a.to_csv_string() == b.to_csv_string()
        assert np.array_equal(a.final_x.arrays[0], b.final_x.arrays[0])

    def test_different_seed_differs(self):
        spec = noisy_quadratic()
        cfg = ScgConfig(alpha=0.3, beta=ConstantBeta(0.05), iters=60, seed=42)
        other = ScgConfig(alpha=0.3, beta=ConstantBeta(0.05), iters=60, seed=43)
        assert run(spec, cfg).to_csv_string() != run(spec, other).to_csv_string()

    def test_momentum_telescopes_with_alpha_one(self):
        spec = noisy_quadratic()
        cfg = ScgConfig(
            alpha=1.0, beta=ConstantBeta(0.05), iters=40, seed=1, store_gradients=True
        )
        log = run(spec, cfg)
        # with alpha = 1 the buffer equals the last gradient sample exactly
        for m_dual, grad in zip(log.m_dual, log.gradients):
            assert m_dual == pytest.approx(np.linalg.norm(grad.arrays[0]), rel=1e-12)

    def test_iterate_bounds_checked_and_clean(self):
        spec = noisy_quadratic(sigma=0.5, eta=4.0)
        cfg = ScgConfig(alpha=0.2, beta=ConstantBeta.horizon(c=1.0, iters=80), iters=80, seed=5)
        log = run(spec, cfg)
        assert log.checked_steps == 80
        assert log.invariant_violations == 0

    def test_checker_disarmed_when_start_too_far_out(self):
        spec = quadratic_1d(target=10.0, eta=12.0)
        x0 = LayeredPoint([("w", np.array([11.0]))])  # 2 * 11 > 12
        cfg = ScgConfig(alpha=0.5, beta=ConstantBeta(0.1), iters=10, seed=0)
        log = run(spec, cfg, x0=x0)
        assert log.checked_steps == 0

    def test_checker_disarmed_for_warmdown(self):
        spec = noisy_quadratic()
        cfg = ScgConfig(
            alpha=0.5, beta=WarmdownBeta(0.1, 20, 5), iters=20, seed=0
        )
        assert run(spec, cfg).checked_steps == 0

    def test_eval_every_thins_rows(self):
        spec = noisy_quadratic()
        cfg = ScgConfig(alpha=0.5, beta=ConstantBeta(0.1), iters=20, seed=0, eval_every=5)
        log = run(spec, cfg)
        assert list(log.k) == [0, 5, 10, 15]

    def test_uscg_variant_runs(self):
        spec = quadratic_1d(target=0.5, eta=1.0, lam=1.0)
        cfg = ScgConfig(
            alpha=1.0, beta=ConstantBeta(0.5), iters=30, seed=0, radii=(0.05,), variant="uscg"
        )
        log = run(spec, cfg)
        # additive steps of size 0.05 toward 0.5 converge to a small cycle
        assert log.final_loss < 1e-2

    def test_zero_momentum_init(self):
        spec = quadratic_1d()
        cfg = ScgConfig(
            alpha=0.25, beta=ConstantBeta(0.1), iters=1, seed=0, momentum_init="zeros"
        )
        log = run(spec, cfg)
        # m_1 = alpha * g_0, g_0 = -10 => dual norm 2.5
        assert log.m_dual[0] == pytest.approx(2.5)


class TestRunLogCsv:
    def test_round_trip_exact(self):
        spec = noisy_quadratic()
        cfg = ScgConfig(alpha=0.3, beta=ConstantBeta(0.05), iters=25, seed=9)
        log = run(spec, cfg)
        buf = io.StringIO(log.to_csv_string())
        back = RunLog.from_csv(buf)
        for name in ("loss", "x_primal", "g_dual", "m_dual", "beta", "step_disp"):
            assert np.array_equal(getattr(log, name), getattr(back, name)), name
        assert np.array_equal(log.k, back.k)
        assert np.array_equal(log.stage, back.stage)

    def test_header_enforced(self):
        with pytest.raises(ValueError, match="header"):
            RunLog.from_csv(io.StringIO("a,b\n1,2\n"))

    def test_row_count_matches_iters(self):
        spec = noisy_quadratic()
        cfg = ScgConfig(alpha=0.3, beta=ConstantBeta(0.05), iters=10, seed=0)
        assert len(run(spec, cfg)) == 10


class TestStaged:
    def make_plan(self, bs_pairs, betas, alphas, tokens):
        return StagePlan(
            tuple(
                Stage(token_allotment=t, B=b, S=s, beta=be, alpha=al)
                for (b, s), be, al, t in zip(bs_pairs, betas, alphas, tokens)
            )
        )

    def test_single_stage_matches_plain_run(self):
        spec = noisy_quadratic()
        plan = self.make_plan([(4.0, 2.0)], [0.05], [0.3], [8.0 * 50])
        base = ScgConfig(alpha=0.3, beta=ConstantBeta(0.05), iters=50, seed=11)
        staged = run_staged(spec, plan, base)
        plain = run(spec, base)
        assert np.array_equal(staged.loss, plain.loss)
        assert staged.final_loss == plain.final_loss

    def test_equal_stages_concatenate_exactly(self):
        spec = noisy_quadratic()
        plan = self.make_plan(
            [(4.0, 2.0), (4.0, 2.0)], [0.05, 0.05], [0.3, 0.3], [8.0 * 30, 8.0 * 30]
        )
        base = ScgConfig(alpha=0.3, beta=ConstantBeta(0.05), iters=60, seed=11)
        staged = run_staged(spec, plan, base)
        plain = run(spec, base)
        assert np.allclose(staged.loss, plain.loss)
        assert staged.final_loss == plain.final_loss
        assert set(staged.stage) == {0, 1}

    def test_boundary_halves_beta(self):
        spec = noisy_quadratic()
        plan = self.make_plan(
            [(4.0, 2.0), (16.0, 2.0)], [0.04, 0.02], [0.3, 0.3], [8.0 * 20, 32.0 * 20]
        )
        base = ScgConfig(alpha=0.3, beta=ConstantBeta(0.04), iters=0, seed=11)
        log = run_staged(spec, plan, base)
        first_stage = log.beta[log.stage == 0]
        second_stage = log.beta[log.stage == 1]
        assert np.all(first_stage == 0.04)
        assert np.all(second_stage == 0.02)

    def test_stage_needs_at_least_one_step(self):
        spec = noisy_quadratic()
        plan = self.make_plan([(100.0, 100.0)], [0.05], [0.3], [50.0])
        base = ScgConfig(alpha=0.3, beta=ConstantBeta(0.05), iters=0, seed=0)
        with pytest.raises(ValueError, match="at least"):
            run_staged(spec, plan, base)
