import csv
import io
import math
import re
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scgscale.geometry import (
    BlockGeometry,
    GeometryKind,
    LayeredPoint,
    block_primal_norm,
)
from scgscale.optimizer import (
    RUNLOG_CSV_HEADER,
    ConstantBeta,
    ScgConfig,
    WarmdownBeta,
    _run_segments,
    _step_block,
    run,
    run_staged,
)
from scgscale import optimizer, problems
from scgscale.experiments import rate_study_problem
from scgscale.problems import LayeredQuadratic, LogisticRegression, NoiseModel
from scgscale.scaling import Stage, StagePlan, prescribe_params


def csv_text(log):
    buf = io.StringIO()
    log.to_csv(buf)
    return buf.getvalue()


def same_gradients(a, b):
    """Whether two RunLogs stored the same gradient samples: both none, or
    equal (K, *shape) block stacks in the same block order."""
    if a.gradients is None or b.gradients is None:
        return a.gradients is b.gradients
    return len(a.gradients) == len(b.gradients) and all(
        np.array_equal(x, y) for x, y in zip(a.gradients, b.gradients))


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
        assert ConstantBeta.horizon(c=2.0, iters=10).value == pytest.approx(0.2)

    def test_warmdown_values(self):
        sched = WarmdownBeta(gamma=0.4, total_steps=10, warmdown_steps=4)
        config = ScgConfig(alpha=0.5, beta=sched, iters=10, eval_every=1)
        values = run(quadratic_1d(), config).beta.tolist()
        assert values[:6] == [0.4] * 6
        assert values[6:] == pytest.approx([0.4 * x / 4 for x in (4, 3, 2, 1)])
        assert all(0.0 < v <= 1.0 for v in values)

    def test_warmdown_default_tail_is_28_percent(self):
        sched = WarmdownBeta(0.1, 100)
        assert sched.warmdown_steps == 28


_scg = partial(ScgConfig, alpha=0.5, beta=ConstantBeta(0.1), iters=10)


@pytest.mark.parametrize("make, message", [
    pytest.param(lambda: _scg(variant="fw"),
                 "unknown variant 'fw'", id="variant"),
    pytest.param(lambda: _scg(alpha=0.0),
                 "alpha must lie in (0, 1], got 0.0", id="alpha-zero"),
    pytest.param(lambda: _scg(alpha=1.5),
                 "alpha must lie in (0, 1], got 1.5", id="alpha-above-one"),
    pytest.param(lambda: _scg(iters=-1),
                 "iters must be nonnegative, got -1", id="iters"),
    pytest.param(lambda: _scg(eval_every=0),
                 "eval_every must be >= 1", id="eval_every"),
    # A float count failed inside run with a TypeError, and True ran one step.
    pytest.param(lambda: _scg(iters=3.5),
                 "iters must be an integer, got 3.5", id="iters-float"),
    pytest.param(lambda: _scg(iters=True),
                 "iters must be an integer, got True", id="iters-bool"),
    pytest.param(lambda: _scg(eval_every=1.5),
                 "eval_every must be an integer, got 1.5", id="eval_every-float"),
    pytest.param(lambda: _scg(seed=1.5),
                 "seed must be an integer, got 1.5", id="seed-float"),
    pytest.param(lambda: _scg(momentum_init="ones"),
                 "unknown momentum_init 'ones'", id="momentum_init"),
    pytest.param(lambda: _scg(radii=(1.0, 0.0)),
                 "all radii must be positive and finite, got (1.0, 0.0)", id="radius"),
    pytest.param(lambda: _scg(radii=(math.nan,)),
                 "all radii must be positive and finite, got (nan,)", id="radius-nan"),
    pytest.param(lambda: _scg(radii=(math.inf,)),
                 "all radii must be positive and finite, got (inf,)", id="radius-inf"),
    pytest.param(lambda: run(quadratic_1d(), _scg(radii=(1.0, 2.0))),
                 "radii must be parallel to the block list", id="radii-length"),
    pytest.param(lambda: ConstantBeta.horizon(c=0.0, iters=10),
                 "c must be positive, got 0.0", id="horizon-c"),
    pytest.param(lambda: WarmdownBeta(0.1, total_steps=10, warmdown_steps=11),
                 "warmdown_steps must lie in [0, total_steps]", id="warmdown-long"),
    pytest.param(lambda: WarmdownBeta(0.1, total_steps=10, warmdown_steps=-1),
                 "warmdown_steps must lie in [0, total_steps]", id="warmdown-negative"),
    pytest.param(lambda: WarmdownBeta(0.0, total_steps=10),
                 "gamma must lie in (0, 1], got 0.0", id="warmdown-gamma"),
    pytest.param(lambda: _run_segments(quadratic_1d(), [_scg(iters=2), _scg(iters=3)]),
                 "the rows of a stack must come longest first", id="stack-order"),
    # A row's own recording, checker, momentum seed and variant would be
    # silently replaced by those of the first row.
    pytest.param(lambda: _run_segments(quadratic_1d(), [
        _scg(), _scg(eval_every=5, check_invariants=False, variant="uscg", momentum_init="zeros")]),
                 "the rows of a stack differ in eval_every, momentum_init, check_invariants, "
                 "variant; they may differ only in seed, iters, alpha and beta", id="stack-settings"),
    pytest.param(lambda: _run_segments(quadratic_1d(), [_scg(), _scg(radii=(2.0,))]),
                 "the rows of a stack differ in radii; they may differ only in seed, iters, "
                 "alpha and beta", id="stack-radii"),
    pytest.param(lambda: _run_segments(quadratic_1d(), [_scg(), _scg(), _scg(store_gradients=True)]),
                 "the rows of a stack differ in store_gradients; they may differ only in seed, "
                 "iters, alpha and beta", id="stack-store"),
])
def test_input_checks_raise_their_message(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_numpy_integer_counts_run_as_python_ints():
    spec = quadratic_1d(sigma=0.5)
    ints = run(spec, _scg(iters=6, seed=4, eval_every=2))
    numpy_ints = run(spec, _scg(iters=np.int64(6), seed=np.int64(4), eval_every=np.int32(2)))
    assert ints.loss.tobytes() == numpy_ints.loss.tobytes() and len(ints) == 3


def one_step(spec, x0, alpha, beta=0.5, **config):
    """The iterate after one run step from x0."""
    cfg = ScgConfig(alpha=alpha, beta=ConstantBeta(beta), iters=1, **config)
    x0 = LayeredPoint([("w", np.asarray(x0, dtype=float))])
    return run(spec, cfg, x0=x0).final_x.arrays[0]


def unit_quadratic(kind, target, radius):
    """One noiseless block with unit curvature: the gradient is x - target."""
    target = np.asarray(target, dtype=float)
    return LayeredQuadratic(
        geometry=(BlockGeometry(kind, target.shape, radius),),
        block_names=("w",),
        curvatures=(1.0,),
        targets=(target,),
        noise=NoiseModel(0.0),
    )


class TestSteps:
    def test_hand_evaluated_single_step(self):
        # f = (x - 10)^2 / 2 at x = 0: gradient -10, direction +1,
        # x' = 0.5 * 0 + 0.5 * 1 * 1 = 0.5
        x_new = one_step(quadratic_1d(), [0.0], alpha=1.0, radii=(1.0,))
        assert x_new[0] == pytest.approx(0.5)

    def test_uscg_sign_block_step(self):
        # the gradient x - 0 at x = 1 is positive -> d = -1
        spec = unit_quadratic("sign", np.zeros(4), radius=1.0)
        x_new = one_step(spec, np.ones(4), alpha=1.0, radii=(0.1,), variant="uscg")
        assert np.allclose(x_new, 0.9)

    def test_uscg_hand_evaluated(self):
        x_new = one_step(quadratic_1d(), [0.0], alpha=1.0, radii=(0.5,), variant="uscg")
        assert x_new[0] == pytest.approx(0.5)

    @given(
        st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
        st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
        st.floats(0.01, 1.0),
        st.floats(0.0, 1.0, exclude_min=True),
    )
    @settings(max_examples=100, deadline=None)
    def test_update_contraction_bound(self, xs, gs, alpha, beta):
        # per block: |x'| <= (1 - beta) |x| + beta * eta, with the gradient
        # xs - target = gs (up to rounding) at the start point
        eta = 2.0
        x = np.array(xs)
        spec = unit_quadratic("euclidean", x - np.array(gs), radius=20.0)
        x_new = one_step(spec, x, alpha, beta, radii=(eta,), momentum_init="zeros")
        lhs = block_primal_norm(x_new, GeometryKind.EUCLIDEAN)
        rhs = (1.0 - beta) * block_primal_norm(x, GeometryKind.EUCLIDEAN) + beta * eta
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
        params = prescribe_params(known_constants(spec), eps=1e-3)
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
        assert csv_text(a) == csv_text(b)
        assert np.array_equal(a.final_x.arrays[0], b.final_x.arrays[0])

    def test_different_seed_differs(self):
        spec = noisy_quadratic()
        cfg = ScgConfig(alpha=0.3, beta=ConstantBeta(0.05), iters=60, seed=42)
        other = ScgConfig(alpha=0.3, beta=ConstantBeta(0.05), iters=60, seed=43)
        assert csv_text(run(spec, cfg)) != csv_text(run(spec, other))

    def test_momentum_telescopes_with_alpha_one(self):
        spec = noisy_quadratic()
        cfg = ScgConfig(
            alpha=1.0, beta=ConstantBeta(0.05), iters=40, seed=1, store_gradients=True
        )
        log = run(spec, cfg)
        # with alpha = 1 the buffer equals the last gradient sample exactly
        (grads,) = log.gradients
        assert grads.shape == (40, 6)
        for m_dual, grad in zip(log.m_dual, grads):
            assert m_dual == pytest.approx(np.linalg.norm(grad), rel=1e-12)

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

    @pytest.mark.parametrize("store_gradients", [False, True])
    @pytest.mark.parametrize("seeds", [None, [1, 2]])
    def test_diverging_run_raises_the_divergence_error(self, seeds, store_gradients):
        # The iterate overflows within 20 steps, and so do the stored
        # gradient samples: a diverging run raises the same error whether or
        # not it stores them.
        spec = LayeredQuadratic(
            geometry=(BlockGeometry("euclidean", (4,), 1e300),),
            block_names=("w",),
            curvatures=(1e10,),
            targets=(np.array([0.1, 0.0, 0.0, 0.0]),),
            noise=NoiseModel(0.1),
        )
        cfg = ScgConfig(alpha=0.5, beta=ConstantBeta(0.5), iters=20, seed=1, variant="uscg",
                        store_gradients=store_gradients)
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="^the run diverged"):
            run(spec, cfg, seeds=seeds)

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
        # Floats are written with 17 significant digits, so every one reads
        # back bit-equal.
        spec = noisy_quadratic()
        cfg = ScgConfig(alpha=0.3, beta=ConstantBeta(0.05), iters=25, seed=9)
        log = run(spec, cfg)
        rows = list(csv.reader(io.StringIO(csv_text(log))))
        assert rows[0] == RUNLOG_CSV_HEADER
        back = dict(zip(rows[0], zip(*rows[1:])))
        for name in ("loss", "x_primal", "g_dual", "m_dual", "beta", "step_disp"):
            assert np.array_equal(getattr(log, name), [float(v) for v in back[name]]), name
        for name in ("k", "stage"):
            assert np.array_equal(getattr(log, name), [int(v) for v in back[name]]), name

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

    @pytest.mark.parametrize("seeds", [None, [11, 12, 13]], ids=["lone", "three-seeds"])
    @pytest.mark.parametrize("eval_every", [1, 3])
    def test_single_stage_matches_plain_run(self, seeds, eval_every):
        # A plan's segment tables and a config's give the same runs, each
        # with the checker armed at every step.
        spec = noisy_quadratic()
        plan = self.make_plan([(4.0, 2.0)], [0.05], [0.3], [8.0 * 50])
        base = ScgConfig(alpha=0.3, beta=ConstantBeta(0.05), iters=50, seed=11,
                         eval_every=eval_every)
        staged, plain = ([logs] if seeds is None else logs for logs in (
            run_staged(spec, plan, base, seeds=seeds), run(spec, base, seeds=seeds)))
        assert len(staged) == len(plain) == len(seeds or [11])
        for s, p in zip(staged, plain):
            assert csv_text(s) == csv_text(p)
            assert s.final_loss == p.final_loss
            assert s.final_x == p.final_x
            assert s.checked_steps == p.checked_steps == 50

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


def sign_quadratic():
    rng = np.random.default_rng(31)
    return LayeredQuadratic(
        geometry=(BlockGeometry("sign", (16,), 1.1),),
        block_names=("w",),
        curvatures=(0.2,),
        targets=(rng.uniform(-0.6, 0.6, 16),),
        noise=NoiseModel(0.3, B=2.0, S=2.0),
    )


def spectral_quadratic():
    rng = np.random.default_rng(32)
    target = rng.standard_normal((4, 3))
    target *= 0.5 / np.linalg.svd(target, compute_uv=False)[0]
    return LayeredQuadratic(
        geometry=(BlockGeometry("spectral", (4, 3), 1.0),),
        block_names=("W",),
        curvatures=(1.5,),
        targets=(target,),
        noise=NoiseModel(0.3, B=2.0, S=2.0),
    )


def mixed_quadratic():
    rng = np.random.default_rng(33)
    spectral = rng.standard_normal((4, 3))
    spectral *= 0.4 / np.linalg.svd(spectral, compute_uv=False)[0]
    euclid = rng.standard_normal((2, 3))
    euclid *= 0.6 / np.linalg.norm(euclid)
    return LayeredQuadratic(
        geometry=(
            BlockGeometry("sign", (8,), 1.0),
            BlockGeometry("euclidean", (2, 3), 1.5),
            BlockGeometry("spectral", (4, 3), 0.8),
        ),
        block_names=("s", "e", "W"),
        curvatures=(0.5, 1.0, 2.0),
        targets=(rng.uniform(-0.5, 0.5, 8), euclid, spectral),
        noise=NoiseModel(0.2, B=2.0, S=4.0),
    )


def low_rank_spectral():
    # A rank-2 target in the top-left corner of a 6x4 block. From x = 0 the
    # gradient, so the momentum, is rank 2 up to noise about 1e-15 of it:
    # the LMO drops the two small singular values every step, while the
    # noise still gives each seed its own trajectory.
    rng = np.random.default_rng(34)
    target = np.zeros((6, 4))
    target[:2, :2] = rng.standard_normal((2, 2))
    target *= 0.5 / np.linalg.svd(target, compute_uv=False)[0]
    return LayeredQuadratic(
        geometry=(BlockGeometry("spectral", (6, 4), 1.0),),
        block_names=("W",),
        curvatures=(1.5,),
        targets=(target,),
        noise=NoiseModel(1e-14, B=2.0, S=2.0),
    )


def logistic():
    return LogisticRegression(
        geometry=(BlockGeometry("euclidean", (12,), 3.0),),
        block_names=("w",),
        n_samples=40,
        dim=12,
        data_seed=4,
        noise=NoiseModel(0.5, B=2.0, S=2.0),
        margin_boost=0.1,
    )


SEED_PROBLEMS = {
    "sign": sign_quadratic,
    "euclidean": noisy_quadratic,
    "spectral": spectral_quadratic,
    "mixed": mixed_quadratic,
    "low_rank_spectral": low_rank_spectral,
    "logistic": logistic,
}


def small_point(spec, seed=7):
    """A start point with 2 |x| <= eta in every block, so the checker arms."""
    rng = np.random.default_rng(seed)
    arrays = []
    for g in spec.geometry:
        a = rng.standard_normal(g.shape)
        arrays.append(a * (0.3 * g.radius_eta / block_primal_norm(a[None], g.kind)[0]))
    return LayeredPoint.from_arrays(spec.block_names, arrays)


# case -> (config, stage plan or None, x0 or None), for a problem spec
SEED_CASES = {
    "every_row_checked": lambda spec: (
        ScgConfig(alpha=0.3, beta=ConstantBeta(0.05), iters=40, eval_every=1), None, None),
    "staged_mid_chunk": lambda spec: (
        # the first stage ends 44 steps into the second 256-step noise chunk
        ScgConfig(alpha=0.2, beta=ConstantBeta(0.01), iters=0, eval_every=7),
        StagePlan((Stage(8.0 * 300, 2.0, 4.0, 0.01, 0.2), Stage(32.0 * 60, 8.0, 4.0, 0.02, 0.3))),
        None),
    "store_gradients": lambda spec: (
        ScgConfig(alpha=0.3, beta=WarmdownBeta(0.1, 30, 10), iters=30, eval_every=4,
                  store_gradients=True), None, None),
    "explicit_x0": lambda spec: (
        ScgConfig(alpha=0.3, beta=ConstantBeta(0.05), iters=30, eval_every=3),
        None, small_point(spec)),
    "zeros_momentum": lambda spec: (
        ScgConfig(alpha=0.25, beta=ConstantBeta(0.1), iters=30, eval_every=2,
                  momentum_init="zeros", check_invariants=False), None, None),
}


class TestStackedSeeds:
    """Seeds stepped together give each seed the RunLog of a lone run."""

    @pytest.mark.parametrize("n_seeds", [1, 2, 5])
    @pytest.mark.parametrize("case", list(SEED_CASES))
    @pytest.mark.parametrize("problem", list(SEED_PROBLEMS))
    def test_each_seed_matches_a_lone_run(self, problem, case, n_seeds):
        spec = SEED_PROBLEMS[problem]()
        config, plan, x0 = SEED_CASES[case](spec)
        seeds = [1000 + 17 * r for r in range(n_seeds)]
        if plan is None:
            logs = run(spec, config, x0, seeds=seeds)
        else:
            logs = run_staged(spec, plan, config, x0, seeds=seeds)
        assert len(logs) == n_seeds
        assert logs.checked_steps == sum(log.checked_steps for log in logs)
        assert logs.invariant_violations == sum(log.invariant_violations for log in logs)
        for seed, log in zip(seeds, logs):
            seeded = replace(config, seed=seed)
            lone = run(spec, seeded, x0) if plan is None else run_staged(spec, plan, seeded, x0)
            assert csv_text(log) == csv_text(lone)
            assert log.final_loss == lone.final_loss
            assert log.final_x == lone.final_x
            assert log.checked_steps == lone.checked_steps
            assert log.invariant_violations == lone.invariant_violations
            assert log.first_violation == lone.first_violation
            assert same_gradients(log, lone)
        if case == "every_row_checked":
            assert all(log.checked_steps == config.iters for log in logs)
        if n_seeds > 1:
            assert csv_text(logs[0]) != csv_text(logs[1])

    @pytest.mark.parametrize("n_points", [1, 3])
    @pytest.mark.parametrize("problem", ["mixed", "rate_study"])
    def test_oracle_writes_into_the_given_buffers(self, problem, n_points):
        # The oracle takes and fills flat (R, n_params) arrays, each row a
        # point's blocks side by side, as in the run loop; each point's
        # gradient must be that of its point alone, whether the oracle's
        # constants are stacked for R points or for one.
        spec = mixed_quadratic() if problem == "mixed" else rate_study_problem()
        rng = np.random.default_rng(8)
        points = [
            LayeredPoint.from_arrays(
                spec.block_names, [rng.uniform(-0.3, 0.3, g.shape) for g in spec.geometry])
            for _ in range(n_points)
        ]
        x = [np.stack(blocks) for blocks in zip(*(p.arrays for p in points))]
        xf = np.stack([p.flatten() for p in points])
        for stacked_for in (1, n_points):
            out = np.full((n_points, spec.total_params), np.nan)
            _, grad_fn = problems.compiled(spec, stacked_for)
            assert grad_fn(xf, out) is out
            for r, point in enumerate(points):
                assert np.array_equal(out[r], problems.grad(spec, point).flatten())
        # The stacked losses carry the bits of each point's loss alone, and
        # of the loss reduced over whole blocks.
        loss_fn, _ = problems.compiled(spec, n_points)
        losses = loss_fn(x)
        assert losses.shape == (n_points,)
        assert [float(v) for v in losses] == [problems.loss(spec, p) for p in points]
        if problem == "mixed":
            whole = [sum(0.5 * lam * float(np.sum((a - t) * (a - t)))
                         for a, lam, t in zip(p.arrays, spec.curvatures, spec.targets))
                     for p in points]
        else:
            whole = [float(np.mean(np.logaddexp(0.0, -spec.labels * (spec.features @ p.arrays[0]))))
                     for p in points]
        assert [float(v) for v in losses] == whole

    def test_x0_and_final_x_are_not_aliased(self):
        spec = mixed_quadratic()
        x0 = small_point(spec)
        before = [a.copy() for a in x0.arrays]
        cfg = ScgConfig(alpha=0.3, beta=ConstantBeta(0.05), iters=20, eval_every=3)
        logs = [run(spec, cfg, x0=x0)] + list(run(spec, cfg, x0=x0, seeds=[1, 2, 3]))
        assert all(np.array_equal(a, b) for a, b in zip(x0.arrays, before))
        finals = [a for log in logs for a in log.final_x.arrays]
        for i, a in enumerate(finals):
            # A copy that owns its data cannot share the run's buffers.
            assert a.flags.owndata
            assert not any(np.shares_memory(a, b) for b in x0.arrays)
            assert not any(np.shares_memory(a, b) for b in finals[i + 1:])

    def test_euclidean_step_handles_each_seed_alone(self):
        # A tiny and a zero momentum block take the rescaled path of
        # scaled_l2_norm; the others must not change because of them, and
        # must be the plain normalized step.
        rng = np.random.default_rng(3)
        m = rng.standard_normal((5, 6))
        m[1] *= 1e-160
        m[2] = 0.0
        x = rng.standard_normal((5, 6))
        for rows in ([0, 3, 4], [0, 1, 2, 3, 4]):
            xs, ms = 0.9 * x[rows], m[rows].copy()
            _step_block(xs, ms, GeometryKind.EUCLIDEAN, np.full_like(ms, 0.1), np.empty_like(ms))
            for r, got in zip(rows, xs):
                lone = 0.9 * x[r:r + 1]
                _step_block(lone, m[r:r + 1].copy(), GeometryKind.EUCLIDEAN,
                            np.full((1, 6), 0.1), np.empty((1, 6)))
                assert np.array_equal(got, lone[0])
                if r not in (1, 2):
                    expected = 0.9 * x[r] - m[r] * (0.1 / np.sqrt(np.vdot(m[r], m[r])))
                    assert np.array_equal(got, expected)
        assert not np.any(np.isnan(xs))

    def test_spectral_step_handles_each_seed_alone(self):
        # One SVD call covers the stack; a rank-2 and a zero momentum matrix
        # sit among full-rank ones, and every seed's step must be the lone
        # step and the exact polar step, bit for bit.
        rng = np.random.default_rng(4)
        m = rng.standard_normal((5, 6, 4))
        m[1] = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 4))
        m[3] = 0.0
        x = rng.standard_normal((5, 6, 4))
        keep, scale = 0.9, 0.1
        xs = keep * x
        nuclear = _step_block(xs, m, GeometryKind.SPECTRAL, np.full_like(m, scale),
                              np.empty_like(m))
        for r in range(5):
            lone = keep * x[r:r + 1]
            lone_nuclear = _step_block(lone, m[r:r + 1], GeometryKind.SPECTRAL,
                                       np.full((1, 6, 4), scale), np.empty((1, 6, 4)))
            assert np.array_equal(xs[r], lone[0]) and nuclear[r] == lone_nuclear[0]
            if r == 3:
                assert np.array_equal(xs[r], keep * x[r]) and nuclear[r] == 0.0
            else:
                U, s, Vt = np.linalg.svd(m[r], full_matrices=False)
                polar = U[:, s > 1e-12 * s[0]] @ Vt[s > 1e-12 * s[0]]
                assert np.array_equal(xs[r], keep * x[r] - scale * polar)
                assert nuclear[r] == pytest.approx(
                    np.linalg.svd(m[r], compute_uv=False).sum(), rel=1e-14)

    def test_overshooting_steps_are_counted_per_seed(self, overshooting_steps):
        # Every block steps three times as far as beta eta: from x0 = 0 the
        # first displacement, 3 beta eta, already breaks its bound 2 beta eta.
        spec = mixed_quadratic()
        config = ScgConfig(alpha=0.3, beta=ConstantBeta(0.05), iters=30, eval_every=4)
        seeds = [3, 4, 5]
        logs = run(spec, config, seeds=seeds)
        for seed, log in zip(seeds, logs):
            assert log.checked_steps == config.iters and log.invariant_violations > 0
            assert log.first_violation.startswith("step 0 block ")
            assert log.first_violation.split()[3].rstrip(":") in spec.block_names
            lone = run(spec, replace(config, seed=seed))
            assert (log.checked_steps, log.invariant_violations, log.first_violation) == (
                lone.checked_steps, lone.invariant_violations, lone.first_violation)

    def test_second_stage_arms_the_seeds_it_may(self, overshooting_steps):
        # The first stage starts outside the half ball (|x_s| = 0.9 against
        # eta = 1), so no seed is checked there. Where each seed's iterate
        # ends decides whether the second stage arms it.
        spec = mixed_quadratic()
        x0 = LayeredPoint.from_arrays(spec.block_names, [
            np.full(g.shape, 0.9 if g.kind is GeometryKind.SIGN else 0.0) for g in spec.geometry])
        plan = StagePlan((Stage(8.0 * 20, 2.0, 4.0, 0.05, 0.3), Stage(8.0 * 20, 2.0, 4.0, 0.02, 0.3)))
        config = ScgConfig(alpha=0.3, beta=ConstantBeta(0.05), iters=0, eval_every=5)
        seeds = list(range(8))
        logs = run_staged(spec, plan, config, x0, seeds=seeds)
        armed = [log.checked_steps > 0 for log in logs]
        assert any(armed) and not all(armed)
        for seed, log, is_armed in zip(seeds, logs, armed):
            if is_armed:
                # Every block breaks its displacement bound at every checked
                # step, so the first block in block order is named.
                assert log.checked_steps == 20
                assert log.invariant_violations == 20 * len(spec.geometry)
                assert log.first_violation.startswith("step 20 block s: ")
            else:
                assert (log.invariant_violations, log.first_violation) == (0, None)
            lone = run_staged(spec, plan, replace(config, seed=seed), x0)
            assert (log.checked_steps, log.invariant_violations, log.first_violation) == (
                lone.checked_steps, lone.invariant_violations, lone.first_violation)

    @pytest.mark.parametrize("rows, settings", [
        pytest.param([(0.05, 60), (0.1, 40), (0.25, 20)], {}, id="three-betas"),
        pytest.param([(0.6, 30), (0.1, 30)], {}, id="one-beta-above-half"),
        pytest.param([(0.05, 600), (0.1, 256)], dict(eval_every=64, check_invariants=False),
                     id="unchecked-retire-record-refill"),
        pytest.param([(0.05, 40), (0.1, 25), (0.25, 10)], dict(store_gradients=True),
                     id="stored-gradients"),
    ])
    def test_rows_with_different_betas_are_checked_per_row(self, overshooting_steps, rows,
                                                           settings):
        # Each row is armed on its own beta and checked against its own bounds
        # 2 beta eta, as a lone run is; in the first case the two shorter rows
        # retire while the checker is armed, and a beta above 1/2 leaves its
        # row unchecked. In the last, unchecked case the steps between events
        # are plain, and at step 256 the shorter row retires, the longer one
        # records a row and the noise chunk is refilled. With stored gradients
        # each row keeps one sample per step, its own arrays, up to its end.
        spec = mixed_quadratic()
        configs = [ScgConfig(alpha=0.3, beta=ConstantBeta(beta), iters=iters, seed=3 + r,
                             **{"eval_every": 3, **settings})
                   for r, (beta, iters) in enumerate(rows)]
        logs = _run_segments(spec, configs)
        for config, log in zip(configs, logs):
            lone = run(spec, config)
            checked = config.check_invariants and config.beta.value <= 0.5
            assert log.checked_steps == (config.iters if checked else 0)
            assert (log.checked_steps, log.invariant_violations, log.first_violation) == (
                lone.checked_steps, lone.invariant_violations, lone.first_violation)
            assert csv_text(log) == csv_text(lone)
            assert same_gradients(log, lone)
            if config.store_gradients:
                assert [g.shape for g in log.gradients] == [
                    (config.iters,) + g.shape for g in spec.geometry]
                others = [g for other in logs if other is not log for g in other.gradients]
                assert not any(np.shares_memory(a, b) for a in log.gradients
                               for b in log.final_x.arrays + others)

    @pytest.mark.parametrize("sigmas", [
        pytest.param((0.3, 0.0), id="noisy-first"),
        pytest.param((0.0, 0.3), id="noiseless-first"),
    ])
    def test_rows_with_and_without_noise_step_together(self, sigmas):
        # Past one noise chunk of 256 steps, with the checker armed: the
        # noiseless row draws nothing, and each row keeps its lone run's bits.
        spec = mixed_quadratic()
        noises = [NoiseModel(sigma, B=2.0, S=2.0) for sigma in sigmas]
        configs = [ScgConfig(alpha=0.3, beta=ConstantBeta(0.05), iters=iters, seed=4 + r,
                             eval_every=3)
                   for r, iters in enumerate((300, 270))]
        logs = _run_segments(spec, configs, noises=noises)
        for config, noise, log in zip(configs, noises, logs):
            lone = run(replace(spec, noise=noise), config)
            assert log.checked_steps == config.iters
            assert csv_text(log) == csv_text(lone)
            assert log.final_x == lone.final_x
            assert (log.checked_steps, log.first_violation) == (
                lone.checked_steps, lone.first_violation)

    @pytest.mark.parametrize("violation", [False, True], ids=["clean", "violation"])
    @pytest.mark.parametrize("eval_every", [1, 3])
    @pytest.mark.parametrize("cap", [1, 2])
    @pytest.mark.parametrize("staged", [False, True], ids=["three-rows", "two-stages"])
    def test_any_chunk_of_snapped_steps_settles_alike(self, staged, cap, eval_every, violation,
                                                      request, monkeypatch):
        # Recorded and checked steps settle in chunks of cap steps, whose
        # buffers the noise budget sizes; a chunk also settles when rows
        # retire (here at steps 11 and 25, mid-chunk at cap 2) and when a
        # stage ends. Each row keeps its lone run's RunLog at the default cap.
        if violation:
            request.getfixturevalue("overshooting_steps")
        spec = mixed_quadratic()
        plan = StagePlan((Stage(8.0 * 15, 2.0, 4.0, 0.05, 0.3), Stage(8.0 * 12, 2.0, 4.0, 0.02, 0.3)))
        configs = [ScgConfig(alpha=0.3, beta=ConstantBeta(beta), iters=iters, seed=3 + r,
                             eval_every=eval_every, store_gradients=True)
                   for r, (beta, iters) in enumerate([(0.05, 40), (0.1, 25), (0.25, 11)])]
        lone = [run_staged(spec, plan, c) if staged else run(spec, c) for c in configs]
        monkeypatch.setattr(optimizer, "_NOISE_CHUNK_VALUES",
                            (4 * cap + 1) * len(configs) * spec.total_params)
        logs = _run_segments(spec, configs, plan if staged else None)
        assert any(log.invariant_violations for log in logs) == violation
        for log, alone in zip(logs, lone):
            assert log.checked_steps > 0
            assert csv_text(log) == csv_text(alone)
            assert log.final_x == alone.final_x and same_gradients(log, alone)
            assert (log.checked_steps, log.invariant_violations, log.first_violation) == (
                alone.checked_steps, alone.invariant_violations, alone.first_violation)

    @pytest.mark.parametrize("eval_every", [1, 3])
    @pytest.mark.parametrize("n_seeds", [1, 3])
    def test_each_spectral_iterate_is_factored_once(self, n_seeds, eval_every, monkeypatch):
        # With the checker armed, a run factors x0 once to arm it, then per
        # step and row m for the step, the displacement and the new x, and g
        # where the step records: the new x serves the next step's x_primal
        # and the second stage's arming.
        spec = mixed_quadratic()
        svd, factored = np.linalg.svd, []

        def counting(a, *args, **kwargs):
            factored.append(int(np.prod(np.shape(a)[:-2])))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        config = ScgConfig(alpha=0.3, beta=ConstantBeta(0.05), iters=40, eval_every=eval_every)
        plan = StagePlan((Stage(8.0 * 30, 2.0, 4.0, 0.05, 0.3), Stage(8.0 * 20, 2.0, 4.0, 0.02, 0.3)))
        for stack, iters in [(partial(run, spec, config), 40),
                             (partial(run_staged, spec, plan, config), 50)]:
            logs = stack(seeds=range(n_seeds))
            assert all(log.checked_steps == iters for log in logs)
            assert sum(factored) == n_seeds * (1 + 3 * iters + len(logs[0]))
            factored.clear()

    @pytest.mark.parametrize("betas", [
        pytest.param((WarmdownBeta(0.1, 30, 10), WarmdownBeta(0.1, 30, 5)), id="two-warmdowns"),
        pytest.param((WarmdownBeta(0.1, 30, 10), ConstantBeta(0.1)), id="warmdown-and-constant"),
        pytest.param((ConstantBeta(0.1), WarmdownBeta(0.1, 30, 10)), id="constant-and-warmdown"),
    ])
    def test_rows_of_a_stack_share_one_warmdown(self, betas):
        spec = sign_quadratic()
        configs = [ScgConfig(alpha=0.3, beta=beta, iters=30, seed=r) for r, beta in enumerate(betas)]
        with pytest.raises(ValueError, match="the rows of one stack share one warmdown"):
            _run_segments(spec, configs)

    @pytest.mark.parametrize("staged", [False, True])
    def test_empty_seed_list_rejected(self, staged):
        spec = sign_quadratic()
        config = ScgConfig(alpha=0.3, beta=ConstantBeta(0.05), iters=10)
        with pytest.raises(ValueError, match="seeds"):
            if staged:
                run_staged(spec, StagePlan((Stage(40.0, 2.0, 2.0, 0.05, 0.3),)), config, seeds=[])
            else:
                run(spec, config, seeds=[])
