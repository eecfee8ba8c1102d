import math
import re
from dataclasses import astuple, replace

import numpy as np
import pytest

from scgscale import experiments, optimizer, problems
from scgscale.experiments import BetaRule, SweepConfig, SweepRow, point_seed, run_sweep
from scgscale.optimizer import ConstantBeta, ScgConfig, run
from scgscale.geometry import BlockGeometry
from scgscale.problems import LayeredQuadratic, NoiseModel
from scgscale.scaling import ProblemConstants, error_law, prescribe_params


def small_problem(sigma=0.2):
    return LayeredQuadratic(
        geometry=(BlockGeometry("euclidean", (4,), 2.0),),
        block_names=("w",),
        curvatures=(1.0,),
        targets=(np.array([1.0, 0.0, 0.0, 0.0]),),
        noise=NoiseModel(sigma),
    )


def sweep_config(grid, rule=None, budget=4096.0, reps=2):
    return SweepConfig(
        problem=small_problem(),
        token_budget=budget,
        grid=grid,
        rule=rule or BetaRule(kind="critical", c=1.0, alpha=0.3),
        repetitions=reps,
        seed_base=5,
    )


# NaN and inf are rejected by name before any work; a sweep with a non-finite
# budget gave every row "cannot convert float NaN to integer".
@pytest.mark.parametrize("make, message", [
    pytest.param(lambda: BetaRule(kind="critical", c=math.nan, alpha=0.3),
                 "c must be finite, got nan", id="rule-c-nan"),
    pytest.param(lambda: BetaRule(kind="critical", c=math.inf, alpha=0.3),
                 "c must be finite, got inf", id="rule-c-inf"),
    pytest.param(lambda: BetaRule(kind="fixed", beta=math.nan, alpha=0.3),
                 "beta must be finite, got nan", id="rule-beta-nan"),
    pytest.param(lambda: BetaRule(kind="critical", alpha=math.nan),
                 "alpha must be finite, got nan", id="rule-alpha-nan"),
    pytest.param(lambda: BetaRule(kind="fixed", beta=0.1, alpha=-math.inf),
                 "alpha must be finite, got -inf", id="rule-alpha-inf"),
    pytest.param(lambda: BetaRule(kind="fixed", beta=0.1, alpha=2.0),
                 "alpha must lie in (0, 1], got 2.0", id="rule-alpha-range"),
    pytest.param(lambda: BetaRule(kind="critical", c=-1.0, alpha=0.3),
                 "c must be positive, got -1.0", id="rule-c-range"),
    pytest.param(lambda: BetaRule(kind="fixed", beta=2.0, alpha=0.5),
                 "beta must lie in (0, 1], got 2.0", id="rule-beta-range"),
    pytest.param(lambda: sweep_config([(2.0, 2.0)], budget=math.nan),
                 "token_budget must be positive and finite, got nan", id="sweep-budget-nan"),
    pytest.param(lambda: sweep_config([(2.0, 2.0)], budget=math.inf),
                 "token_budget must be positive and finite, got inf", id="sweep-budget-inf"),
    pytest.param(lambda: sweep_config([], budget=0.0),
                 "token_budget must be positive and finite, got 0.0", id="sweep-budget-zero"),
])
def test_input_checks_raise_their_message(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


class TestBetaRule:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="rule"):
            BetaRule(kind="magic")

    def test_fixed_needs_values(self):
        with pytest.raises(ValueError, match="beta and alpha"):
            BetaRule(kind="fixed")

    def test_critical_needs_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            BetaRule(kind="critical")

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode 'banana'"):
            BetaRule(kind="critical", alpha=0.1, mode="banana")

    @pytest.mark.parametrize("mode", ["exact", "asymptotic"])
    def test_prescribed_momentum_follows_the_mode(self, mode):
        spec = experiments.regime_sweep_problem()
        # delta0 is raised so that the exact-mode error of the point lies
        # below 2*delta0, where the prescription is defined.
        consts = replace(problems.known_constants(spec), delta0=100.0)
        cfg = SweepConfig(
            problem=spec, token_budget=2.0**20, grid=((64.0, 1.0),),
            rule=BetaRule(kind="prescribed", mode=mode), constants=consts,
        )
        _, _, alpha, law = experiments._point_hyperparameters(cfg, consts, 64.0, 1.0)
        assert law.eps < 2.0 * consts.delta0
        assert alpha == prescribe_params(consts, law.eps, 64.0, mode).alpha


class TestSweep:
    def test_predictions_are_error_law_outputs(self):
        cfg = sweep_config([(4.0, 1.0), (64.0, 1.0)])
        consts = problems.known_constants(cfg.problem)
        result = run_sweep(cfg)
        for row in result.rows:
            law = error_law(cfg.token_budget, row.B, row.S, consts)
            assert row.predicted_eps == pytest.approx(law.eps, rel=1e-12)
            assert row.predicted_regime == law.regime

    def test_shuffle_only_reorders_rows(self):
        grid = [(2.0, 1.0), (8.0, 1.0), (64.0, 1.0)]
        forward = run_sweep(sweep_config(tuple(grid)))
        backward = run_sweep(sweep_config(tuple(reversed(grid))))
        by_b_fwd = {r.B: r for r in forward.rows}
        by_b_bwd = {r.B: r for r in backward.rows}
        assert by_b_fwd.keys() == by_b_bwd.keys()
        for b in by_b_fwd:
            assert by_b_fwd[b] == by_b_bwd[b]

    def test_point_seed_depends_on_point_not_position(self):
        assert point_seed(1, 4.0, 2.0, 0) == point_seed(1, 4.0, 2.0, 0)
        assert point_seed(1, 4.0, 2.0, 0) != point_seed(1, 8.0, 2.0, 0)
        assert point_seed(1, 4.0, 2.0, 0) != point_seed(1, 4.0, 2.0, 1)
        assert point_seed(1, 4.0, 2.0, 0) != point_seed(2, 4.0, 2.0, 0)

    def test_failing_point_fills_error_field(self):
        # c=3 with K = 4096/2048 = 2 < c cannot produce a valid stepsize
        cfg = sweep_config(
            [(4.0, 1.0), (2048.0, 1.0)],
            rule=BetaRule(kind="critical", c=3.0, alpha=0.3),
        )
        result = run_sweep(cfg)
        good, bad = result.rows
        assert good.error is None
        assert bad.error is not None
        assert "beta" in bad.error

    def test_a_non_finite_law_errors_only_its_point(self):
        # L * BS overflows at BS = 2048 only, so eps is inf at that point.
        consts = ProblemConstants(L=1e306, mu=1.0, rho=1.0, sigma_star=0.1)
        cfg = replace(sweep_config([(4.0, 1.0), (2048.0, 1.0)]), constants=consts)
        good, bad = run_sweep(cfg).rows
        error = "the error law is not finite: eps = inf"
        assert as_text([bad]) == as_text(
            [SweepRow(2048.0, 1.0, 0, math.nan, math.nan, math.nan, math.nan, 0, error=error)]
        )
        assert good.error is None and math.isfinite(good.predicted_eps)
        assert good == run_sweep(replace(cfg, grid=((4.0, 1.0),))).rows[0]

    def test_fixed_rule_sets_every_point(self):
        cfg = sweep_config([(4.0, 1.0), (64.0, 1.0)],
                           rule=BetaRule(kind="fixed", beta=0.05, alpha=0.3))
        rows = run_sweep(cfg).rows
        assert [(row.K, row.beta, row.error) for row in rows] == [(1024, 0.05, None),
                                                                  (64, 0.05, None)]
        assert as_text(rows) == as_text([lone_point(cfg, B, S) for B, S in cfg.grid])

    def test_empty_grid_has_no_rows(self):
        assert run_sweep(sweep_config(())).rows == ()

    def test_repetition_std_reported(self):
        cfg = sweep_config([(16.0, 1.0)], reps=3)
        row = run_sweep(cfg).rows[0]
        assert row.final_loss_std > 0.0

    def test_parallel_matches_serial(self):
        cfg = sweep_config([(4.0, 1.0), (16.0, 1.0), (64.0, 1.0)])
        serial = run_sweep(cfg, jobs=1)
        parallel = run_sweep(cfg, jobs=2)
        assert serial.rows == parallel.rows

    def test_pool_never_outnumbers_the_grid(self, monkeypatch):
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
        cfg = sweep_config([(4.0, 1.0), (16.0, 1.0)])
        assert run_sweep(cfg, jobs=8).rows == run_sweep(cfg, jobs=1).rows
        assert sizes == [2]
        run_sweep(sweep_config([(4.0, 1.0)]), jobs=8)
        assert sizes == [2]  # one point runs in this process

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            run_sweep(sweep_config([(4.0, 1.0)]), jobs=jobs)

    def test_needs_a_repetition(self):
        with pytest.raises(ValueError, match="^repetitions must be >= 1$"):
            sweep_config([(4.0, 1.0)], reps=0)

    def test_grid_must_fit_budget(self):
        with pytest.raises(ValueError, match="budget"):
            sweep_config([(8192.0, 1.0)])


def spectral_problem():
    return LayeredQuadratic(
        geometry=(BlockGeometry("spectral", (3, 2), 2.0), BlockGeometry("sign", (2,), 0.5)),
        block_names=("W", "b"),
        curvatures=(1.0, 0.5),
        targets=(np.array([[0.5, 0.0], [0.0, 0.3], [0.1, 0.0]]), np.array([0.2, -0.4])),
        noise=NoiseModel(0.2),
    )


def prescribed_sweep(problem=small_problem):
    # The points differ in K, B, S, alpha and beta; (16, 1) and (2, 8) share K,
    # alpha and beta but not the noise, and (2048, 1) has K = 2 < c.
    return SweepConfig(
        problem=problem(),
        token_budget=4096.0,
        grid=((1.0, 1.0), (4.0, 2.0), (16.0, 1.0), (2.0, 8.0), (64.0, 4.0), (2048.0, 1.0)),
        rule=BetaRule(kind="prescribed", c=3.0),
        repetitions=3,
        seed_base=9,
    )


def lone_point(cfg, B, S):
    """The sweep row of one point from a lone run(seeds=...) of its seeds."""
    try:
        K, beta, alpha, law = experiments._point_hyperparameters(
            cfg, problems.known_constants(cfg.problem), B, S)
        spec = replace(cfg.problem, noise=replace(cfg.problem.noise, B=B, S=S))
        config = ScgConfig(alpha=alpha, beta=ConstantBeta(beta), iters=K,
                           eval_every=experiments._FINAL_LOSS_ONLY, check_invariants=False)
        seeds = [point_seed(cfg.seed_base, B, S, rep) for rep in range(cfg.repetitions)]
        losses = [log.final_loss for log in run(spec, config, seeds=seeds)]
    except (ValueError, FloatingPointError, np.linalg.LinAlgError) as exc:
        return SweepRow(B, S, 0, math.nan, math.nan, math.nan, math.nan, 0, error=str(exc))
    return SweepRow(B, S, K, beta, float(np.mean(losses)), float(np.std(losses, ddof=1)),
                    law.eps, law.regime)


def as_text(rows):
    return [repr(astuple(row)) for row in rows]


def step_with_infinite_scale(monkeypatch, target):
    """Make every block whose step scale is target step with an infinite one."""
    step_block = optimizer._step_block
    monkeypatch.setattr(
        optimizer, "_step_block",
        lambda xb, mb, kind, scale, scratch: step_block(
            xb, mb, kind, np.where(scale == target, np.inf, scale), scratch))


class TestStackedSweep:
    """The rows of every point step together, each bit-equal to its lone run."""

    @pytest.mark.parametrize("problem, jobs", [
        pytest.param(small_problem, 1, id="1"),
        pytest.param(small_problem, 2, id="2"),
        pytest.param(spectral_problem, 1, id="spectral-1"),
        pytest.param(spectral_problem, 2, id="spectral-2"),
    ])
    def test_every_point_matches_its_lone_run(self, problem, jobs):
        cfg = prescribed_sweep(problem)
        expected = [lone_point(cfg, B, S) for B, S in cfg.grid]
        assert len({(row.K, row.beta) for row in expected}) == 5
        assert "below c" in expected[-1].error
        assert as_text(run_sweep(cfg, jobs=jobs).rows) == as_text(expected)

    def test_a_small_stack_cap_splits_between_points(self, monkeypatch):
        cfg = prescribed_sweep()
        expected = run_sweep(cfg).rows
        stacks, lone = [], []

        def counting(spec, configs, **kwargs):
            stacks.append(len(configs))
            return optimizer._run_segments(spec, configs, **kwargs)

        def lone_run(spec, config, seeds):
            lone.append(len(seeds))
            return run(spec, config, seeds=seeds)

        monkeypatch.setattr(experiments, "_run_segments", counting)
        monkeypatch.setattr(experiments, "run", lone_run)
        monkeypatch.setattr(experiments, "_STACK_VALUES", 6 * cfg.problem.total_params)
        assert as_text(run_sweep(cfg).rows) == as_text(expected)
        # 5 points of 3 rows, 2 points to a stack; the last point runs alone.
        assert (stacks, lone) == ([6, 6], [3])

    def test_a_stack_never_splits_a_point(self, monkeypatch):
        cfg = prescribed_sweep()
        expected = run_sweep(cfg).rows
        lone = []

        def lone_run(spec, config, seeds):
            lone.append(len(seeds))
            return run(spec, config, seeds=seeds)

        monkeypatch.setattr(experiments, "run", lone_run)
        monkeypatch.setattr(experiments, "_STACK_VALUES", 1)
        assert as_text(run_sweep(cfg).rows) == as_text(expected)
        assert lone == [3] * 5  # each point's 3 repetitions step together

    def test_rows_whose_noise_underflows_share_a_stack(self, monkeypatch):
        # sigma_star^2 / (B S) is subnormal at B = 1 and zero at B = 8192.
        # The two points step in one stack, the noiseless rows drawing nothing.
        cfg = replace(sweep_config(((1.0, 1.0), (8192.0, 1.0)), budget=8192.0),
                      problem=small_problem(sigma=1e-160))
        assert [problems.per_coordinate_sigma(cfg.problem, replace(cfg.problem.noise, B=B)) > 0
                for B, _ in cfg.grid] == [True, False]
        expected = [lone_point(cfg, B, S) for B, S in cfg.grid]
        assert all(row.error is None for row in expected)
        stacks, lone = [], []

        def counting(spec, configs, **kwargs):
            stacks.append(len(configs))
            return optimizer._run_segments(spec, configs, **kwargs)

        def lone_run(spec, config, seeds):
            lone.append(spec.noise.B)
            return run(spec, config, seeds=seeds)

        monkeypatch.setattr(experiments, "_run_segments", counting)
        monkeypatch.setattr(experiments, "run", lone_run)
        assert as_text(run_sweep(cfg).rows) == as_text(expected)
        assert (stacks, lone) == ([4], [])

    def test_a_diverging_row_errors_only_its_point(self, monkeypatch):
        cfg = prescribed_sweep()
        clean = run_sweep(cfg).rows
        # The rows of (4, 2) step with an infinite scale; no other point has
        # its step scale beta * eta.
        bad = next(row for row in clean if (row.B, row.S) == (4.0, 2.0))
        target = bad.beta * 2.0
        assert sum(row.beta * 2.0 == target for row in clean) == 1
        step_with_infinite_scale(monkeypatch, target)
        lone_runs = []

        def lone_run(spec, config, seeds):
            lone_runs.append(len(seeds))
            return run(spec, config, seeds=seeds)

        monkeypatch.setattr(experiments, "run", lone_run)
        with np.errstate(all="ignore"):
            rows = run_sweep(cfg).rows
            lone = lone_point(cfg, 4.0, 2.0)
        assert lone_runs == []  # the 5 points shared one stack; (4, 2) settled from its rows
        assert lone.error.startswith("the run diverged: a final loss ([")
        assert lone.error.split("[")[1].split("]")[0].count(",") == 2  # its own 3 rows only
        for row, before in zip(rows, clean):
            if (row.B, row.S) == (4.0, 2.0):
                assert row.error == lone.error
            else:
                assert as_text([row]) == as_text([before])

    def test_a_diverging_point_errors_alike_in_the_pool(self, monkeypatch):
        # The worker's lone run diverges, and its error comes back to its row.
        # The workers fork, so they step with the patched _step_block too.
        cfg = prescribed_sweep()
        bad = next(row for row in run_sweep(cfg).rows if (row.B, row.S) == (4.0, 2.0))
        step_with_infinite_scale(monkeypatch, bad.beta * 2.0)
        with np.errstate(all="ignore"):
            serial = run_sweep(cfg).rows
            pooled = run_sweep(cfg, jobs=2).rows
        assert next(row for row in serial if (row.B, row.S) == (4.0, 2.0)).error.startswith(
            "the run diverged: ")
        assert as_text(pooled) == as_text(serial)

    def test_a_diverging_row_keeps_no_final_x(self, monkeypatch):
        # Three rows of a stack, with their own seed, K and beta; the middle
        # one steps with an infinite scale (its beta * eta, which no other row
        # has). It raises nothing in the stack, and the others are untouched.
        spec = small_problem()
        configs = [ScgConfig(alpha=0.3, beta=ConstantBeta(beta), iters=iters, seed=seed,
                             eval_every=5, check_invariants=False)
                   for beta, iters, seed in ((0.02, 60, 1), (0.05, 40, 2), (0.1, 20, 3))]
        target = 0.05 * 2.0
        step_with_infinite_scale(monkeypatch, target)
        with np.errstate(all="ignore"):
            logs = optimizer._run_segments(spec, configs)
            assert len(logs) == 3
            assert logs[1].final_x is None and not math.isfinite(logs[1].final_loss)
            for r in (0, 2):
                lone = run(spec, configs[r])
                assert logs[r].final_x == lone.final_x and logs[r].final_x is not None
                assert logs[r].final_loss == lone.final_loss
                for name in optimizer.RUNLOG_CSV_HEADER:
                    assert np.array_equal(getattr(logs[r], name), getattr(lone, name))
            with pytest.raises(FloatingPointError) as exc_info:
                run(spec, configs[1], seeds=[2, 5])
        assert re.fullmatch(
            r"the run diverged: a final loss \(\[[^],]*, [^],]*\]\), the final iterate "
            r"or a recorded loss or norm is not finite", str(exc_info.value))

    def test_a_failing_spectral_point_errors_only_itself(self, monkeypatch):
        # A diverging row puts NaN into the stacked SVD, which raises for the
        # whole stack; the other points' rows must not take that error.
        cfg = replace(prescribed_sweep(), problem=spectral_problem())
        clean = run_sweep(cfg).rows
        bad = next(row for row in clean if (row.B, row.S) == (4.0, 2.0))
        target = bad.beta * 2.0  # the scale of its spectral block, which no other block has
        assert sum(row.beta * eta == target for row in clean for eta in (2.0, 0.5)) == 1
        stacks = []

        def counting(spec, configs, **kwargs):
            stacks.append(len(configs))
            return optimizer._run_segments(spec, configs, **kwargs)

        step_with_infinite_scale(monkeypatch, target)
        monkeypatch.setattr(experiments, "_run_segments", counting)
        with np.errstate(all="ignore"):
            rows = run_sweep(cfg).rows
            lone = lone_point(cfg, 4.0, 2.0)
        assert stacks == [15]  # the 5 points shared one stack
        assert lone.error == "SVD did not converge"
        for row, before in zip(rows, clean):
            if (row.B, row.S) == (4.0, 2.0):
                assert row.error == lone.error
            else:
                assert as_text([row]) == as_text([before])

    def test_groups_of_two_problems_keep_their_lone_losses(self):
        # A stack steps the problem of its first group, so a group of another
        # problem of the same layout and noise must step in its own stack.
        spec = experiments.regime_sweep_problem()
        flipped = replace(spec, targets=tuple(-t for t in spec.targets))
        groups = [experiments._group(p, 4.0, 1.0, 0.09, 0.01, 300, [1, 2]) for p in (spec, flipped)]
        lone = [experiments._lone_losses(group) for group in groups]
        assert lone[0] != lone[1]
        assert experiments._final_losses(groups) == lone

    def test_groups_of_two_problems_stack_by_problem(self, monkeypatch):
        # The problems alternate in K; each problem's groups still share a stack.
        spec = experiments.regime_sweep_problem()
        flipped = replace(spec, targets=tuple(-t for t in spec.targets))
        groups = [experiments._group(p, 4.0, 1.0, 0.09, 0.01, K, [1, 2])
                  for p, K in ((spec, 300), (flipped, 200), (spec, 100), (flipped, 50))]
        lone = [experiments._lone_losses(group) for group in groups]
        stacks, lone_runs = [], []

        def counting(spec, configs, **kwargs):
            stacks.append(len(configs))
            return optimizer._run_segments(spec, configs, **kwargs)

        def lone_run(spec, config, seeds):
            lone_runs.append(len(seeds))
            return run(spec, config, seeds=seeds)

        monkeypatch.setattr(experiments, "_run_segments", counting)
        monkeypatch.setattr(experiments, "run", lone_run)
        assert experiments._final_losses(groups) == lone
        assert (stacks, lone_runs) == ([4, 4], [])

    def test_rate_study_matches_per_budget_runs(self):
        out = experiments.middle_regime_rates(t_exponents=(10, 11, 12), repetitions=2)
        spec = experiments.rate_study_problem()
        iters = []
        for j, bs, losses in zip((10, 11, 12), out["critical_scales"], out["losses"]):
            K = int(2**j // bs)
            iters.append(K)
            config = ScgConfig(
                alpha=experiments.RATE_STUDY_ALPHA,
                beta=ConstantBeta(min(0.5, experiments.RATE_STUDY_C / K)), iters=K,
                eval_every=experiments._FINAL_LOSS_ONLY, check_invariants=False,
            )
            seeds = [point_seed(77, bs, 1.0, rep + 1000 * j) for rep in range(2)]
            budget_spec = replace(spec, noise=replace(spec.noise, B=bs, S=1.0))
            assert losses == [log.final_loss for log in run(budget_spec, config, seeds=seeds)]
        assert len(set(iters)) == 3


class TestDrivers:
    def test_regime_sweep_rows_are_pinned(self):
        # Rows of the serial, one-seed-at-a-time loop that the seed-stacked
        # loop replaced; every value must stay bit for bit.
        result, _, _ = experiments.regime_sweep(T=2**10, exponents=(0, 3, 6), repetitions=3)
        assert [astuple(row) for row in result.rows] == [
            (1.0, 1.0, 1024, 0.0009765625, 0.0012433226764072154, 0.0002322761814075019,
             0.32477151714509433, 2, None),
            (8.0, 1.0, 128, 0.0078125, 0.0009734268481756091, 0.00018425129446566593,
             0.32477151714509433, 2, None),
            (64.0, 1.0, 16, 0.0625, 0.026596822339518756, 0.0, 1.2688662037379044, 3, None),
        ]

    def test_rate_study_losses_are_pinned(self):
        # Recorded before the logistic data set was cached; the estimated
        # constants and every run read the cached features and labels.
        out = experiments.middle_regime_rates(t_exponents=(14, 17), repetitions=2)
        assert out["critical_scales"] == [273, 1090]
        assert out["losses"] == [
            [0.00025877053767467704, 0.0004181612407887466],
            [0.00013366388299210327, 0.00017409944990307404],
        ]

    def test_regime_sweep_constants_match_problem(self):
        spec = experiments.regime_sweep_problem()
        analytic = problems.known_constants(spec)
        _, consts, bs_star = experiments.regime_sweep(
            T=2**10, exponents=(1, 2, 3), repetitions=1
        )
        assert consts.L == analytic.L
        assert bs_star == pytest.approx(
            (2**10 * consts.mu * consts.rho * consts.sigma_star / consts.L) ** (2 / 3)
        )

    def test_restart_plan_factors(self):
        out = experiments.restart_comparison(trials=1)
        s1, s2 = out["plan"].stages
        assert (s2.B * s2.S) / (s1.B * s1.S) == pytest.approx(4.0)
        assert s2.beta / s1.beta == pytest.approx(0.5)
        assert len(out["staged_losses"]) == 1

    def test_rates_need_a_repetition(self):
        with pytest.raises(ValueError, match="repetitions"):
            experiments.middle_regime_rates(t_exponents=(14, 15), repetitions=0)

    def test_rates_raise_what_a_budget_raises(self, monkeypatch):
        # Every row diverges, in the stack and then alone; the first budget's
        # lone-run error reaches the caller.
        step_block = optimizer._step_block
        monkeypatch.setattr(
            optimizer, "_step_block",
            lambda xb, mb, kind, scale, scratch: step_block(xb, mb, kind, np.inf * scale, scratch))
        consts = ProblemConstants(L=1.0, mu=1.0, rho=1.0, sigma_star=0.01, c=2.0)
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="^the run diverged"):
            experiments.middle_regime_rates(t_exponents=(6, 7), repetitions=1, constants=consts)

    @pytest.mark.parametrize("t_exponents", [(), (14,), (14, 14)])
    def test_rates_need_two_budgets(self, monkeypatch, t_exponents):
        def pilot(spec):
            raise AssertionError("the pilot ran")

        monkeypatch.setattr(experiments, "estimate_logistic_constants", pilot)
        with pytest.raises(ValueError, match="t_exponents"):
            experiments.middle_regime_rates(t_exponents=t_exponents)

    @pytest.mark.parametrize("factor", [1.0, 0.5, math.nan])
    def test_restart_needs_a_growing_budget(self, factor):
        with pytest.raises(ValueError, match="budget_factor"):
            experiments.restart_comparison(budget_factor=factor, trials=1)

    def test_restart_names_a_stage_too_large_to_run(self):
        # Stage 1 of a 1e300-fold budget takes about 4e102 steps.
        with pytest.raises(OverflowError, match=r"^stage 1 takes .* steps, too large"):
            experiments.restart_comparison(trials=1, budget_factor=1e300)

    def test_restart_needs_a_trial(self):
        with pytest.raises(ValueError, match="trials"):
            experiments.restart_comparison(trials=0)

    @pytest.mark.parametrize("sigma_star", [0.01, 0.0])
    def test_rho_samples_are_those_of_200_grad_sample_calls(self, monkeypatch, sigma_star):
        # One exact gradient and one (200, dim) draw stand for 200
        # grad_sample calls on the pilot generator, bit for bit: estimate_rho
        # gets their residuals from the exact gradient as one stack.
        spec = replace(experiments.rate_study_problem(), noise=NoiseModel(sigma_star))
        seen = []

        def spy(diffs, geometry, window):
            seen.extend(diffs)
            return 1.0

        monkeypatch.setattr(experiments, "estimate_rho", spy)
        experiments.estimate_logistic_constants(spec, pilot_iters=200)
        pilot_spec = replace(spec, noise=NoiseModel(sigma_star, B=64.0))
        x = problems.initial_point(spec)
        ref = problems.grad(spec, x).flatten()
        rng = np.random.default_rng(experiments.RATE_STUDY_PILOT_SEED + 1)
        (residuals,) = seen
        assert residuals.shape == (200, experiments.RATE_STUDY_DIM)
        for residual in residuals:
            expected = problems.grad_sample(pilot_spec, x, rng).flatten() - ref
            assert residual.tobytes() == expected.tobytes()
        assert (not residuals[0].any()) == (sigma_star == 0.0)

    def test_rate_study_estimates_positive_constants(self):
        spec = experiments.rate_study_problem()
        consts = experiments.estimate_logistic_constants(spec, pilot_iters=200)
        assert consts.L > 0 and consts.mu > 0 and consts.rho > 0
