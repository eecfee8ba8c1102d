from dataclasses import replace

import numpy as np
import pytest

from scgscale import experiments, problems
from scgscale.experiments import BetaRule, SweepConfig, point_seed, run_sweep
from scgscale.geometry import BlockGeometry
from scgscale.problems import LayeredQuadratic, NoiseModel
from scgscale.scaling import error_law, prescribe_params


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

    @pytest.mark.parametrize("mode", ["exact", "asymptotic"])
    def test_prescribed_momentum_follows_the_mode(self, mode):
        spec = experiments.regime_sweep_problem()
        # delta0 is raised so that the exact-mode error of the point lies
        # below 2*delta0, where the prescription is defined.
        consts = replace(problems.known_constants(spec).constants, delta0=100.0)
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
        consts = cfg.resolved_constants()
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

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", SerialPool)
        cfg = sweep_config([(4.0, 1.0), (16.0, 1.0)])
        assert run_sweep(cfg, jobs=8).rows == run_sweep(cfg, jobs=1).rows
        assert sizes == [2]
        run_sweep(sweep_config([(4.0, 1.0)]), jobs=8)
        assert sizes == [2]  # one point runs in this process

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            run_sweep(sweep_config([(4.0, 1.0)]), jobs=jobs)

    def test_eval_stride_does_not_change_rows(self):
        # Points keep only the final loss, so how often a run records rows
        # cannot move any number in a sweep row.
        grid = ((2.0, 1.0), (8.0, 1.0), (64.0, 1.0))
        default = run_sweep(sweep_config(grid))
        every_step = run_sweep(replace(sweep_config(grid), eval_stride=1))
        assert default.rows == every_step.rows

    def test_grid_must_fit_budget(self):
        with pytest.raises(ValueError, match="budget"):
            sweep_config([(8192.0, 1.0)])


class TestDrivers:
    def test_regime_sweep_constants_match_problem(self):
        spec = experiments.regime_sweep_problem()
        analytic = problems.known_constants(spec)
        _, consts, bs_star = experiments.regime_sweep(
            T=2**10, exponents=(1, 2, 3), repetitions=1
        )
        assert consts.L == analytic.constants.L
        assert bs_star == pytest.approx(
            (2**10 * consts.mu * consts.rho * consts.sigma_star / consts.L) ** (2 / 3)
        )

    def test_restart_plan_factors(self):
        out = experiments.restart_comparison(trials=1)
        s1, s2 = out["plan"].stages
        assert (s2.B * s2.S) / (s1.B * s1.S) == pytest.approx(4.0)
        assert s2.beta / s1.beta == pytest.approx(0.5)
        assert len(out["staged_losses"]) == 1

    def test_rate_study_estimates_positive_constants(self):
        spec = experiments.rate_study_problem()
        consts = experiments.estimate_logistic_constants(spec, pilot_iters=200)
        assert consts.L > 0 and consts.mu > 0 and consts.rho > 0
