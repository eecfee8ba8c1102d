import hashlib
import itertools
import math
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scgscale.estimation import PowerLawModel, PowerLawTerm
from scgscale.scaling import (
    ProblemConstants,
    Stage,
    TunedConfig,
    critical_bs,
    error_law,
    nonconvex_rule,
    plan_stages,
    round_scale,
    sqrt_rule,
    prescribe_params,
    prescribed_alpha,
    transfer_model_size,
    transfer_token_budget,
)

UNIT = ProblemConstants(L=1.0, mu=1.0, rho=1.0, sigma_star=1.0)


positive = st.floats(0.1, 10.0)


class TestProblemConstants:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ProblemConstants(L=0.0, mu=1.0, rho=1.0, sigma_star=1.0)
        with pytest.raises(ValueError):
            ProblemConstants(L=1.0, mu=1.0, rho=1.0, sigma_star=-0.1)

    def test_zero_noise_allowed(self):
        ProblemConstants(L=1.0, mu=1.0, rho=1.0, sigma_star=0.0)


class TestPrescription:
    def test_zero_noise_gives_alpha_one(self):
        consts = ProblemConstants(L=1.0, mu=1.0, rho=1.0, sigma_star=0.0, delta0=1.0)
        assert prescribe_params(consts, eps=0.1).alpha == 1.0

    def test_eta_formula_with_unit_log_term(self):
        # delta0 chosen so log(2 delta0 / eps) = 1: eta = 2 e^{3/2} / mu
        eps = 0.5
        consts = ProblemConstants(
            L=1.0, mu=1.0, rho=1.0, sigma_star=1.0, delta0=math.e * eps / 2.0
        )
        params = prescribe_params(consts, eps=eps)
        assert params.eta == pytest.approx(2.0 * math.exp(1.5), rel=1e-12)

    def test_larger_bs_weakly_decreases_iters(self):
        consts = ProblemConstants(L=1.0, mu=1.0, rho=1.0, sigma_star=1.0, delta0=5.0)
        ks = [prescribe_params(consts, eps=0.05, bs=b).iters for b in (1, 2, 4, 8, 64)]
        assert all(k1 >= k2 for k1, k2 in zip(ks, ks[1:]))

    def test_eps_above_two_delta0_rejected(self):
        consts = ProblemConstants(L=1.0, mu=1.0, rho=1.0, sigma_star=1.0, delta0=1.0)
        with pytest.raises(ValueError, match="2\\*delta0"):
            prescribe_params(consts, eps=2.0)

    def test_beta_consistent_with_iters(self):
        consts = ProblemConstants(L=1.0, mu=1.0, rho=1.0, sigma_star=1.0, delta0=5.0)
        p = prescribe_params(consts, eps=0.05)
        assert p.beta == pytest.approx(consts.c / p.iters)

    def test_asymptotic_mode_drops_prefactors(self):
        consts = ProblemConstants(L=1.0, mu=1.0, rho=1.0, sigma_star=0.0, delta0=math.e / 2.0)
        p = prescribe_params(consts, eps=1.0, mode="asymptotic")
        assert p.eta == pytest.approx(1.0)
        assert p.iters == max(2, math.ceil(1.0))


class TestErrorLaw:
    def test_terms_balance_at_critical_point(self):
        # with unit constants and T = 8, BS = 4 = T^{2/3}: terms 1 and 2 equal
        law = error_law(8.0, 4.0, 1.0, UNIT, mode="asymptotic")
        assert law.terms[0] == pytest.approx(0.5)
        assert law.terms[1] == pytest.approx(0.5)

    def test_small_bs_point(self):
        law = error_law(8.0, 1.0, 1.0, UNIT, mode="asymptotic")
        assert law.terms[0] == pytest.approx(1.0 / 8.0)
        assert law.terms[1] == pytest.approx(0.5)
        assert law.terms[2] == pytest.approx(1.0 / 64.0 ** (1.0 / 6.0)) == pytest.approx(0.5)

    def test_monotone_terms_in_bs(self):
        for bs1, bs2 in [(1.0, 2.0), (4.0, 32.0), (100.0, 1000.0)]:
            a = error_law(1e6, bs1, 1.0, UNIT, mode="asymptotic")
            b = error_law(1e6, bs2, 1.0, UNIT, mode="asymptotic")
            assert b.terms[0] >= a.terms[0]
            assert b.terms[2] <= a.terms[2]

    def test_max_is_attained_by_dominant(self):
        law = error_law(2**20, 64.0, 2.0, UNIT, mode="exact")
        assert law.eps == law.terms[3 - law.regime]

    def test_regime_nondecreasing_in_bs(self):
        consts = ProblemConstants(L=2.0, mu=0.5, rho=3.0, sigma_star=0.7)
        T = 2**22
        regimes = [
            error_law(T, float(2**j), 1.0, consts, mode="asymptotic").regime
            for j in range(0, 22)
        ]
        assert all(r1 <= r2 for r1, r2 in zip(regimes, regimes[1:]))
        assert regimes[-1] == 3

    def test_budget_below_one_step_rejected(self):
        with pytest.raises(ValueError):
            error_law(4.0, 8.0, 1.0, UNIT)

    def test_step_below_one_token_rejected(self):
        with pytest.raises(ValueError, match=r"^B \* S must be >= 1$"):
            error_law(4.0, 0.5, 1.0, UNIT)


# Constants covering both sides of every max in the laws, with and without
# noise. The asymptotic outputs over this grid are pinned bit for bit by the
# sha256 of their float.hex() text; the exact outputs at a few points to 1e-12.
PIN_GRID = [
    ProblemConstants(L, mu, rho, sigma, delta0, c)
    for L, mu, rho, sigma, delta0, c in itertools.product(
        (0.3, 1.0, 7.2), (0.05, 0.5, 3.1), (1.0, 3.0, 62.7), (0.0, 0.1, 2.5),
        (1.0, 40.0), (0.5, 1.0, 2.0))
]
PIN_A = ProblemConstants(L=7.2, mu=3.1, rho=62.7, sigma_star=0.1, delta0=40.0, c=1.0)
PIN_B = ProblemConstants(L=0.3, mu=0.5, rho=3.0, sigma_star=2.5, delta0=1.0, c=2.0)
PIN_C = ProblemConstants(L=1.0, mu=1.0, rho=1.0, sigma_star=1e-3, delta0=10.0, c=1.0)
PIN_D = ProblemConstants(L=0.01, mu=50.0, rho=1.0, sigma_star=0.0, delta0=1.0, c=0.5)


def hex_digest(values):
    text = " ".join(v.hex() if isinstance(v, float) else str(v) for v in values)
    return hashlib.sha256(text.encode()).hexdigest()


class TestPinnedLaws:
    def test_asymptotic_error_law_bits(self):
        values = []
        for consts, T, (B, S) in itertools.product(
                PIN_GRID, (2.0**10, 2.0**20, 1.3e9),
                ((1.0, 1.0), (3.0, 1.0), (64.0, 2.0), (1000.0, 1.0))):
            law = error_law(T, B, S, consts, mode="asymptotic")
            values += [law.eps, *law.terms, law.regime]
        assert hex_digest(values) == (
            "69bdcd027f317af21144b618639a66fd2734b4803359226195d57962b6e43c77")

    def test_asymptotic_prescription_bits(self):
        params, alphas = [], []
        for consts, eps, bs in itertools.product(PIN_GRID, (0.01, 0.3, 1.5), (1.0, 4.0, 1000.0)):
            p = prescribe_params(consts, eps, bs, mode="asymptotic")
            params += [p.beta, p.eta, p.alpha, p.iters]
            alphas.append(prescribed_alpha(consts, eps, bs, "asymptotic"))
        assert hex_digest(params) == (
            "40df45b2aaebb14cfad810a7823a36a29ce2177bf4e2fbd358cbe161fd57874c")
        assert hex_digest(alphas) == (
            "8726570565749dfac63cc1694478aebc8176449f9e91bc9aa991fcd862c5fd73")

    @pytest.mark.parametrize("T,B,S,consts,terms,regime", [
        (2.0**20, 64.0, 2.0, PIN_A, (0.23513245617675463, 5.3666001162991, 1.2718305384671074), 2),
        (2.0**30, 1.0, 1.0, PIN_C,
         (2.3943825868591862e-06, 0.003665436070154549, 0.00014005278344806458), 2),
        (2.0**20, 2.0**19, 1.0, PIN_C,
         (1285.4743630840105, 0.03694528049465325, 0.00015720393418054362), 3),
        (4.0, 1.0, 1.0, PIN_B, (15491.665670121027, 11292.302250525247, 6073.485784311564), 3),
    ])
    def test_exact_error_law_points(self, T, B, S, consts, terms, regime):
        law = error_law(T, B, S, consts, mode="exact")
        assert law.terms == pytest.approx(terms, rel=1e-12, abs=0.0)
        assert law.eps == max(law.terms)
        assert law.regime == regime

    @pytest.mark.parametrize("consts,eps,bs,eta,alpha,iters", [
        (PIN_C, 5.0, 16.0, 12.425880573004607, 1.0, 713),
        (PIN_C, 1.0, 1e6, 26.851881176091844, 1.0, 7702),
        (PIN_D, 1.0, 1.0, 0.11739140742083463, 1.0, 1),
        (PIN_A, 30.0, 1e4, 2.8359817697358074, 1.0, 63),
        (PIN_B, 1.5, 1000.0, 11.556497776738787, 2.4206564225257412e-05, 490960435),
    ])
    def test_exact_prescription_points(self, consts, eps, bs, eta, alpha, iters):
        p = prescribe_params(consts, eps, bs, mode="exact")
        assert p.eta == pytest.approx(eta, rel=1e-12, abs=0.0)
        assert p.alpha == pytest.approx(alpha, rel=1e-12, abs=0.0)
        assert prescribed_alpha(consts, eps, bs, "exact") == p.alpha
        assert p.iters == iters
        assert p.beta == consts.c / iters

    @pytest.mark.parametrize("call", [
        lambda: error_law(8.0, 1.0, 1.0, UNIT, mode="banana"),
        lambda: prescribe_params(UNIT, 0.5, mode="banana"),
        lambda: prescribed_alpha(UNIT, 0.5, 1.0, "banana"),
    ], ids=["error_law", "prescribe_params", "prescribed_alpha"])
    def test_unknown_mode_rejected(self, call):
        with pytest.raises(ValueError, match="unknown mode 'banana'"):
            call()


class TestCriticalBs:
    def test_unit_example(self):
        assert critical_bs(8.0, UNIT) == pytest.approx(4.0)

    def test_two_thirds_homogeneity(self):
        assert critical_bs(8.0 * 8.0, UNIT) == pytest.approx(4.0 * critical_bs(8.0, UNIT))

    @given(positive, positive, positive, positive, st.floats(1e2, 1e8))
    @settings(max_examples=100, deadline=None)
    def test_first_two_terms_coincide_at_critical(self, L, mu, rho, sigma, T):
        consts = ProblemConstants(L=L, mu=mu, rho=rho, sigma_star=sigma)
        bs = critical_bs(T, consts)
        if bs < 1 or bs > T:
            return
        law = error_law(T, bs, 1.0, consts, mode="asymptotic")
        assert law.terms[0] == pytest.approx(law.terms[1], rel=1e-10)

    def test_needs_positive_noise(self):
        with pytest.raises(ValueError):
            critical_bs(8.0, ProblemConstants(L=1.0, mu=1.0, rho=1.0, sigma_star=0.0))


BASE = TunedConfig(B0=256.0, S0=1024.0, beta0=3.6e-4, alpha0=0.1, T0=1.3e9)


class TestTransferModelSize:
    def test_identity_transfer(self):
        bs1, beta1 = transfer_model_size(BASE, UNIT, UNIT, T1=BASE.T0)
        assert bs1 == pytest.approx(BASE.B0 * BASE.S0)
        assert beta1 == pytest.approx(BASE.beta0)

    def test_published_model_pair_factors(self):
        # base 124M model vs 1B target at matched tokens-per-parameter
        consts0 = ProblemConstants(L=7.2, mu=3.1, rho=62.7, sigma_star=1.0)
        consts1 = ProblemConstants(L=10.6, mu=2.9, rho=111.9, sigma_star=1.0)
        bs1, beta1 = transfer_model_size(BASE, consts0, consts1, T1=BASE.T0 * 1000.0 / 124.0)
        assert bs1 / (BASE.B0 * BASE.S0) == pytest.approx(4.37, abs=0.01)
        assert beta1 / BASE.beta0 == pytest.approx(0.54, abs=0.01)

    def test_power_of_two_rounding(self):
        assert round_scale(4.37, "pow2") == 4.0
        assert round_scale(100.0, "mult32") == 96.0
        assert round_scale(3.3, "none") == 3.3

    @given(positive, positive, positive, positive, positive, positive,
           st.floats(0.5, 8.0), st.floats(0.5, 8.0))
    @settings(max_examples=60, deadline=None)
    def test_transfer_composes(self, l1, m1, r1, l2, m2, r2, t1_fac, t2_fac):
        c0 = UNIT
        c1 = ProblemConstants(L=l1, mu=m1, rho=r1, sigma_star=1.0)
        c2 = ProblemConstants(L=l2, mu=m2, rho=r2, sigma_star=1.0)
        T1 = BASE.T0 * t1_fac
        T2 = T1 * t2_fac
        bs1, beta1 = transfer_model_size(BASE, c0, c1, T1=T1)
        mid = TunedConfig(B0=bs1 / BASE.S0, S0=BASE.S0, beta0=beta1, alpha0=BASE.alpha0, T0=T1)
        step2 = transfer_model_size(mid, c1, c2, T1=T2)
        direct = transfer_model_size(BASE, c0, c2, T1=T2)
        assert step2 == pytest.approx(direct, rel=1e-9)


class TestTransferTokenBudget:
    def test_constant_rho_closed_form(self):
        b1, beta1 = transfer_token_budget(BASE, PowerLawModel(3.0, ()), T1=8.0 * BASE.T0)
        assert b1 == pytest.approx(BASE.B0 * 8.0 ** (2.0 / 3.0), rel=1e-6)
        assert beta1 == pytest.approx(BASE.beta0 * 8.0 ** (-1.0 / 3.0), rel=1e-6)

    def test_same_budget_is_identity(self):
        model = PowerLawModel(4.1, (PowerLawTerm("batch_size", -9.4, 0.1),))
        b1, beta1 = transfer_token_budget(BASE, model, T1=BASE.T0)
        assert b1 == pytest.approx(BASE.B0, rel=1e-6)
        assert beta1 == pytest.approx(BASE.beta0, rel=1e-6)

    def test_published_batch_term_fixed_points(self):
        model = PowerLawModel(4.1, (PowerLawTerm("batch_size", -9.4, 0.1),))
        for t1, ref in [(2.7e9, 416.0), (5.3e9, 672.0), (8.0e9, 896.0)]:
            b1, _ = transfer_token_budget(BASE, model, T1=t1)
            assert abs(b1 - ref) / ref < 0.05

    def test_divergent_rho_fails(self):
        cubic = PowerLawModel(1.0, (PowerLawTerm("batch_size", 0.0, 3.0),))
        with pytest.raises(FloatingPointError, match="converge"):
            transfer_token_budget(BASE, cubic, T1=8.0 * BASE.T0)

    @pytest.mark.parametrize("exponent, factor", [
        pytest.param(120.0, 8.0, id="rho-overflows"),  # rho(B0) is finite, rho(4 B0) is not
        # Each damped step multiplies B by about 1.01: after 1000 it is still
        # moving and far below the divergence cap.
        pytest.param(1.5, 1.02 ** 1.5, id="never-settles"),
    ])
    def test_fixed_point_that_fails_to_settle(self, exponent, factor):
        model = PowerLawModel(1.0, (PowerLawTerm("batch_size", 0.0, exponent),))
        with pytest.raises(FloatingPointError, match="^token-budget fixed point did not converge"):
            transfer_token_budget(BASE, model, T1=factor * BASE.T0)

    @pytest.mark.parametrize("t1", [0.0, -1e9])
    def test_non_positive_budget_rejected(self, t1):
        with pytest.raises(ValueError, match="T1 must be positive"):
            transfer_token_budget(BASE, PowerLawModel(3.0, ()), T1=t1)


class TestPlanStages:
    def test_single_budget_reproduces_base(self):
        plan = plan_stages(BASE, UNIT, UNIT, [BASE.T0])
        assert len(plan.stages) == 1
        st0 = plan.stages[0]
        assert st0.B * st0.S == pytest.approx(BASE.B0 * BASE.S0)
        assert st0.beta == pytest.approx(BASE.beta0)
        assert st0.alpha == BASE.alpha0

    def test_two_stage_doubling_rule(self):
        plan = plan_stages(BASE, UNIT, UNIT, [BASE.T0, 8.0 * BASE.T0])
        s1, s2 = plan.stages
        assert s2.B * s2.S == pytest.approx(4.0 * s1.B * s1.S, rel=1e-9)
        assert s2.beta == pytest.approx(0.5 * s1.beta, rel=1e-9)
        assert sum(s.token_allotment for s in plan.stages) == pytest.approx(8.0 * BASE.T0)

    def test_three_stages_compose_multiplicatively(self):
        plan = plan_stages(BASE, UNIT, UNIT, [BASE.T0, 8 * BASE.T0, 64 * BASE.T0])
        s1, s2, s3 = plan.stages
        assert s3.B * s3.S == pytest.approx(16.0 * s1.B * s1.S, rel=1e-9)
        assert s3.beta == pytest.approx(0.25 * s1.beta, rel=1e-9)

    def test_budgets_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            plan_stages(BASE, UNIT, UNIT, [BASE.T0, BASE.T0])

    def test_alpha_constant_across_stages(self):
        plan = plan_stages(BASE, UNIT, UNIT, [BASE.T0, 3 * BASE.T0, 9 * BASE.T0])
        assert all(s.alpha == BASE.alpha0 for s in plan.stages)


_stage = partial(Stage, token_allotment=64.0, B=2.0, S=2.0, beta=0.1, alpha=0.5)


@pytest.mark.parametrize("make, message", [
    pytest.param(lambda: _stage(token_allotment=0.0),
                 "token_allotment must be positive and finite, got 0.0", id="stage-tokens"),
    pytest.param(lambda: _stage(token_allotment=math.nan),
                 "token_allotment must be positive and finite, got nan", id="stage-tokens-nan"),
    pytest.param(lambda: _stage(token_allotment=math.inf),
                 "token_allotment must be positive and finite, got inf", id="stage-tokens-inf"),
    pytest.param(lambda: _stage(B=0.5), "B and S must be finite and >= 1, got B=0.5 S=2.0",
                 id="stage-B"),
    pytest.param(lambda: _stage(S=0.5), "B and S must be finite and >= 1, got B=2.0 S=0.5",
                 id="stage-S"),
    pytest.param(lambda: _stage(B=math.nan), "B and S must be finite and >= 1, got B=nan S=2.0",
                 id="stage-B-nan"),
    pytest.param(lambda: _stage(S=math.inf), "B and S must be finite and >= 1, got B=2.0 S=inf",
                 id="stage-S-inf"),
    pytest.param(lambda: _stage(beta=1.5),
                 "stage beta must lie in (0, 1], got 1.5", id="stage-beta"),
    pytest.param(lambda: _stage(alpha=0.0),
                 "stage alpha must lie in (0, 1], got 0.0", id="stage-alpha"),
    pytest.param(lambda: plan_stages(BASE, UNIT, UNIT, [BASE.T0, math.inf]),
                 "budgets must be positive and finite", id="plan-inf"),
    pytest.param(lambda: plan_stages(BASE, UNIT, UNIT, [math.nan]),
                 "budgets must be positive and finite", id="plan-nan"),
    pytest.param(lambda: round_scale(0.0, "pow2"), "value must be positive", id="round-zero"),
    pytest.param(lambda: round_scale(64.0, "mult64"),
                 "unknown rounding policy 'mult64'", id="round-policy"),
    pytest.param(lambda: prescribe_params(UNIT, eps=0.1, bs=0.5), "bs must be >= 1",
                 id="prescribe-bs"),
    pytest.param(lambda: critical_bs(0.0, UNIT), "T must be positive", id="critical-T"),
    pytest.param(lambda: transfer_model_size(BASE, UNIT, UNIT, T1=0.0),
                 "token budgets must be positive", id="model-size-T1"),
    # 1e-300 * 256^-100 underflows to zero.
    pytest.param(lambda: transfer_token_budget(
        BASE, PowerLawModel(1e-300, (PowerLawTerm("batch_size", 0.0, -100.0),)), T1=BASE.T0),
                 "rho at the base batch size must be positive", id="token-budget-rho0"),
    pytest.param(lambda: sqrt_rule(BASE, 0.0), "T1 must be positive", id="sqrt-T1"),
    pytest.param(lambda: nonconvex_rule(BASE, UNIT, UNIT, D0=0.0, D1=1.0),
                 "model sizes must be positive", id="nonconvex-D"),
])
def test_input_checks_raise_their_message(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


class TestBaselineRules:
    def test_sqrt_rule_identity(self):
        bs1, beta1 = sqrt_rule(BASE, BASE.T0)
        assert bs1 == pytest.approx(BASE.B0 * BASE.S0)
        assert beta1 == pytest.approx(BASE.beta0)

    def test_sqrt_rule_factor_eight(self):
        bs1, beta1 = sqrt_rule(BASE, 8.0 * BASE.T0)
        assert bs1 / (BASE.B0 * BASE.S0) == pytest.approx(math.sqrt(8.0))
        assert bs1 / BASE.S0 == pytest.approx(724.077, abs=0.01)
        assert beta1 / BASE.beta0 == pytest.approx(0.35355, abs=1e-4)

    def test_sqrt_rule_factor_four(self):
        bs1, beta1 = sqrt_rule(BASE, 4.0 * BASE.T0)
        assert bs1 == pytest.approx(2.0 * BASE.B0 * BASE.S0)
        assert beta1 == pytest.approx(BASE.beta0 / 2.0)

    def test_nonconvex_identity(self):
        assert nonconvex_rule(BASE, UNIT, UNIT, 1.0, 1.0) == pytest.approx(
            BASE.B0 * BASE.S0
        )

    def test_nonconvex_model_size_quadrupled(self):
        assert nonconvex_rule(BASE, UNIT, UNIT, 1.0, 4.0) == pytest.approx(
            2.0 * BASE.B0 * BASE.S0
        )

    def test_nonconvex_mixed_ratios(self):
        c0 = UNIT
        c1 = ProblemConstants(L=2.0, mu=1.0, rho=2.0, sigma_star=1.0)
        # sqrt(2 * 4 / 2) = 2
        assert nonconvex_rule(BASE, c0, c1, 1.0, 2.0) == pytest.approx(
            2.0 * BASE.B0 * BASE.S0
        )
