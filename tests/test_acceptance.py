"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The slow experiment data (the batch-scale sweep and the token-budget rate
study) is produced once per session by module-scoped fixtures and shared by
the criteria that read different aspects of the same curves.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from scgscale import cli, experiments, problems
from scgscale.estimation import (
    bundled_constant_laws,
    estimate_L,
    estimate_mu,
    fit_power_law,
    FitTerm,
)
from scgscale.geometry import (
    BlockGeometry,
    GeometryKind,
    LayeredPoint,
    block_primal_norm,
    lmo_block,
    newton_schulz_polar,
)
from scgscale.optimizer import ConstantBeta, ScgConfig, run
from scgscale.problems import LayeredQuadratic, NoiseModel, grad_sample
from scgscale.scaling import TunedConfig, transfer_token_budget


def report(num, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} [{status}] {label}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def sweep_data():
    start = time.time()
    result, consts, bs_star = experiments.regime_sweep()
    elapsed = time.time() - start
    bs = np.array([r.B * r.S for r in result.rows])
    losses = np.array([r.final_loss_mean for r in result.rows])
    assert not any(r.error for r in result.rows)
    return {"bs": bs, "losses": losses, "bs_star": bs_star, "elapsed": elapsed}


@pytest.fixture(scope="module")
def rate_data():
    start = time.time()
    out = experiments.middle_regime_rates(repetitions=5)
    out["elapsed"] = time.time() - start
    return out


def test_c01_transfer_factors_match_published_table(tmp_path):
    start = time.time()
    out = tmp_path / "plan.json"
    rc = cli.main(
        [
            "plan", "--rule", "model_size",
            "--b0", "256", "--s0", "1024", "--beta0", "3.6e-4", "--alpha0", "0.1",
            "--t0", "124", "--t1", "1000",
            "--consts0", "7.2,3.1,62.7", "--consts1", "10.6,2.9,111.9",
            "--out", str(out),
        ]
    )
    elapsed = time.time() - start
    plan = json.loads(out.read_text())
    bs_factor = plan["BS1"] / (256.0 * 1024.0)
    beta_factor = plan["beta1"] / 3.6e-4
    ok = (
        rc == 0
        and abs(bs_factor - 4.37) <= 0.01
        and abs(beta_factor - 0.54) <= 0.01
        and elapsed < 1.0
    )
    report(1, "model-size transfer factors", ok,
           f"BS factor {bs_factor:.4f} (want 4.37+-0.01), "
           f"beta factor {beta_factor:.4f} (want 0.54+-0.01), {elapsed:.2f}s")


def test_c02_fitted_law_cross_checks():
    start = time.time()
    laws = bundled_constant_laws()
    cov = {"n_layer": 12.0, "n_embd": 768.0, "batch_size": 512.0}
    mu = laws["mu"].value(cov)
    L = laws["L"].value(cov)
    elapsed = time.time() - start
    ok = abs(mu - 3.1) <= 0.05 and abs(L - 7.2) <= 0.1 and elapsed < 1.0
    report(2, "fitted-law evaluation", ok,
           f"mu(12,768)={mu:.4f} (want 3.1+-0.05), L(12,768)={L:.4f} (want 7.2+-0.1)")


@pytest.mark.slow
def test_c03_three_regime_sweep_minimum_near_critical(sweep_data):
    bs, losses, bs_star = sweep_data["bs"], sweep_data["losses"], sweep_data["bs_star"]
    idx = int(np.argmin(losses))
    interior = 0 < idx < len(bs) - 1
    non_monotone = losses[0] > losses[idx] and losses[-1] > losses[idx]
    factor = max(bs[idx] / bs_star, bs_star / bs[idx])
    ok = interior and non_monotone and factor <= 4.0 and sweep_data["elapsed"] < 600.0
    report(3, "three-regime sweep", ok,
           f"min at BS=2^{math.log2(bs[idx]):.0f}, critical 2^{math.log2(bs_star):.2f}, "
           f"factor {factor:.2f} (want <=4), non-monotone={non_monotone}, "
           f"{sweep_data['elapsed']:.0f}s")


def test_c04_middle_regime_rate(rate_data):
    slope = rate_data["slope"]
    ok = abs(slope - (-1.0 / 3.0)) <= 0.15 and rate_data["elapsed"] < 900.0
    report(4, "middle-regime rate", ok,
           f"log-log slope of final loss vs T = {slope:.3f} (want -1/3 +- 0.15), "
           f"{rate_data['elapsed']:.0f}s")


@pytest.mark.slow
def test_c05_large_batch_linearity(sweep_data):
    bs, losses, bs_star = sweep_data["bs"], sweep_data["losses"], sweep_data["bs_star"]
    window = bs > 8.0 * bs_star
    slope = float(np.polyfit(np.log(bs[window]), np.log(losses[window]), 1)[0])
    grows = losses[window][-1] > losses[window][0]
    ok = int(window.sum()) >= 2 and grows and abs(slope - 1.0) <= 0.3
    report(5, "large-batch linear degradation", ok,
           f"slope {slope:.2f} over {int(window.sum())} points beyond 8x critical "
           f"(want 1.0+-0.3)")


def test_c06_iterate_bound_checker_randomized_suite():
    start = time.time()
    rng = np.random.default_rng(606)
    violations = 0
    checked_runs = 0
    for _ in range(100):
        n_blocks = rng.integers(1, 3)
        names, geoms, lams, targets = [], [], [], []
        for b in range(n_blocks):
            kind = rng.choice(["sign", "euclidean", "spectral"])
            if kind == "spectral":
                shape = (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            else:
                shape = (int(rng.integers(1, 6)),)
            eta = float(rng.uniform(0.5, 3.0))
            geoms.append(BlockGeometry(kind, shape, eta))
            names.append(f"b{b}")
            lams.append(float(rng.uniform(0.2, 2.0)))
            targets.append(np.zeros(shape))
        spec = LayeredQuadratic(
            geometry=tuple(geoms), block_names=tuple(names),
            curvatures=tuple(lams), targets=tuple(targets),
            noise=NoiseModel(float(rng.uniform(0.0, 0.5))),
        )
        c = float(rng.uniform(0.5, 2.0))
        K = int(rng.integers(max(math.ceil(2 * c), 5), 120))
        beta = c / K
        # start inside the half-radius ball so the checker arms
        x0_blocks = []
        for name, g in zip(names, geoms):
            raw = rng.standard_normal(g.shape)
            nrm = block_primal_norm(raw, g.kind)
            x0_blocks.append((name, raw * (0.4 * g.radius_eta / max(nrm, 1e-12))))
        cfg = ScgConfig(
            alpha=float(rng.uniform(0.05, 1.0)),
            beta=ConstantBeta(beta),
            iters=K,
            seed=int(rng.integers(0, 2**31)),
        )
        log = run(spec, cfg, x0=LayeredPoint(x0_blocks))
        assert log.checked_steps == K
        checked_runs += 1
        violations += log.invariant_violations
    elapsed = time.time() - start
    ok = violations == 0 and checked_runs == 100 and elapsed < 60.0
    report(6, "iterate-bound invariants", ok,
           f"{violations} violations across {checked_runs} randomized runs, {elapsed:.1f}s")


def test_c07_lmo_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(707)

    corner_fail = 0
    for _ in range(1000):
        dim = int(rng.integers(1, 11))
        m = rng.standard_normal(dim)
        d = lmo_block(m, GeometryKind.SIGN)[0]
        corners = np.array(list(itertools.product([-1.0, 1.0], repeat=dim)))
        if not np.isclose(float(m @ d), float(np.min(corners @ m)), atol=1e-12):
            corner_fail += 1

    spectral_fail = 0
    for _ in range(1000):
        rows, cols = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        M = rng.standard_normal((rows, cols))
        d = lmo_block(M, GeometryKind.SPECTRAL)[0]
        nuclear = float(np.linalg.svd(M, compute_uv=False).sum())
        if abs(float(np.sum(M * d)) + nuclear) > 1e-8 * max(1.0, nuclear):
            spectral_fail += 1

    ns_fail = 0
    for _ in range(1000):
        k = 4
        U, _ = np.linalg.qr(rng.standard_normal((8, k)))
        V, _ = np.linalg.qr(rng.standard_normal((4, k)))
        s = rng.uniform(0.1, 1.0, k)  # condition number at most 10
        M = (U * s) @ V.T
        P = newton_schulz_polar(M, 5)
        nuclear = float(np.linalg.svd(M, compute_uv=False).sum())
        if float(np.sum(M * P)) < 0.9 * nuclear:
            ns_fail += 1

    elapsed = time.time() - start
    ok = corner_fail == 0 and spectral_fail == 0 and ns_fail == 0 and elapsed < 60.0
    report(7, "LMO oracle equivalence", ok,
           f"corner mismatches {corner_fail}/1000, spectral pairing misses "
           f"{spectral_fail}/1000, weak polar pairings {ns_fail}/1000, {elapsed:.1f}s")


def test_c08_estimator_recovery():
    start = time.time()
    rng = np.random.default_rng(808)

    def quad_runlog(lam, sigma, iters):
        theta = rng.standard_normal(5)
        theta /= np.linalg.norm(theta) * 1.2
        spec = LayeredQuadratic(
            geometry=(BlockGeometry("euclidean", (5,), 2.0),),
            block_names=("w",),
            curvatures=(lam,),
            targets=(theta,),
            noise=NoiseModel(sigma, B=16.0, S=1.0),
        )
        cfg = ScgConfig(
            alpha=0.4, beta=ConstantBeta(0.02), iters=iters, seed=4,
            store_gradients=True,
        )
        return spec, run(spec, cfg)

    spec, log = quad_runlog(4.0, 0.0, 120)
    l_exact = estimate_L(log, spec.geometry)
    exact_ok = abs(l_exact - 4.0) <= 1e-9 * 4.0

    spec, log = quad_runlog(4.0, 0.05, 300)
    l_noisy = estimate_L(log, spec.geometry)
    noisy_ok = abs(l_noisy - 4.0) <= 0.4

    x = np.linspace(0.1, 4.5, 200)
    clean_slope = estimate_mu(x, 2.2 * x + 0.1).slope
    clean_ok = abs(clean_slope - 2.2) <= 1e-6

    y = 2.2 * x + 0.1
    idx = rng.choice(200, size=20, replace=False)
    y_out = y.copy()
    y_out[idx] *= 10.0
    robust_slope = estimate_mu(x, y_out).slope
    robust_ok = abs(robust_slope - 2.2) <= 0.22

    law = bundled_constant_laws()["mu"]
    n_layer = np.arange(3.0, 31.0)
    values = np.array([law.value({"n_layer": n}) for n in n_layer])
    fitted = fit_power_law({"n_layer": n_layer}, values, [FitTerm("n_layer")])
    exp_ok = abs(fitted.terms[0].exponent + 0.2) <= 0.05 * 0.2

    elapsed = time.time() - start
    ok = exact_ok and noisy_ok and clean_ok and robust_ok and exp_ok and elapsed < 60.0
    report(8, "estimator recovery", ok,
           f"L exact {l_exact:.6f}, L noisy {l_noisy:.3f} (want 4.0+-10%), "
           f"mu clean {clean_slope:.8f}, mu robust {robust_slope:.3f} (want 2.2+-10%), "
           f"exponent {fitted.terms[0].exponent:.4f} (want -0.2+-5%), {elapsed:.1f}s")


def test_c09_token_budget_fixed_points():
    start = time.time()
    base = TunedConfig(B0=256.0, S0=1024.0, beta0=3.6e-4, alpha0=0.1, T0=1.3e9)
    rho = bundled_constant_laws()["rho"]
    fixed = {"n_layer": 12.0, "n_embd": 768.0}
    results = {}
    for t1, ref in [(2.7e9, 416.0), (5.3e9, 672.0), (8.0e9, 896.0)]:
        b1, _ = transfer_token_budget(base, rho, t1, fixed_covariates=fixed)
        results[t1] = (b1, abs(b1 - ref) / ref)
    elapsed = time.time() - start
    ok = all(rel < 0.05 for _, rel in results.values()) and elapsed < 1.0
    detail = ", ".join(
        f"T={t:.1e}: B={b:.1f} ({rel:.1%})" for t, (b, rel) in results.items()
    )
    report(9, "token-budget fixed points", ok, detail + f", {elapsed:.2f}s")


def test_c10_noise_contract():
    start = time.time()
    dim = 8
    spec = LayeredQuadratic(
        geometry=(BlockGeometry("euclidean", (dim,), 3.0),),
        block_names=("w",),
        curvatures=(1.5,),
        targets=(np.concatenate([[1.0], np.zeros(dim - 1)]),),
        noise=NoiseModel(0.7, B=4.0, S=2.0),
    )
    rng = np.random.default_rng(1010)
    x = LayeredPoint([("w", np.full(dim, 0.3))])
    exact = problems.grad(spec, x).arrays[0]
    n_draws = 100_000
    sigma2 = spec.noise.variance()
    per_coord_sd = math.sqrt(sigma2 / dim)
    draws = np.stack([grad_sample(spec, x, rng).arrays[0] for _ in range(n_draws)])
    se = per_coord_sd / math.sqrt(n_draws)
    mean_dev = np.abs(draws.mean(axis=0) - exact)
    mean_ok = bool(np.all(mean_dev <= 3.0 * se))
    sq_norm_var = float(((draws - exact) ** 2).sum(axis=1).mean())
    var_rel = abs(sq_norm_var - sigma2) / sigma2
    var_ok = var_rel <= 0.05
    elapsed = time.time() - start
    ok = mean_ok and var_ok and elapsed < 60.0
    report(10, "gradient noise contract", ok,
           f"max mean deviation {mean_dev.max() / se:.2f} SE (want <=3), "
           f"squared-norm variance off by {var_rel:.2%} (want <=5%), {elapsed:.1f}s")


def test_c11_restart_protocol():
    start = time.time()
    out = experiments.restart_comparison()
    s1, s2 = out["plan"].stages
    bs_factor = (s2.B * s2.S) / (s1.B * s1.S)
    beta_factor = s2.beta / s1.beta
    factors_ok = (
        abs(bs_factor - 4.0) <= 1e-9 and abs(beta_factor - 0.5) <= 1e-9
    )
    wins = sum(
        staged <= fixed
        for staged, fixed in zip(out["staged_losses"], out["baseline_losses"])
    )
    elapsed = time.time() - start
    ok = factors_ok and wins >= 4 and elapsed < 600.0
    report(11, "restart protocol", ok,
           f"stage-2 factors BS x{bs_factor:.6f}, beta x{beta_factor:.6f} "
           f"(want 4 and 0.5 exactly), staged beats fixed baseline {wins}/5, "
           f"{elapsed:.0f}s")
