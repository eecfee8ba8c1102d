"""Golden trajectory logs, golden CLI outputs and the run-versus-step
equivalence.

The hashes pin every byte of ``runlog.csv`` for seven fixed configurations:
a refactor of the iteration loop that moves any recorded number by one ulp
fails here. The CLI hashes pin the exit code and stdout of fixed ``plan``,
``estimate`` and ``fit`` calls, and the ``sweep.csv`` hash pins the bytes of one
small ``sweep`` (with an error row) at one and two jobs, so a refactor of the
planner, the estimators, the config parsing or the row writer that changes
any emitted byte fails too. They were recorded with NumPy on OpenBLAS/LAPACK on x86-64. The
spectral hashes depend on the LAPACK build (every step and every recorded norm
takes an SVD; the spectral terms of m_dual come from the singular values of
the LMO's full SVD, the others from values-only SVDs), and the euclidean and
logistic ones on the BLAS dot and matrix-vector kernels, so a different
BLAS/LAPACK may change them without a bug in this package.
"""

import hashlib
import io
import json
from dataclasses import replace

import numpy as np
import pytest

from scgscale import cli, optimizer
from scgscale.experiments import regime_sweep_problem
from scgscale.geometry import BlockGeometry, LayeredPoint
from scgscale.optimizer import (
    ConstantBeta,
    ScgConfig,
    WarmdownBeta,
    run,
    run_staged,
)
from scgscale.problems import (
    LayeredQuadratic,
    LogisticRegression,
    NoiseModel,
    grad_sample,
)
from scgscale.scaling import Stage, StagePlan


def spectral_quadratic(shape=(64, 64), eta=1.0, sigma=0.2, seed=4):
    rng = np.random.default_rng(seed)
    target = rng.standard_normal(shape)
    target *= 0.5 * eta / np.linalg.svd(target, compute_uv=False)[0]
    return LayeredQuadratic(
        geometry=(BlockGeometry("spectral", shape, eta),),
        block_names=("W",),
        curvatures=(1.0,),
        targets=(target,),
        noise=NoiseModel(sigma, B=2.0, S=2.0),
    )


def mixed_quadratic(sigma=0.3):
    rng = np.random.default_rng(21)
    spectral = rng.standard_normal((4, 3))
    spectral *= 0.4 / np.linalg.svd(spectral, compute_uv=False)[0]
    euclid = rng.standard_normal(5)
    euclid *= 0.6 / np.linalg.norm(euclid)
    return LayeredQuadratic(
        geometry=(
            BlockGeometry("sign", (8,), 1.0),
            BlockGeometry("euclidean", (5,), 1.5),
            BlockGeometry("spectral", (4, 3), 0.8),
        ),
        block_names=("s", "e", "W"),
        curvatures=(0.5, 1.0, 2.0),
        targets=(rng.uniform(-0.5, 0.5, 8), euclid, spectral),
        noise=NoiseModel(sigma, B=2.0, S=4.0),
    )


def golden_sign():
    spec = replace(regime_sweep_problem(), noise=NoiseModel(0.1, B=4.0, S=2.0))
    cfg = ScgConfig(alpha=0.09, beta=ConstantBeta(0.05), iters=200, seed=7)
    return run(spec, cfg)


def golden_euclidean():
    spec = LogisticRegression(
        geometry=(BlockGeometry("euclidean", (24,), 3.0),),
        block_names=("w",),
        n_samples=96,
        dim=24,
        data_seed=5,
        noise=NoiseModel(0.5, B=2.0, S=4.0),
        margin_boost=0.1,
    )
    cfg = ScgConfig(alpha=0.2, beta=WarmdownBeta(0.1, 150, 40), iters=150, seed=3)
    return run(spec, cfg)


def golden_spectral():
    cfg = ScgConfig(alpha=0.3, beta=ConstantBeta(0.05), iters=20, seed=5)
    return run(spectral_quadratic(), cfg)


def golden_staged():
    plan = StagePlan(
        (
            Stage(token_allotment=8.0 * 40, B=2.0, S=4.0, beta=0.08, alpha=0.3),
            Stage(token_allotment=32.0 * 30, B=8.0, S=4.0, beta=0.04, alpha=0.3),
        )
    )
    base = ScgConfig(alpha=0.3, beta=ConstantBeta(0.08), iters=0, seed=17)
    return run_staged(mixed_quadratic(), plan, base)


def golden_uscg():
    cfg = ScgConfig(
        alpha=0.25, beta=ConstantBeta(0.1), iters=120, seed=9,
        radii=(0.02, 0.03, 0.01), eval_every=3, variant="uscg",
    )
    return run(mixed_quadratic(), cfg)


def golden_sign_long():
    # 600 steps of 16 coordinates: the run crosses the 256-step noise chunks
    # twice and ends inside a third, with a row and a checked step each step.
    spec = replace(regime_sweep_problem(), noise=NoiseModel(0.1, B=4.0, S=2.0))
    cfg = ScgConfig(alpha=0.09, beta=ConstantBeta(0.02), iters=600, seed=29)
    return run(spec, cfg)


def golden_staged_mid_chunk():
    # The first stage ends after 300 steps, 44 steps into a second chunk of
    # 256, so the second stage's noise continues the stream at that step.
    plan = StagePlan(
        (
            Stage(token_allotment=8.0 * 300, B=2.0, S=4.0, beta=0.01, alpha=0.2),
            Stage(token_allotment=32.0 * 100, B=8.0, S=4.0, beta=0.02, alpha=0.3),
        )
    )
    base = ScgConfig(alpha=0.2, beta=ConstantBeta(0.01), iters=0, seed=23, eval_every=7)
    return run_staged(mixed_quadratic(), plan, base)


GOLDEN = {
    "sign": (
        golden_sign,
        "2955294492aeef72b84090f9eb16c2247f9f7e3bc0e7acc8ad366435c77e0268",
    ),
    "euclidean": (
        golden_euclidean,
        "fb1de972cdef73ab8c33d931c7436457bf960e2b8326809f61477f4ecdda05f6",
    ),
    "spectral": (
        golden_spectral,
        "a187affcc8079cdcff35a6a8955a500e4b416c6d06966add4a48f6d482f76ffc",
    ),
    "staged": (
        golden_staged,
        "e20fdd5bab234d46cc70081cdf31f6583eda14f09c399fad553a6a8c828862d6",
    ),
    "sign_long": (
        golden_sign_long,
        "729b94947d4f5d76a0edbc0687a69716794280afd4b49387018f11c90d853d45",
    ),
    "staged_mid_chunk": (
        golden_staged_mid_chunk,
        "e57846d8e2da27d8274ba0441f9b49e8230bd6eb537c70a3d97716a396bb8fb5",
    ),
    "uscg": (
        golden_uscg,
        "8d3f6c50a682254df16c75201ed4134fd02d312a08ea136453e3ca0b7b5800f8",
    ),
}


def csv_text(log):
    buf = io.StringIO()
    log.to_csv(buf)
    return buf.getvalue()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_runlog_csv_hash_is_golden(name):
    make, expected = GOLDEN[name]
    text = csv_text(make())
    assert hashlib.sha256(text.encode()).hexdigest() == expected


@pytest.mark.parametrize("make_spec", [spectral_quadratic, mixed_quadratic])
def test_momentum_dual_is_its_nuclear_norm_with_alpha_one(make_spec):
    # With alpha = 1 the momentum buffer is the gradient sample, so m_dual,
    # whose spectral terms come from the singular values of the LMO's SVD,
    # must equal g_dual, taken from a values-only SVD of the same matrix.
    cfg = ScgConfig(alpha=1.0, beta=ConstantBeta(0.05), iters=20, seed=5)
    log = run(make_spec(), cfg)
    assert len(log) == 20
    assert log.m_dual == pytest.approx(log.g_dual, rel=1e-14)


def _csv(header, rows):
    lines = [",".join(header)] + [",".join(repr(float(v)) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


_XS = np.linspace(0.1, 6.0, 40)

CLI_FILES = {
    "rho_law.json": json.dumps(
        {"C": 5.0, "terms": [{"name": "batch_size", "shift": 0.0, "exponent": 0.1}]}
    ),
    "mu.csv": _csv(["loss", "g_dual"], [(x, 3.1 * x + 0.05 * np.sin(7.0 * x)) for x in _XS]),
    "L.csv": _csv(
        ["grad_diff_dual", "step_disp"],
        [(2.0 * x + 0.1 * np.cos(x), 0.0 if i % 7 == 0 else x) for i, x in enumerate(_XS)],
    ),
    "rho.csv": _csv(
        ["diff_dual", "diff_euclid"],
        [(3.0 * x + 0.2 * np.sin(x), 0.0 if i % 5 == 0 else x) for i, x in enumerate(_XS)],
    ),
    "rho_degenerate.csv": _csv(["diff_dual", "diff_euclid"], [(1.0, 0.0), (2.0, 0.0)]),
    "variance.csv": _csv(["scale", "variance"], [(b, 4.0 / (b + 3.0)) for b in (8, 16, 32, 64, 128, 256)]),
    # n_layer is free; batch_size enters with a fixed shift and exponent
    "fit_shape.json": json.dumps(
        {
            "schema_version": 1,
            "terms": [
                {"name": "n_layer"},
                {"name": "batch_size", "shift": 0.0, "exponent": 0.1},
            ],
            "value_column": "rho",
        }
    ),
    "fit.csv": _csv(
        ["n_layer", "batch_size", "rho"],
        [
            (n, b, 3.0 * (n + 1.5) ** 0.3 * b**0.1 * (1.0 + 0.02 * np.sin(n * b)))
            for n in (2, 4, 6, 8, 12, 16)
            for b in (32, 128)
        ],
    ),
}

_BASE = ["--b0", "256", "--s0", "1024", "--beta0", "3.6e-4", "--alpha0", "0.1", "--t0", "1.3e9"]
_SIZES = ["--consts0", "7.2,3.1,62.7", "--consts1", "10.6,2.9,111.9"]

GOLDEN_CLI = {
    "plan_model_size": (
        ["plan", "--rule", "model_size", *_BASE, "--t1", "10.48e9", *_SIZES],
        "25300441a1be214994250955acb5a7f754e4fd7c7554c789c37bc2955d520682",
    ),
    "plan_model_size_pow2_regime": (
        ["plan", "--rule", "model_size", *_BASE, "--t1", "10.48e9", *_SIZES,
         "--round", "pow2", "--sigma-star", "1.0"],
        "fb9dfbf0aa1ae51d0cf1f05cafaad20df2d1c18f23633620ce3034204d4f7877",
    ),
    "plan_model_size_mult32": (
        ["plan", "--rule", "model_size", *_BASE, "--t1", "3e9", *_SIZES, "--round", "mult32"],
        "729ae6db99e868537d34f6fdb57745ebb7ce3ecf27b392a883e8a0ab199e3a13",
    ),
    "plan_model_size_regime_null": (
        ["plan", "--rule", "model_size", *_BASE, "--t0", "124", "--t1", "1000", *_SIZES,
         "--sigma-star", "1.0"],
        "cadde1337313533a8eb28592851b7274cf1c223d95b468731d46e64a2ff7db11",
    ),
    "plan_model_size_shape": (
        ["plan", "--rule", "model_size", *_BASE, "--t1", "5e9",
         "--shape0", "6,512", "--batch0", "256", "--shape1", "12,768", "--batch1", "512",
         "--sigma-star", "2.0"],
        "5e62406898e956faebe8167c58f11a81d23617b731b361b0c299f9df8413590e",
    ),
    "plan_token_budget_bundled": (
        ["plan", "--rule", "token_budget", *_BASE, "--t1", "2.7e9",
         "--n-layer", "12", "--n-embd", "768", "--sigma-star", "1.0"],
        "5c8cd0b96ad1b93a0942e50f09781d046207bec8ba90cf1e6652760a51abbbd7",
    ),
    "plan_token_budget_law_file": (
        ["plan", "--rule", "token_budget", *_BASE, "--t1", "1.04e10",
         "--rho-law", "rho_law.json", "--sigma-star", "1.0"],
        "328cd7e476700fac1882ac19e4db3e70e8d6f4b62cdcd5946310f9fc50fbe5b0",
    ),
    "plan_stages": (
        ["plan", "--rule", "stages", *_BASE, *_SIZES,
         "--budgets", "1.3e9,5.2e9,1.04e10", "--sigma-star", "1.0"],
        "c77f011213345bce8b2501f8817e318d2581a9ed8334e6343db0d0cd408d67f0",
    ),
    "plan_sqrt": (
        ["plan", "--rule", "sqrt", *_BASE, "--t1", "1.04e10", "--sigma-star", "1.0"],
        "5d39291aee8b64807255340b4fd006a264199756787d93ae6299bc8d3b4c4889",
    ),
    "plan_nonconvex": (
        ["plan", "--rule", "nonconvex", *_BASE, *_SIZES, "--d0", "1.2e8", "--d1", "3.5e8",
         "--sigma-star", "1.0"],
        "4b49297ac8bfa942fbdb8987e16b4be0128b41f5bbafe69f04b68f627fbabf74",
    ),
    "estimate_mu": (["estimate", "--kind", "mu", "--in", "mu.csv", "--loss-cap", "4.5"], "33b32898d1c046dca0813b33097cab0a953dc5b82cb7d6a609d670affe1d23a1"),
    "estimate_L": (["estimate", "--kind", "L", "--in", "L.csv", "--window", "25"], "e0798962c0371936614c0c91e8dee083cdc23440de7f2780b754f4e86a0da489"),
    "estimate_rho": (["estimate", "--kind", "rho", "--in", "rho.csv", "--window", "25"], "6b5295be94f3728c00ccaf65dfe535c3b98edb0fdd1064d8cbbae81ad231c33b"),
    "estimate_rho_degenerate": (["estimate", "--kind", "rho", "--in", "rho_degenerate.csv"], "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    "estimate_variance": (["estimate", "--kind", "variance", "--in", "variance.csv"], "a87c3c9c8c3c10c65fb4d4f1d161f9f52af9297cb53bb18d1845da8eb0865c89"),
    "fit": (["fit", "--shape", "fit_shape.json", "--in", "fit.csv"], "b2c05cb18683b21ef7841973dbd979f4084a9712ba3139fa435ccc2c830db0f4"),
}


def cli_output_digest(name, tmp_path, monkeypatch, capsys):
    for fname, text in CLI_FILES.items():
        (tmp_path / fname).write_text(text)
    monkeypatch.chdir(tmp_path)
    argv, _ = GOLDEN_CLI[name]
    rc = cli.main(argv)
    out = capsys.readouterr().out
    return hashlib.sha256(f"{rc}\n{out}".encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_CLI))
def test_cli_output_hash_is_golden(name, tmp_path, monkeypatch, capsys):
    assert cli_output_digest(name, tmp_path, monkeypatch, capsys) == GOLDEN_CLI[name][1]


GOLDEN_SWEEP_CONFIG = {
    "schema_version": 1,
    "problem": {
        "kind": "layered_quadratic",
        "blocks": [
            {"name": "s", "geometry": {"kind": "sign", "shape": [6], "radius_eta": 1.0},
             "curvature": 0.5, "target": [0.3, -0.2, 0.1, -0.4, 0.25, -0.05]},
            {"name": "e", "geometry": {"kind": "euclidean", "shape": [3], "radius_eta": 1.5},
             "curvature": 1, "target": [0.6, 0.0, -0.3]},
        ],
        "noise": {"sigma_star": 0.3, "B": 1, "S": 1},
    },
    "token_budget": 256,
    # K = 32, 16, 8 and 1; the last point has K < c and fills the error column
    "grid": [[4, 2], [8, 2], [2, 16], [64, 4]],
    "rule": {"kind": "prescribed", "c": 2},
    "repetitions": 2,
    "seed_base": 11,
    "constants": {"L": 4.0, "mu": 0.5, "rho": 3, "sigma_star": 0.3},
}
GOLDEN_SWEEP_HASH = "885694251870aae53a9e5b37a0eda063410645637c28ef8c551187d78ac10ef1"


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_csv_hash_is_golden(jobs, tmp_path):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(GOLDEN_SWEEP_CONFIG))
    out = tmp_path / "out"
    rc = cli.main(["sweep", "--config", str(cfg_path), "--out", str(out), "--jobs", str(jobs)])
    assert rc == 0
    data = (out / "sweep.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == GOLDEN_SWEEP_HASH


def single_block_quadratic(kind):
    shape = (6, 4) if kind == "spectral" else (7,)
    rng = np.random.default_rng(2)
    target = rng.uniform(-0.3, 0.3, shape)
    return LayeredQuadratic(
        geometry=(BlockGeometry(kind, shape, 1.0),),
        block_names=("w",),
        curvatures=(1.5,),
        targets=(target,),
        noise=NoiseModel(0.4, B=2.0, S=2.0),
    )


def reference_step(x, m, g, alpha, keep, scales, kinds):
    """One update in plain NumPy, block by block: returns (x', m').

    m' = m (1 - alpha) + g alpha and x' = x keep - s d, with d the unit
    direction whose negation the block's LMO returns: sign(m'),
    m' / ||m'||_2, or the polar factor U V^T of m'. keep and s are 1 - beta
    and beta eta for scg, 1 and eta for uscg.
    """
    x_new, m_new = [], []
    for xb, mb, gb, s, kind in zip(x.arrays, m.arrays, g.arrays, scales, kinds):
        mb = mb * (1.0 - alpha) + gb * alpha
        if kind == "sign":
            step = np.sign(mb) * s
        elif kind == "euclidean":
            step = mb * (s / np.sqrt(np.vdot(mb, mb)))
        else:
            U, _, Vt = np.linalg.svd(mb, full_matrices=False)
            step = (U @ Vt) * s
        x_new.append(xb * keep - step)
        m_new.append(mb)
    return LayeredPoint.from_arrays(x.names, x_new), LayeredPoint.from_arrays(m.names, m_new)


def step_by_hand(spec, cfg, beta_of_k):
    """The final iterate of cfg (zero momentum init) stepped by reference_step
    on gradient samples drawn in order from the seeded generator."""
    rng = np.random.default_rng(cfg.seed)
    x = LayeredPoint.zeros(spec.block_names, spec.geometry)
    m = LayeredPoint.zeros(spec.block_names, spec.geometry)
    kinds = [g.kind for g in spec.geometry]
    for k in range(cfg.iters):
        beta = beta_of_k(k)
        keep, step = (1.0 - beta, beta) if cfg.variant == "scg" else (1.0, 1.0)
        scales = [step * g.radius_eta for g in spec.geometry]
        x, m = reference_step(x, m, grad_sample(spec, x, rng), cfg.alpha, keep, scales, kinds)
    return x


# Every step an event step (a row per step, the checker armed), or plain steps
# between sparse events: step 0, the warmdown tail, and the refills of a noise
# chunk shortened to 16 steps.
STEPPING = {
    "every-step": {},
    "plain-steps": dict(eval_every=1 << 30, check_invariants=False),
}


@pytest.fixture(params=list(STEPPING))
def stepping(request, monkeypatch):
    if request.param == "plain-steps":
        monkeypatch.setattr(optimizer, "_NOISE_CHUNK_STEPS", 16)
    return STEPPING[request.param]


@pytest.mark.parametrize("variant", ["scg", "uscg"])
@pytest.mark.parametrize("kind", ["sign", "euclidean", "spectral"])
def test_run_equals_stepping_by_hand(kind, variant, stepping):
    # With zero momentum init, run() is the reference step applied to fresh
    # gradient samples drawn in order from the seeded generator.
    spec = single_block_quadratic(kind)
    cfg = ScgConfig(
        alpha=0.3, beta=ConstantBeta(0.1), iters=60, seed=13, momentum_init="zeros",
        variant=variant, **stepping,
    )
    log = run(spec, cfg)
    x = step_by_hand(spec, cfg, lambda k: 0.1)
    assert np.array_equal(x.arrays[0], log.final_x.arrays[0])


@pytest.mark.parametrize("variant", ["scg", "uscg"])
def test_run_equals_stepping_by_hand_over_blocks(variant, stepping):
    # Three blocks of three kinds side by side in the run's flat buffers, and
    # a stepsize that changes every step of the warmdown tail: each block's
    # offset and every refill of the step constants must match the reference
    # step, which takes the blocks one by one.
    spec = mixed_quadratic()
    cfg = ScgConfig(
        alpha=0.3, beta=WarmdownBeta(0.2, 80, 50), iters=80, seed=17, momentum_init="zeros",
        variant=variant, **stepping,
    )
    log = run(spec, cfg)
    # The warmdown, written out: 0.2 for 30 steps, then down to 0.2 / 50.
    expected = step_by_hand(spec, cfg, lambda k: 0.2 if k < 30 else 0.2 * (80 - k) / 50)
    assert expected == log.final_x
