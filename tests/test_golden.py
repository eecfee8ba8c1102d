"""Golden trajectory logs, golden CLI outputs and the run-versus-step
equivalence.

The hashes pin every byte of ``runlog.csv`` for seven fixed configurations:
a refactor of the iteration loop that moves any recorded number by one ulp
fails here. The CLI hashes pin the exit code and stdout of fixed ``plan``
and ``estimate`` calls, and the ``sweep.csv`` hash pins the bytes of one
small ``sweep`` (with an error row) at one and two jobs, so a refactor of the
planner, the estimators, the config parsing or the row writer that changes
any emitted byte fails too. They were recorded with NumPy on OpenBLAS/LAPACK on x86-64. The
spectral hash depends on the LAPACK build (every step and every recorded norm
takes an SVD), and the euclidean and logistic ones on the BLAS dot and
matrix-vector kernels, so a different BLAS/LAPACK may change them without a
bug in this package.
"""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from scgscale import cli
from scgscale.experiments import regime_sweep_problem
from scgscale.geometry import BlockGeometry, LayeredPoint
from scgscale.optimizer import (
    ConstantBeta,
    ScgConfig,
    Stage,
    StagePlan,
    WarmdownBeta,
    run,
    run_staged,
    scg_step,
    uscg_step,
)
from scgscale.problems import (
    LayeredQuadratic,
    LogisticRegression,
    NoiseModel,
    grad_sample,
)


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
        "9cdc183746420f229216c7fec935d04b16af8eb92adb7e781ebe444109e25877",
    ),
    "staged": (
        golden_staged,
        "8115a73f796df29faa02d92732e04027301f8347186a3020f950fb5f69055c8f",
    ),
    "sign_long": (
        golden_sign_long,
        "729b94947d4f5d76a0edbc0687a69716794280afd4b49387018f11c90d853d45",
    ),
    "staged_mid_chunk": (
        golden_staged_mid_chunk,
        "bf2481d3a1c71f7fe5705b514e002f18a8c9969c3224eface253bf1c4f63fd6f",
    ),
    "uscg": (
        golden_uscg,
        "f183d0af54725bdd566d0ef839cb4bc6a2059257d6e6961dc142926def2ea127",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_runlog_csv_hash_is_golden(name):
    make, expected = GOLDEN[name]
    text = make().to_csv_string()
    assert hashlib.sha256(text.encode()).hexdigest() == expected


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
    "estimate_variance": (["estimate", "--kind", "variance", "--in", "variance.csv"], "9514bd502f1e7ee6246af2bdf11453884dbf2c653e0053c1ff348120f93f6eec"),
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
    "eval_stride": 4,
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


@pytest.mark.parametrize("variant", ["scg", "uscg"])
@pytest.mark.parametrize("kind", ["sign", "euclidean", "spectral"])
def test_run_equals_stepping_by_hand(kind, variant):
    # With zero momentum init, run() is the step function applied to fresh
    # gradient samples drawn in order from the seeded generator.
    spec = single_block_quadratic(kind)
    beta = 0.1
    cfg = ScgConfig(
        alpha=0.3, beta=ConstantBeta(beta), iters=60, seed=13, momentum_init="zeros",
        variant=variant,
    )
    log = run(spec, cfg)

    rng = np.random.default_rng(cfg.seed)
    x = LayeredPoint.zeros(spec.block_names, spec.geometry)
    m = LayeredPoint.zeros(spec.block_names, spec.geometry)
    radii = [g.radius_eta for g in spec.geometry]
    for _ in range(cfg.iters):
        g = grad_sample(spec, x, rng)
        if variant == "scg":
            x, m = scg_step(x, m, g, cfg.alpha, beta, None, spec.geometry)
        else:
            x, m = uscg_step(x, m, g, cfg.alpha, 1.0, radii, spec.geometry)
    assert np.array_equal(x.arrays[0], log.final_x.arrays[0])
