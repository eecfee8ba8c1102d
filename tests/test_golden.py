"""Golden trajectory logs and the run-versus-step equivalence.

The hashes pin every byte of ``runlog.csv`` for five fixed configurations:
a refactor of the iteration loop that moves any recorded number by one ulp
fails here. They were recorded with NumPy on OpenBLAS/LAPACK on x86-64. The
spectral hash depends on the LAPACK build (every step and every recorded norm
takes an SVD), and the euclidean and logistic ones on the BLAS dot and
matrix-vector kernels, so a different BLAS/LAPACK may change them without a
bug in this package.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

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
        radii=(0.02, 0.03, 0.01), eval_every=3,
    )
    return run(mixed_quadratic(), cfg, variant="uscg")


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
        alpha=0.3, beta=ConstantBeta(beta), iters=60, seed=13, momentum_init="zeros"
    )
    log = run(spec, cfg, variant=variant)

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
