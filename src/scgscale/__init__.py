"""Momentum stochastic conditional gradient over norm-constrained layered
parameter spaces, with batch/sequence/token budget scaling rules, restart
planning, and a constant-estimation pipeline, verifiable on synthetic
problems at desk scale."""

from .geometry import (
    BlockGeometry,
    GeometryKind,
    LayeredPoint,
    newton_schulz_polar,
)
from .optimizer import (
    ConstantBeta,
    RunLog,
    ScgConfig,
    WarmdownBeta,
    run,
    run_staged,
)
from .scaling import (
    ProblemConstants,
    Stage,
    StagePlan,
    TunedConfig,
    critical_bs,
    error_law,
    nonconvex_rule,
    plan_stages,
    sqrt_rule,
    prescribe_params,
    transfer_model_size,
    transfer_token_budget,
)
from .estimation import (
    FitTerm,
    PowerLawModel,
    PowerLawTerm,
    VarianceCurve,
    bundled_constant_laws,
    estimate_L,
    estimate_mu,
    estimate_rho,
    estimate_variance,
    fit_power_law,
    huber_line_fit,
)
from .problems import (
    LayeredQuadratic,
    LogisticRegression,
    NoiseModel,
    grad_sample,
    known_constants,
    loss,
)

__version__ = "0.1.0"
