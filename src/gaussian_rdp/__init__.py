"""Rate-distortion-perception functions of Gaussian vector sources.

Computes the minimum coding rate of a decorrelated Gaussian vector source
subject to a total squared-error distortion budget and a perception budget
(KL divergence or squared Wasserstein-2 distance between the source and
reconstruction laws), by generalized reverse water-filling. Includes the
classical rate-distortion water-filling solver, asymptotic expansions, an
independent log-barrier primal minimizer, and Monte Carlo verification of
the achieving joint Gaussian pairs.
"""

from .errors import (
    AllComponentsNullError,
    ConvergenceError,
    DimensionZeroError,
    DomainError,
    DualDegenerateError,
    LineSearchError,
    NonPositiveDistortionError,
    NotPsdError,
    NotSymmetricError,
    OutOfRangeError,
    RdpError,
)
from .model import (
    CurveSweep,
    DualPoint,
    KktResiduals,
    PerceptionMetric,
    RdpSolution,
    SolutionCase,
    SourceSpectrum,
    TradeoffQuery,
    from_covariance,
    zero_rate_reconstruction,
)
from .classic_rd import (
    WaterLevel,
    high_distortion_rd_estimate,
    low_distortion_rd_estimate,
    reverse_waterfill,
    water_level,
)
from .kkt import solution_residuals
from .solver import (
    high_distortion_p0_estimate,
    low_distortion_p0_estimate,
    solve,
    solve_perfect_perception,
)
from .oracle import (
    OracleResult,
    PrimalPoint,
    check_gradients,
    minimize_primal,
    minimize_primal_p0,
)
from .montecarlo import (
    JointGaussianPair,
    SampleReport,
    build_pair,
    sample_and_measure,
    verify_solution,
)

__all__ = [
    "AllComponentsNullError",
    "ConvergenceError",
    "CurveSweep",
    "DimensionZeroError",
    "DomainError",
    "DualDegenerateError",
    "DualPoint",
    "JointGaussianPair",
    "KktResiduals",
    "LineSearchError",
    "NonPositiveDistortionError",
    "NotPsdError",
    "NotSymmetricError",
    "OracleResult",
    "OutOfRangeError",
    "PerceptionMetric",
    "PrimalPoint",
    "RdpError",
    "RdpSolution",
    "SampleReport",
    "SolutionCase",
    "SourceSpectrum",
    "TradeoffQuery",
    "WaterLevel",
    "build_pair",
    "check_gradients",
    "from_covariance",
    "high_distortion_p0_estimate",
    "high_distortion_rd_estimate",
    "low_distortion_p0_estimate",
    "low_distortion_rd_estimate",
    "minimize_primal",
    "minimize_primal_p0",
    "reverse_waterfill",
    "sample_and_measure",
    "solution_residuals",
    "solve",
    "solve_perfect_perception",
    "verify_solution",
    "water_level",
    "zero_rate_reconstruction",
]

__version__ = "0.1.0"
