"""Winner probabilities for maxima of heterogeneous Gaussian groups.

A lower-variance group can only stay competitive against a
higher-variance one if its sample size grows along the critical law
n1 ~ C * n2^{sigma^2} (log n2)^{-(sigma^2-1)/2}; on that curve the
winning probability has a non-degenerate limit with an explicit
integral form, and off it the comparison collapses to 0 or 1.  This
package computes the exact finite-n probabilities, the limit laws, the
scaling diagnostics, reproducible Monte Carlo estimates, and an
empirical bootstrap pipeline for monthly climate innovations.
"""

from .limits import (
    LimitSpecK,
    finite_n_winner,
    finite_n_winner_multi,
    multi_group_limits,
    solve_c_for_target,
    two_group_limit,
    two_group_limit_from_kappa,
)
from .montecarlo import (
    ArgmaxIdentityCheck,
    McEstimate,
    RngStream,
    StudyRow,
    convergence_study,
    mc_argmax_identity,
    mc_limit_pair,
    mc_multi,
    mc_two_group,
    sample_group_max,
    sample_gumbel,
)
from .normal import (
    gumbel_cdf,
    log_std_normal_cdf,
    std_normal_cdf,
    std_normal_quantile,
    upper_tail_quantile,
)
from .pipeline import (
    Ar1Fit,
    InnovationPool,
    PipelineResult,
    StationSeries,
    ar1_innovations,
    bootstrap_winner,
    build_pools,
    deseasonalize,
    detrend_linear,
    empirical_study,
    kmeans1d_split,
    load_stations,
    process_station,
    run_pipeline,
)
from .quadrature import QuadratureError, QuadResult
from .scaling import (
    CriticalSize,
    GroupSpec,
    NormingConstants,
    beta,
    centering_gap,
    critical_n1,
    critical_scale,
    kappa,
    log_critical_scale,
    norming_constants,
)
from .synthetic import SyntheticTruth, write_synthetic_stations

__version__ = "0.1.0"

__all__ = [
    "ArgmaxIdentityCheck",
    "Ar1Fit",
    "CriticalSize",
    "GroupSpec",
    "InnovationPool",
    "LimitSpecK",
    "McEstimate",
    "NormingConstants",
    "PipelineResult",
    "QuadResult",
    "QuadratureError",
    "RngStream",
    "StationSeries",
    "StudyRow",
    "SyntheticTruth",
    "ar1_innovations",
    "beta",
    "bootstrap_winner",
    "build_pools",
    "centering_gap",
    "convergence_study",
    "critical_n1",
    "critical_scale",
    "deseasonalize",
    "detrend_linear",
    "empirical_study",
    "finite_n_winner",
    "finite_n_winner_multi",
    "gumbel_cdf",
    "kappa",
    "kmeans1d_split",
    "load_stations",
    "log_critical_scale",
    "log_std_normal_cdf",
    "mc_argmax_identity",
    "mc_limit_pair",
    "mc_multi",
    "mc_two_group",
    "multi_group_limits",
    "norming_constants",
    "process_station",
    "run_pipeline",
    "sample_group_max",
    "sample_gumbel",
    "solve_c_for_target",
    "std_normal_cdf",
    "std_normal_quantile",
    "two_group_limit",
    "two_group_limit_from_kappa",
    "upper_tail_quantile",
    "write_synthetic_stations",
]
