"""Winner probabilities for maxima of heterogeneous Gaussian groups.

A lower-variance group can only stay competitive against a
higher-variance one if its sample size grows along the critical law
n1 ~ C * n2^{sigma^2} (log n2)^{-(sigma^2-1)/2}; on that curve the
winning probability has a non-degenerate limit with an explicit
integral form, and off it the comparison collapses to 0 or 1.  This
package computes the exact finite-n probabilities, the limit laws, the
scaling diagnostics, reproducible Monte Carlo estimates, and an
empirical bootstrap pipeline for monthly climate innovations.

The top level re-exports the names of the README quick start and the
demos; everything else is imported from its submodule.
"""

from .limits import finite_n_winner, two_group_limit
from .montecarlo import RngStream, convergence_study, mc_limit_pair, mc_two_group
from .pipeline import empirical_study, load_stations, run_pipeline
from .scaling import GroupSpec, beta, centering_gap, critical_n1, kappa
from .synthetic import write_synthetic_stations

__version__ = "0.1.0"

__all__ = [
    "GroupSpec",
    "RngStream",
    "beta",
    "centering_gap",
    "convergence_study",
    "critical_n1",
    "empirical_study",
    "finite_n_winner",
    "kappa",
    "load_stations",
    "mc_limit_pair",
    "mc_two_group",
    "run_pipeline",
    "two_group_limit",
    "write_synthetic_stations",
]
