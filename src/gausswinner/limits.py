"""Numerical evaluation of the winner-probability formulas.

Three families of integrals live here:

* the two-group limit law  int_0^inf exp(-y - e^{-kappa} y^{1/sigma^2}) dy,
* its K-group generalization with per-group integrands
  (e^{-kappa_k}/sigma_k^2) x^{1/sigma_k^2 - 1} exp(-sum_j e^{-kappa_j} x^{1/sigma_j^2}),
* the exact finite-n probability
  int_R exp(n2 log Phi(x/sigma2) + (n1-1) log Phi(x/sigma1)) (n1/sigma1) phi(x/sigma1) dx,
  which serves as the brute-force oracle for everything else.

The [0, inf) integrals are evaluated after the substitution y = e^u,
which removes the endpoint singularity and leaves a log-concave
integrand on the whole line; the finite-n integrand is log-concave as
it stands.  All exponents are assembled in log space (n log Phi can
reach -1e15) and exponentiated once per node inside the quadrature.
Returned probabilities are clamped to [0, 1].  ``abs_err`` is the
quadrature's estimate for the unclamped value: the first settled
inter-level difference plus the tail term, without floating-point
rounding.  It measures the coarser level, so it reads up to tol/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.special import log_ndtr

from .quadrature import QuadResult, concave_log_quad
from .scaling import GroupSpec, kappa

__all__ = [
    "LimitSpecK",
    "two_group_limit",
    "two_group_limit_from_kappa",
    "multi_group_limits",
    "finite_n_winner",
    "finite_n_winner_multi",
    "solve_c_for_target",
]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
QUAD_TOL = 1e-10  # two-group limit and exact finite-n quadrature, at every K
MULTI_QUAD_TOL = 1e-9  # K-group limits; 1e-10 costs about 2% more evaluations
SOLVE_TOL = 1e-9  # |p - p_target| at which solve_c_for_target stops


@dataclass(frozen=True)
class LimitSpecK:
    """Multi-group limit parameters: one (c, sigma) pair per group.

    Exactly one group is the baseline with (c, sigma) = (1, 1); every
    other group must have sigma > 1 and 0 < c < inf.  The baseline fixes
    the normalization kappa_1 = 0.
    """

    groups: tuple[tuple[float, float], ...]

    def __post_init__(self):
        groups = tuple((float(c), float(s)) for c, s in self.groups)
        object.__setattr__(self, "groups", groups)
        if len(groups) < 2:
            raise ValueError("a limit spec needs at least 2 groups")
        baselines = [i for i, (c, s) in enumerate(groups) if s == 1.0]
        if len(baselines) != 1:
            raise ValueError(f"exactly one baseline group with sigma = 1 required, found {len(baselines)}")
        b = baselines[0]
        if groups[b][0] != 1.0:
            raise ValueError(f"baseline group must have c = 1, got {groups[b][0]}")
        for i, (c, s) in enumerate(groups):
            if i == b:
                continue
            if not (math.isfinite(s) and s > 1.0):
                raise ValueError(f"group {i}: sigma must be a finite real > 1, got {s}")
            if math.isnan(c) or c <= 0.0:
                raise ValueError(f"group {i}: c must lie in (0, +inf], got {c}")

    @property
    def baseline(self) -> int:
        return next(i for i, (_, s) in enumerate(self.groups) if s == 1.0)

    def kappas(self) -> tuple[float, ...]:
        return tuple(kappa(c, s) for c, s in self.groups)


def _probability(result: QuadResult) -> QuadResult:
    """``result`` with its value clamped to [0, 1]; ``abs_err`` is kept."""
    value = min(max(result.value, 0.0), 1.0)
    return result if value == result.value else replace(result, value=value)


def _limit_components(alphas, kappas, rows, tol, note=None) -> list[QuadResult]:
    """p_k for each k in ``rows`` as u-space integrals on one grid, u = log x.

    log integrand of row k: log(alpha_k) - kappa_k + alpha_k u - sum_j exp(alpha_j u - kappa_j);
    the sum is computed once per node for all rows.
    """
    log_pref = np.array([[math.log(alphas[k]) - kappas[k]] for k in rows])
    a_rows = np.array([[alphas[k]] for k in rows])
    a_all, k_all = np.array(alphas, dtype=float)[:, None], np.array(kappas, dtype=float)[:, None]

    def log_f(u):
        with np.errstate(over="ignore", under="ignore"):
            total = np.exp(a_all * u - k_all).sum(axis=0)
            return log_pref + a_rows * u - total

    # mass sits where the dominating exponential sum is O(1)
    center = min(0.0, min(k / a for a, k in zip(alphas, kappas)))
    return [_probability(r) for r in concave_log_quad(log_f, center - 8.0, 8.0, tol=tol, note=note)]


def two_group_limit_from_kappa(kappa_value: float, sigma: float) -> QuadResult:
    """Limiting winning probability parameterized directly by kappa.

    Evaluates int_0^inf exp(-y - e^{-kappa} y^{1/sigma^2}) dy for finite
    kappa; the conventions kappa = -inf -> 0 and kappa = +inf -> 1 are
    returned exactly without quadrature.  ``sigma`` >= 1 is allowed here
    (sigma = 1 is the exchangeable boundary with value 1/(1 + e^-kappa)).
    """
    if not (math.isfinite(sigma) and sigma >= 1.0):
        raise ValueError(f"sigma must be a finite real >= 1, got {sigma}")
    if math.isnan(kappa_value):
        raise ValueError("kappa is NaN")
    if kappa_value == -math.inf:
        return QuadResult(value=0.0, abs_err=0.0, evaluations=0, note="degenerate")
    if kappa_value == math.inf:
        return QuadResult(value=1.0, abs_err=0.0, evaluations=0, note="degenerate")
    return _limit_components([1.0, 1.0 / (sigma * sigma)], [0.0, kappa_value], [0], QUAD_TOL)[0]


def two_group_limit(c: float, sigma: float) -> QuadResult:
    """Limiting probability that the unit-variance group wins, at (C, sigma).

    The degenerate endpoints C = 0 and C = +inf return exactly 0 and 1.
    """
    if not (math.isfinite(sigma) and sigma > 1.0):
        raise ValueError(f"sigma must be a finite real > 1, got {sigma}")
    if math.isnan(c) or c < 0.0:
        raise ValueError(f"c must lie in [0, +inf], got {c}")
    return two_group_limit_from_kappa(kappa(c, sigma), sigma)


def multi_group_limits(spec: LimitSpecK) -> list[QuadResult]:
    """All K limiting winning probabilities for a multi-group spec.

    Every kappa_k must be finite: a partially degenerate configuration
    has no joint limit law of this form and is rejected.  The integrands sum to the exact
    derivative of -exp(-sum_j e^{-kappa_j} x^{1/sigma_j^2}), so the
    returned values, each clamped to [0, 1], sum to 1 up to quadrature error.
    All K integrands are evaluated as rows of one quadrature on one grid:
    the exponential sum is computed once per node, and refinement stops
    when the largest row difference has settled.
    """
    kappas = spec.kappas()
    if not all(math.isfinite(k) for k in kappas):
        raise ValueError(f"all kappa values must be finite, got {kappas}")
    sigmas = [s for _, s in spec.groups]
    alphas = [1.0 / (s * s) for s in sigmas]
    non_baseline = [s for i, s in enumerate(sigmas) if i != spec.baseline]
    note = None
    if len(set(non_baseline)) < len(non_baseline):
        note = "repeated sigma among non-baseline groups"
    return _limit_components(alphas, kappas, range(len(spec.groups)), MULTI_QUAD_TOL, note)


def _winner_log_integrand(groups: Sequence[GroupSpec], k: int):
    sizes = np.array([g.size for g in groups], dtype=float)
    sigmas = np.array([g.sigma for g in groups], dtype=float)
    weights = sizes.copy()
    weights[k] -= 1.0  # the champion variable contributes the density factor
    log_pref = math.log(sizes[k]) - math.log(sigmas[k])
    s_k = float(sigmas[k])
    terms = [(w, s) for w, s in zip(weights.tolist(), sigmas.tolist()) if w != 0.0]

    def log_f(x):
        total = log_pref  # a float until the first term makes it an array
        for w, s in terms:
            total += w * log_ndtr(x / s)
        z = x / s_k
        total += -0.5 * z * z - _LOG_SQRT_2PI
        return total

    return log_f, sizes, sigmas


def finite_n_winner_multi(groups: Sequence[GroupSpec], k: int) -> QuadResult:
    """Exact P(group k attains the overall maximum) for finite sizes.

    ``k`` is a zero-based index.  Sizes may be any reals >= 1; all
    probability powers are assembled as n * log Phi, never by repeated
    multiplication.  The value is clamped to [0, 1].
    """
    groups = list(groups)
    if len(groups) < 2:
        raise ValueError("need at least 2 groups")
    if not 0 <= k < len(groups):
        raise ValueError(f"group index {k} out of range for {len(groups)} groups")
    log_f, sizes, sigmas = _winner_log_integrand(groups, k)
    # The champion's density is about sigma_k wide, so the seed scan steps in
    # fractions of sigma_k around the champion's own maximum; rivals with much
    # larger sigmas would otherwise set a step that jumps over the peak.
    s_k, n_k = float(sigmas[k]), float(sizes[k])
    center = s_k * math.sqrt(2.0 * math.log(n_k)) if n_k >= 2.0 else 0.0
    return _probability(concave_log_quad(log_f, center - 8.0 * s_k, center + 8.0 * s_k, tol=QUAD_TOL))


def finite_n_winner(g1: GroupSpec, g2: GroupSpec) -> QuadResult:
    """Exact P(max of group 1 > max of group 2) for finite real sizes."""
    return finite_n_winner_multi([g1, g2], 0)


def solve_c_for_target(p_target: float, sigma: float) -> float:
    """Invert the limit law: find C with two_group_limit(C, sigma) = p_target.

    Secant steps on logit p - logit p_target in kappa = kappa(C, sigma),
    started at kappa = logit p_target with slope 1 (exact at sigma = 1,
    where logit p = kappa).  The map kappa -> p is strictly increasing, so
    every evaluated iterate narrows a bracket that starts at log C = -60
    and 60; a step that leaves the bracket is replaced by its midpoint, or
    by the original bound the first time it is reached.  Stops when
    |p - p_target| <= SOLVE_TOL and returns the C of that iterate, inverted from
    kappa in closed form; a solve takes about 5 quadratures.  Raises if the
    target is not bracketed by log C in [-60, 60].
    """
    if not 0.0 < p_target < 1.0:
        raise ValueError(f"p_target must lie in (0, 1), got {p_target}")
    if not (math.isfinite(sigma) and sigma > 1.0):
        raise ValueError(f"sigma must be a finite real > 1, got {sigma}")
    # kappa is affine in log C: kappa(C) = log(C)/sigma^2 + kappa(1)
    s2, kappa_one = sigma * sigma, kappa(1.0, sigma)

    def c_of(kappa_value):
        return math.exp(s2 * (kappa_value - kappa_one))

    def logit(p):
        return math.log(p) - math.log1p(-p) if 0.0 < p < 1.0 else math.copysign(math.inf, p - 0.5)

    bounds = (math.exp(-60.0), math.exp(60.0))
    lo, hi = (kappa(c, sigma) for c in bounds)
    lo_reached = hi_reached = False
    target = logit(p_target)
    x, slope = target, 1.0
    x_prev = g_prev = None
    for _ in range(200):
        if not lo < x < hi:
            if x <= lo and not lo_reached:
                x = lo
            elif x >= hi and not hi_reached:
                x = hi
            else:
                x = 0.5 * (lo + hi)
        at_bound = (x == lo and not lo_reached) or (x == hi and not hi_reached)
        if at_bound:
            c = bounds[0] if x == lo else bounds[1]
        else:
            c = c_of(x)
        p = two_group_limit(c, sigma).value
        if at_bound and (p >= p_target if x == lo else p <= p_target):
            p_lo, p_hi = (two_group_limit(b, sigma).value for b in bounds)
            raise ValueError(
                f"p_target={p_target} not bracketed by log C in [-60, 60] "
                f"(p({bounds[0]:.3g})={p_lo:.3g}, p({bounds[1]:.3g})={p_hi:.3g})"
            )
        if abs(p - p_target) <= SOLVE_TOL:
            return c
        g = logit(p) - target
        if g < 0.0:
            lo, lo_reached = x, True
        else:
            hi, hi_reached = x, True
        if hi - lo < 1e-13:
            return c
        if x_prev is not None and x != x_prev:
            slope = (g - g_prev) / (x - x_prev)
        x_prev, g_prev = x, g
        x = x - g / slope if 0.0 < slope < math.inf else math.nan
    return c
