"""Numerical evaluation of the winner-probability formulas.

Three families of integrals live here:

* the two-group limit law  int_0^inf exp(-y - e^{-kappa} y^{1/sigma^2}) dy,
* its K-group generalization with per-group integrands
  (e^{-kappa_k}/sigma_k^2) x^{1/sigma_k^2 - 1} exp(-sum_j e^{-kappa_j} x^{1/sigma_j^2}),
  one quadrature per group (the two-group law is group 0 of K = 2),
* the exact finite-n probability that group 1 beats groups j = 2..K,
  int_R exp((n1-1) log Phi(x/sigma1) + sum_j n_j log Phi(x/sigma_j)) (n1/sigma1) phi(x/sigma1) dx,
  which serves as the brute-force oracle for everything else.

The [0, inf) integrals are evaluated after the substitution y = e^u,
which removes the endpoint singularity and leaves a log-concave
integrand on the whole line; the finite-n integrand is log-concave as
it stands.  All exponents are assembled in log space (n log Phi can
reach -1e15) and exponentiated once per node inside the quadrature.
Returned probabilities are clamped to [0, 1].  ``abs_err`` is the
quadrature's estimate for the unclamped value: the first settled
inter-level difference plus the tail term, without floating-point
rounding.  It measures the coarser level, so it reads up to TOL/2, the
one tolerance of :mod:`quadrature`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import log_ndtr

from .quadrature import TOL, QuadratureError, QuadResult, concave_log_quad
from .scaling import GroupSpec, kappa

__all__ = [
    "LimitSpecK",
    "two_group_limit",
    "two_group_limit_from_kappa",
    "multi_group_limits",
    "finite_n_winner",
    "solve_c_for_target",
]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
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
            if not (math.isfinite(s * s) and s > 1.0):
                raise ValueError(f"group {i}: sigma must be a real > 1 with a finite square, got {s}")
            if not 0.0 < c < math.inf:
                raise ValueError(f"group {i}: c must be a finite real > 0, got {c}")

    def kappas(self) -> tuple[float, ...]:
        return tuple(kappa(c, s) for c, s in self.groups)


def _probability(result: QuadResult) -> QuadResult:
    """``result`` with its value clamped to [0, 1]; ``abs_err`` is kept."""
    value = min(max(result.value, 0.0), 1.0)
    return result if value == result.value else replace(result, value=value)


def _limit_component(alphas, kappas, k) -> QuadResult:
    """p_k, the limit law's integral for group k, in v = alpha_k u - kappa_k with u = log x.

    log integrand: v - sum_j exp((alpha_j/alpha_k)(v + kappa_k) - kappa_j); term j
    is e^0 at v = kappa_j alpha_k/alpha_j - kappa_k.
    """
    a_k, k_k = alphas[k], kappas[k]
    ratios, k_all = np.array([[a / a_k for a in alphas], kappas], dtype=float)[:, :, None]

    def log_f(v):
        return v - np.exp(ratios * (v + k_k) - k_all).sum(axis=0)

    # mass sits where the dominating exponential sum is O(1); far out it over- and underflows harmlessly
    center = min(0.0, *(k_j * a_k / a_j - k_k for a_j, k_j in zip(alphas, kappas)))
    with np.errstate(over="ignore", under="ignore"):
        return _probability(concave_log_quad(log_f, center - 8.0, 8.0))


def two_group_limit_from_kappa(kappa_value: float, sigma: float) -> QuadResult:
    """Limiting winning probability parameterized directly by kappa.

    Evaluates int_0^inf exp(-y - e^{-kappa} y^{1/sigma^2}) dy for finite
    kappa; the conventions kappa = -inf -> 0 and kappa = +inf -> 1 are
    returned exactly without quadrature.  ``sigma`` >= 1 is allowed here
    (sigma = 1 is the exchangeable boundary with value 1/(1 + e^-kappa)).
    """
    if not (math.isfinite(sigma * sigma) and sigma >= 1.0):
        raise ValueError(f"sigma must be a real >= 1 with a finite square, got {sigma}")
    if math.isnan(kappa_value):
        raise ValueError("kappa is NaN")
    if kappa_value == -math.inf:
        return QuadResult(value=0.0, abs_err=0.0, evaluations=0)
    if kappa_value == math.inf:
        return QuadResult(value=1.0, abs_err=0.0, evaluations=0)
    return _limit_component([1.0, 1.0 / (sigma * sigma)], [0.0, kappa_value], 0)


def two_group_limit(c: float, sigma: float) -> QuadResult:
    """Limiting probability that the unit-variance group wins, at (C, sigma).

    The degenerate endpoints C = 0 and C = +inf return exactly 0 and 1.
    """
    if not (math.isfinite(sigma * sigma) and sigma > 1.0):
        raise ValueError(f"sigma must be a real > 1 with a finite square, got {sigma}")
    return two_group_limit_from_kappa(kappa(c, sigma), sigma)


def multi_group_limits(spec: LimitSpecK) -> list[QuadResult]:
    """All K limiting winning probabilities for a multi-group spec, one quadrature each.

    Every kappa_k is finite, as :class:`LimitSpecK` admits only 0 < c < inf:
    a partially degenerate configuration has no joint limit law of this form.  The integrands sum to the exact
    derivative of -exp(-sum_j e^{-kappa_j} x^{1/sigma_j^2}), so the
    returned values, each clamped to [0, 1], sum to 1 up to quadrature error;
    a sum farther than K * TOL from 1 raises QuadratureError.  Group k is
    integrated in its own variable v = alpha_k u - kappa_k, so at K = 2 group 0
    is :func:`two_group_limit` bit for bit.  Non-baseline groups may share a
    sigma.  A large sigma is costly in its own group: at C = 1 it takes
    262,210 evaluations at sigma 30 and 1,048,642 at 90, and from about 90.5
    it raises QuadratureError where :func:`two_group_limit` returns a value.
    """
    kappas = spec.kappas()
    alphas = [1.0 / (s * s) for _, s in spec.groups]
    results = [_limit_component(alphas, kappas, k) for k in range(len(alphas))]
    total = sum(r.value for r in results)
    # 1,500 random specs (K = 2-6, sigma <= 30, C in [1e-4, 1e4]) sum within 7.7e-14 of 1
    if not abs(total - 1.0) <= len(results) * TOL:
        raise QuadratureError(f"the {len(results)} group probabilities sum to {total!r}, not 1")
    return results


def finite_n_winner(champion: GroupSpec, *rivals: GroupSpec) -> QuadResult:
    """Exact P(the champion's maximum beats every rival's) for finite real sizes >= 1.

    P(group k of K >= 2 wins) is ``finite_n_winner(groups[k], *others)``.
    Powers are assembled as n * log Phi, never by repeated multiplication,
    and the value is clamped to [0, 1].
    """
    if not rivals:
        raise ValueError("need at least 2 groups")
    s_k, n_k = float(champion.sigma), float(champion.size)
    log_pref = math.log(n_k) - math.log(s_k)
    # the champion variable contributes the density factor, so its own power is n_k - 1
    terms = [(n_k - 1.0, s_k)] + [(float(g.size), float(g.sigma)) for g in rivals]
    terms = [(w, s) for w, s in terms if w != 0.0]

    def log_f(x):
        z = x / s_k
        total = log_pref  # a float until the first term makes it an array
        for w, s in terms:
            total += w * log_ndtr(z if s == s_k else x / s)
        total += -0.5 * z * z - _LOG_SQRT_2PI
        return total

    # The champion's density is about sigma_k wide, so the seed scan steps in
    # fractions of sigma_k around the champion's own maximum; rivals with much
    # larger sigmas would otherwise set a step that jumps over the peak.
    center = s_k * math.sqrt(2.0 * math.log(n_k)) if n_k >= 2.0 else 0.0
    return _probability(concave_log_quad(log_f, center - 8.0 * s_k, center + 8.0 * s_k))


def solve_c_for_target(p_target: float, sigma: float) -> float:
    """Invert the limit law: find C with two_group_limit(C, sigma) = p_target.

    Secant steps on logit p - logit p_target in kappa = kappa(C, sigma),
    started at kappa = logit p_target with slope 1 (exact at sigma = 1,
    where logit p = kappa).  The map kappa -> p is strictly increasing, so
    each evaluated iterate moves one end of a bracket that starts at the
    bounds log C = -60 and 60.  A step that leaves the bracket goes to the
    end on its side while that end is an unevaluated bound, at its exact C,
    and to the midpoint otherwise; a bound that does not bracket the target
    raises.  Stops when |p - p_target| <= SOLVE_TOL and returns the C of
    that iterate, inverted from kappa in closed form; a solve takes about 5
    quadratures.  The stop is absolute: a target below about 1e-9 stops
    after one quadrature, usually at the bound e^-60 (as at p, sigma = 1e-9,
    2.5 and 1e-20, 1.2), so tail targets get no relative accuracy.
    """
    if not 0.0 < p_target < 1.0:
        raise ValueError(f"p_target must lie in (0, 1), got {p_target}")
    if not (math.isfinite(sigma * sigma) and sigma > 1.0):
        raise ValueError(f"sigma must be a real > 1 with a finite square, got {sigma}")
    # kappa is affine in log C: kappa(C) = log(C)/sigma^2 + kappa(1)
    s2, kappa_one = sigma * sigma, kappa(1.0, sigma)

    def logit(p):
        return math.log(p) - math.log1p(-p) if 0.0 < p < 1.0 else math.copysign(math.inf, p - 0.5)

    bounds = (math.exp(-60.0), math.exp(60.0))
    # an end is [kappa, C]: C is the exact bound until an iterate evaluates that end, then None
    lo, hi = ([kappa(c, sigma), c] for c in bounds)
    target = logit(p_target)
    x, slope, prev = target, 1.0, None
    for _ in range(200):
        end = None
        if not lo[0] < x < hi[0]:
            end = lo if x <= lo[0] and lo[1] is not None else hi if x >= hi[0] and hi[1] is not None else None
            x = end[0] if end else 0.5 * (lo[0] + hi[0])
        c = end[1] if end else math.exp(s2 * (x - kappa_one))
        p = two_group_limit(c, sigma).value
        if end and (p >= p_target if end is lo else p <= p_target):
            p_lo, p_hi = (two_group_limit(b, sigma).value for b in bounds)
            raise ValueError(
                f"p_target={p_target} not bracketed by log C in [-60, 60] "
                f"(p({bounds[0]:.3g})={p_lo:.3g}, p({bounds[1]:.3g})={p_hi:.3g})"
            )
        if abs(p - p_target) <= SOLVE_TOL:
            return c
        g = logit(p) - target
        if g < 0.0:
            lo = [x, None]
        else:
            hi = [x, None]
        if hi[0] - lo[0] < 1e-13:
            return c
        if prev is not None and x != prev[0]:
            slope = (g - prev[1]) / (x - prev[0])
        prev = x, g
        x = x - g / slope if 0.0 < slope < math.inf else math.nan
    return c
