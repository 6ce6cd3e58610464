"""Independent oracles used to derive expected test values.

Everything here is deliberately written from scratch with different
algorithms than the package (continued fractions and power series
instead of scipy's ndtr, bisection instead of rational inverses, fixed-grid
Simpson instead of adaptive trapezoid, 30-digit mpmath tanh-sinh
quadrature instead of the float64 trapezoid rule), so agreement is
evidence rather than tautology.
"""

from __future__ import annotations

import bisect
import math

import mpmath
import numpy as np

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def mills_cf(x: float, terms: int = 200) -> float:
    """Mills ratio (1 - Phi(x)) / phi(x) by the Laplace continued fraction.

    m(x) = 1/(x + 1/(x + 2/(x + 3/(x + ...)))), accurate for x >= ~2.5.
    """
    f = 0.0
    for k in range(terms, 0, -1):
        f = k / (x + f)
    return 1.0 / (x + f)


def log_phi(x: float) -> float:
    return -0.5 * x * x - _LOG_SQRT_2PI


def log_upper_tail_cf(x: float) -> float:
    """log(1 - Phi(x)) for x >= 2.5 via the Mills continued fraction."""
    return log_phi(x) + math.log(mills_cf(x))


def log_upper_tail_asymptotic(x: float, terms: int = 8) -> float:
    """log(1 - Phi(x)) via the divergent asymptotic series (x >= ~10).

    log phi(x) - log x + log(1 - 1/x^2 + 3/x^4 - 15/x^6 + ...); truncating
    at the smallest term keeps the error below the first omitted term.
    """
    series = 1.0
    term = 1.0
    for k in range(1, terms + 1):
        term *= -(2 * k - 1) / (x * x)
        series += term
    return log_phi(x) - math.log(x) + math.log(series)


def cdf_series(x: float, max_terms: int = 200) -> float:
    """Phi(x) by the central power series, reliable for |x| <= ~4."""
    s = 0.0
    term = x
    for k in range(max_terms):
        s += term
        term *= x * x / (2 * k + 3)
        if abs(term) < 1e-20 * max(abs(s), 1e-300):
            break
    return 0.5 + math.exp(log_phi(x)) * s


def oracle_cdf(x: float) -> float:
    if x > 3.0:
        return 1.0 - math.exp(log_upper_tail_cf(x))
    if x < -3.0:
        return math.exp(log_upper_tail_cf(-x))
    return cdf_series(x)


def oracle_log_cdf(x: float) -> float:
    if x < -3.0:
        return log_upper_tail_cf(-x)
    return math.log(oracle_cdf(x))


def bisect_quantile(p: float, lo: float = -50.0, hi: float = 50.0, iters: int = 200) -> float:
    """Solve Phi(x) = p against the oracle CDF by plain bisection."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if oracle_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bisect_log_tail(log_q: float, lo: float = 0.0, hi: float = 2000.0, iters: int = 300) -> float:
    """Solve log(1 - Phi(x)) = log_q by bisection on the CF/asymptotic oracle."""

    def f(x):
        if x < 1e-12:
            return math.log(0.5)
        if x < 2.5:
            return math.log(1.0 - cdf_series(x))
        return log_upper_tail_cf(x)

    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) > log_q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def simpson(f, a: float, b: float, n: int) -> float:
    """Composite Simpson rule on n (even) intervals."""
    if n % 2 != 0:
        raise ValueError("n must be even")
    h = (b - a) / n
    total = f(a) + f(b)
    for i in range(1, n):
        total += f(a + i * h) * (4 if i % 2 else 2)
    return total * h / 3.0


def mp_limit_law(kappa_value: float, sigma: float, digits: int = 30) -> float:
    """int_0^inf exp(-y - e^{-kappa} y^{1/sigma^2}) dy by mpmath at ``digits`` digits."""
    with mpmath.workdps(digits):
        alpha = 1 / mpmath.mpf(sigma) ** 2
        weight = mpmath.exp(-mpmath.mpf(kappa_value))
        return float(mpmath.quad(lambda y: mpmath.exp(-y - weight * y**alpha), [0, 1, 10, mpmath.inf]))


def mp_finite_n(n1: float, s1: float, n2: float, s2: float, digits: int = 30) -> float:
    """P(max of n1 N(0, s1^2) > max of n2 N(0, s2^2)) by mpmath at ``digits`` digits.

    The integrand peaks near s1 sqrt(2 log n1) with a width of order s1, so
    the range is split there for the tanh-sinh rule.
    """
    with mpmath.workdps(digits):
        n1, s1, n2, s2 = (mpmath.mpf(v) for v in (n1, s1, n2, s2))
        center = s1 * mpmath.sqrt(2 * mpmath.log(n1)) if n1 >= 2 else mpmath.mpf(0)

        def f(x):
            log_rivals = n2 * mpmath.log(mpmath.ncdf(x / s2)) + (n1 - 1) * mpmath.log(mpmath.ncdf(x / s1))
            return mpmath.exp(log_rivals) * n1 / s1 * mpmath.npdf(x / s1)

        splits = [center + s1 * k for k in (-4, -2, -1, 0, 1, 2, 4)]
        return float(mpmath.quad(f, [-mpmath.inf, *splits, mpmath.inf]))


def ks_statistic(samples, cdf) -> float:
    """Kolmogorov-Smirnov sup distance between samples and a CDF.

    ``cdf`` must be vectorized: it is called once, on the sorted samples.
    """
    xs = np.sort(np.asarray(samples, dtype=float))
    n = len(xs)
    fx = np.asarray(cdf(xs), dtype=float)
    i = np.arange(n)
    return float(max(np.max(np.abs(fx - i / n)), np.max(np.abs(fx - (i + 1) / n))))


def ks_critical_1pct(n: int) -> float:
    """Asymptotic 1% critical value sqrt(-log(alpha/2)/2)/sqrt(n)."""
    return math.sqrt(-math.log(0.005) / 2.0) / math.sqrt(n)


def threshold_split_sse(values) -> tuple[float, tuple[float, ...], tuple[float, ...]]:
    """Brute-force best 2-cluster split over all sorted thresholds.

    Returns (min SSE, low multiset, high multiset); the oracle for the
    exact 1D 2-means scan.
    """

    def sse(chunk):
        if not chunk:
            return 0.0
        mu = sum(chunk) / len(chunk)
        return sum((v - mu) ** 2 for v in chunk)

    s = sorted(values)
    best = None
    for i in range(1, len(s)):
        cost = sse(s[:i]) + sse(s[i:])
        if best is None or cost < best[0] - 1e-15:
            best = (cost, tuple(s[:i]), tuple(s[i:]))
    return best


def ideal_bootstrap_winner(pool1, pool2, n1: float, n2: float) -> float:
    """Exact P(max of n1 draws from pool1 > max of n2 draws from pool2).

    Draws are uniform with replacement.  With F1, F2 the pools'
    empirical CDFs, the ideal (B -> infinity) bootstrap frequency is
    sum_v [F1(v)^n1 - F1(v-)^n1] * F2(v-)^n2 over the distinct pool-1
    values v; powers go through exp(n log F), so n can pass 1e8.
    """
    a, b = sorted(pool1), sorted(pool2)

    def power(f, n):
        return math.exp(n * math.log(f)) if f > 0.0 else 0.0

    total, i = 0.0, 0
    while i < len(a):
        j = bisect.bisect_right(a, a[i])
        f2_below = bisect.bisect_left(b, a[i]) / len(b)
        total += (power(j / len(a), n1) - power(i / len(a), n1)) * power(f2_below, n2)
        i = j
    return total
