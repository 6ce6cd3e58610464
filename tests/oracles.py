"""Independent oracles used to derive expected test values.

Everything here is deliberately written from scratch with different
algorithms than the package (continued fractions and power series
instead of scipy's ndtr, bisection instead of rational inverses, fixed-grid
Simpson instead of adaptive trapezoid, mpmath tanh-sinh quadrature at 30
or more digits instead of the float64 trapezoid rule, every variable of a
group simulated instead of one quantile-transformed maximum), so
agreement is evidence rather than tautology.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Sequence

import mpmath
import numpy as np

from gausswinner.montecarlo import _CHUNK_DRAWS, RngStream, _uniforms
from gausswinner.normal import std_normal_quantile
from gausswinner.scaling import GroupSpec

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


def mp_finite_n(champion: GroupSpec, *rivals: GroupSpec, digits: int | None = None) -> float:
    """P(the champion's maximum exceeds every rival group's maximum) by mpmath at ``digits`` digits.

    Near the peak Phi(x) is about 1 - 1/n, so n log Phi(x) keeps only
    ``digits`` - log10 n of them; the default max(30, ceil(log10 max n) + 25)
    leaves 25.  The integrand peaks near s1 sqrt(2 log n1) with a width of
    order s1, and each rival's factor turns over near s_j sqrt(2 log n_j), so
    the range is split at those points for the tanh-sinh rule.
    """
    groups = (champion, *rivals)
    if digits is None:
        digits = max(30, math.ceil(math.log10(max(g.size for g in groups))) + 25)
    with mpmath.workdps(digits):
        (n1, s1), *others = ((mpmath.mpf(g.size), mpmath.mpf(g.sigma)) for g in groups)

        def center(n, s):
            return s * mpmath.sqrt(2 * mpmath.log(n)) if n >= 2 else mpmath.mpf(0)

        def f(x):
            log_rivals = (n1 - 1) * mpmath.log(mpmath.ncdf(x / s1))
            for n, s in others:
                log_rivals += n * mpmath.log(mpmath.ncdf(x / s))
            return mpmath.exp(log_rivals) * n1 / s1 * mpmath.npdf(x / s1)

        splits = {center(n1, s1) + s1 * k for k in (-4, -2, -1, 0, 1, 2, 4)}
        splits.update(center(n, s) for n, s in others)
        return float(mpmath.quad(f, [-mpmath.inf, *sorted(splits), mpmath.inf]))


def merged_pair(c_a: float, c_b: float, sigma: float) -> tuple[float, float, float]:
    """The one limit-law group that two groups with one sigma act as: (c, share_a, share_b).

    With alpha = 1/sigma^2 the pair's terms e^{-kappa} x^alpha add, and
    e^{-kappa} is c^{-alpha} times a factor of sigma alone, so the pair is
    one group with c = (c_a^-alpha + c_b^-alpha)^(-1/alpha).  Each group's
    integrand carries its own e^{-kappa}, so the merged group's probability
    splits in the ratio c_a^-alpha : c_b^-alpha.
    """
    alpha = 1.0 / (sigma * sigma)
    w_a, w_b = c_a**-alpha, c_b**-alpha
    return (w_a + w_b) ** (-1.0 / alpha), w_a / (w_a + w_b), w_b / (w_a + w_b)


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


@dataclass(frozen=True)
class ArgmaxIdentityCheck:
    """One group's two sides of the exchangeability identity.

    lhs = n_k * P(overall argmax is the group's first element),
    rhs = P(the group's maximum wins); the two must agree within
    Monte Carlo error.
    """

    group: int
    size: int
    lhs: float
    lhs_std_err: float
    rhs: float
    rhs_std_err: float
    trials: int


def mc_argmax_identity(
    groups: Sequence[GroupSpec],
    trials: int,
    rng: RngStream,
) -> list[ArgmaxIdentityCheck]:
    """Simulate every individual variable and test the exchangeability identity.

    For each group k this reports n_k * P_hat(overall argmax is the
    group's first element) against P_hat(group k wins).  Sizes must be
    small integers: this is the one estimator that cannot use the
    max-transform shortcut.
    """
    groups = list(groups)
    if len(groups) < 2:
        raise ValueError("need at least 2 groups")
    sizes = []
    for g in groups:
        if g.size != int(g.size):
            raise ValueError(f"argmax identity requires integer sizes, got {g.size}")
        sizes.append(int(g.size))
    if max(sizes) > 1000:
        raise ValueError("argmax identity caps group sizes at 1000 (full-vector simulation)")
    total = sum(sizes)
    starts = np.cumsum([0] + sizes)
    sigmas = np.concatenate([np.full(n, g.sigma) for n, g in zip(sizes, groups)])

    def count(u):
        draws = std_normal_quantile(u) * sigmas
        arg = np.argmax(draws, axis=1)
        first = np.array([np.count_nonzero(arg == starts[j]) for j in range(len(groups))])
        wins = np.array(
            [np.count_nonzero((arg >= starts[j]) & (arg < starts[j + 1])) for j in range(len(groups))]
        )
        return np.concatenate([first, wins])

    chunk = max(1, _CHUNK_DRAWS // total)
    counts = sum(count(_uniforms(rng, t0, min(chunk, trials - t0), total)) for t0 in range(0, trials, chunk))
    first, wins = counts[: len(groups)], counts[len(groups):]
    out = []
    for j, n in enumerate(sizes):
        p_first = first[j] / trials
        p_win = wins[j] / trials
        out.append(
            ArgmaxIdentityCheck(
                group=j,
                size=n,
                lhs=n * p_first,
                lhs_std_err=n * math.sqrt(p_first * (1.0 - p_first) / trials),
                rhs=p_win,
                rhs_std_err=math.sqrt(p_win * (1.0 - p_win) / trials),
                trials=trials,
            )
        )
    return out


def deseasonalize(series) -> np.ndarray:
    """Anomalies of one station's observations: value minus its month-of-year mean.

    The per-station chain below is the one ``gausswinner.pipeline`` ran
    station by station before its stages became columnar passes; the
    passes must give its phi, innovations, variances and errors bit for bit.
    """
    order = np.argsort(series.month, kind="stable")
    month, value = series.month[order], series.value[order]
    bounds = np.flatnonzero(np.diff(month, prepend=month[:1] - 1)).tolist() + [len(month)]
    means, thin = [], []
    for start, stop in zip(bounds, bounds[1:]):
        if stop - start < 2:
            thin.append(int(month[start]))
        else:
            means.append(value[start:stop].mean())
    if thin:
        raise ValueError(f"months {thin} have fewer than 2 observations")
    anomalies = np.empty_like(value)
    anomalies[order] = value - np.repeat(means, np.diff(bounds))
    return anomalies


def detrend_linear(x, t) -> np.ndarray:
    """Residuals of an ordinary least-squares line in the time index ``t``."""
    x = np.asarray(x, dtype=float)
    if x.size < 3:
        raise ValueError(f"detrend needs at least 3 points, got {x.size}")
    t = np.asarray(t, dtype=float)
    tc = t - t.mean()
    denom = float(tc @ tc)
    if denom == 0.0:
        raise ValueError("time index is constant")
    slope = float(tc @ (x - x.mean())) / denom
    return x - x.mean() - slope * tc


def ar1_innovations(x, t) -> tuple[float, np.ndarray]:
    """AR(1) phi by conditional least squares over consecutive-month lag pairs, and the innovations."""
    x = np.asarray(x, dtype=float)
    if x.size < 10:
        raise ValueError(f"AR(1) fit needs at least 10 points, got {x.size}")
    consecutive = np.diff(t) == 1
    lag, cur = x[:-1][consecutive], x[1:][consecutive]
    if lag.size < 2:
        raise ValueError("fewer than 2 consecutive lag pairs")
    denom = float(lag @ lag)
    if denom == 0.0:
        raise ValueError("degenerate series: zero lag variance")
    phi = float(lag @ cur) / denom
    return phi, cur - phi * lag


def process_station(series) -> tuple[float, np.ndarray, float]:
    """Anomaly -> detrend -> AR(1) for one station: phi, innovations and their variance (ddof=1).

    A ValueError names the station.  A year past (2**53 - 11) // 12 in size is
    refused before any month index is formed, since its index would not be
    exact in a float (and past about 7.7e17 would wrap in int64).
    """
    limit = (2**53 - 11) // 12
    if np.any((series.year < -limit) | (series.year > limit)):
        raise ValueError(f"station {series.station_id}: years must lie in {-limit}..{limit}")
    t = series.year * 12 + (series.month - 1)
    try:
        phi, innovations = ar1_innovations(detrend_linear(deseasonalize(series), t), t)
    except ValueError as exc:
        raise ValueError(f"station {series.station_id}: {exc}") from None
    return phi, innovations, innovations.var(ddof=1)
