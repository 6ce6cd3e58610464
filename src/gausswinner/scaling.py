"""Deterministic skeleton of the theory: norming constants, the critical
sample-size scaling law, the kappa location constant, and diagnostics.

Sample sizes are real-valued throughout.  The asymptotics only see n
through log n, and keeping n real avoids integer overflow when the
critical scale reaches 1e20 and beyond; flooring happens only at the
simulation boundary (see :func:`critical_n1`).

All logs are natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "GroupSpec",
    "NormingConstants",
    "CriticalSize",
    "norming_constants",
    "kappa",
    "log_critical_scale",
    "critical_scale",
    "critical_n1",
    "beta",
    "centering_gap",
]

_LOG_4PI = math.log(4.0 * math.pi)
_MAX_EXACT_FLOOR = float(2**53)  # beyond this a float no longer resolves integers


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class GroupSpec:
    """One Gaussian group: effective sample size and standard deviation.

    ``size`` may be non-integer; the distribution function Phi(x/sigma)^n
    is a valid law for any real n >= 1.
    """

    size: float
    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.size) and self.size >= 1.0):
            raise ValueError(f"group size must be a finite real >= 1, got {self.size}")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError(f"group sigma must be a finite real > 0, got {self.sigma}")


@dataclass(frozen=True)
class NormingConstants:
    """Scale a_n and location b_n of the Gaussian maximum normalization."""

    a: float
    b: float


@dataclass(frozen=True)
class CriticalSize:
    """Critical first-group size C * f(n2) in real, log, and floored form.

    ``floor_value`` is None once the real value exceeds 2**53, where a
    float can no longer represent the floor exactly; ``log_value`` is
    always available.
    """

    real_value: float
    log_value: float
    floor_value: int | None


def norming_constants(n: float) -> NormingConstants:
    """Norming constants for the maximum of n iid standard normals.

    a_n = (2 log n)^{-1/2},
    b_n = (2 log n)^{1/2} - (log log n + log 4 pi) / (2 (2 log n)^{1/2}).

    Requires n >= 2 so that log log n is defined and positive-log
    pathologies at n <= e cannot produce complex or NaN output.
    """
    if not (math.isfinite(n) and n >= 2.0):
        raise ValueError(f"norming constants require n >= 2, got {n}")
    two_log = 2.0 * math.log(n)
    root = math.sqrt(two_log)
    a = 1.0 / root
    b = root - (math.log(math.log(n)) + _LOG_4PI) / (2.0 * root)
    return NormingConstants(a=a, b=b)


def kappa(c: float, sigma: float) -> float:
    """Limiting normalized gap between the two centering sequences.

    kappa(C, sigma) = log(C/sigma)/sigma^2 + (1 - 1/sigma^2) log(4 pi)/2,
    with the conventions kappa(0, .) = -inf and kappa(inf, .) = +inf.

    ``sigma`` may equal 1 (then kappa = log C, the exchangeable boundary
    used when collapsing the limit law onto sigma -> 1+).
    """
    if math.isnan(c) or c < 0.0:
        raise ValueError(f"c must lie in [0, +inf], got {c}")
    if not (math.isfinite(sigma) and sigma >= 1.0):
        raise ValueError(f"sigma must be a finite real >= 1, got {sigma}")
    if c == 0.0:
        return -math.inf
    if math.isinf(c):
        return math.inf
    s2 = sigma * sigma
    return math.log(c / sigma) / s2 + 0.5 * (1.0 - 1.0 / s2) * _LOG_4PI


def log_critical_scale(n2: float, sigma: float) -> float:
    """log f(n2) for f(n2) = n2^{sigma^2} (log n2)^{-(sigma^2-1)/2}."""
    if not (math.isfinite(n2) and n2 >= 2.0):
        raise ValueError(f"critical scale requires n2 >= 2, got {n2}")
    if not (math.isfinite(sigma * sigma) and sigma > 1.0):
        raise ValueError(f"sigma must be a real > 1 with a finite square, got {sigma}")
    s2 = sigma * sigma
    log_n2 = math.log(n2)
    return s2 * log_n2 - 0.5 * (s2 - 1.0) * math.log(log_n2)


def critical_scale(n2: float, sigma: float) -> float:
    """Critical scale f(n2); overflows to +inf (use log_critical_scale then)."""
    return _exp_or_inf(log_critical_scale(n2, sigma))


def critical_n1(n2: float, sigma: float, c: float) -> CriticalSize:
    """First-group size C * f(n2) sitting exactly on the critical law.

    Returns the real value, its log, and the floor when the floor is
    exactly representable.  Raises if the real value drops below 1 (an
    empty first group cannot be simulated or compared).
    """
    if not (math.isfinite(c) and c > 0.0):
        raise ValueError(f"c must be a finite real > 0, got {c}")
    log_value = math.log(c) + log_critical_scale(n2, sigma)
    real_value = _exp_or_inf(log_value)
    if real_value < 1.0:
        raise ValueError(
            f"critical size C*f(n2) = {real_value:.4g} < 1: empty group at this scale"
        )
    floor_value = int(math.floor(real_value)) if real_value <= _MAX_EXACT_FLOOR else None
    return CriticalSize(real_value=real_value, log_value=log_value, floor_value=floor_value)


def beta(n1: float, n2: float, sigma: float) -> float:
    """Size of group 1 relative to the critical scale, n1 / f(n2).

    Computed as exp(log n1 - log f(n2)) so astronomically large sizes
    stay finite.  beta -> 0 means group 2 dominates; beta -> inf means
    group 1 does.
    """
    if not (math.isfinite(n1) and n1 >= 1.0):
        raise ValueError(f"n1 must be a finite real >= 1, got {n1}")
    return _exp_or_inf(math.log(n1) - log_critical_scale(n2, sigma))


def centering_gap(n1: float, n2: float, sigma: float) -> float:
    """Finite-n location gap (b_{n1} - sigma b_{n2}) / (sigma a_{n2}).

    Along the critical law this converges (slowly, at logarithmic rate)
    to kappa(C, sigma); away from it, it diverges and the comparison
    degenerates.
    """
    if not (math.isfinite(sigma) and sigma >= 1.0):
        raise ValueError(f"sigma must be a finite real >= 1, got {sigma}")
    nc1 = norming_constants(n1)
    nc2 = norming_constants(n2)
    return (nc1.b - sigma * nc2.b) / (sigma * nc2.a)
