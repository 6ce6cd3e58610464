"""Ideal (B -> infinity) bootstrap winner probability from two finite pools.

The program's bootstrap draws n1 values from pool 1 and n2 from pool 2,
each uniformly with replacement, and counts max1 > max2.  With F1, F2
the empirical CDFs of the pools, the maximum of n1 draws equals v with
probability F1(v)^n1 - F1(v-)^n1, and the strict comparison needs
max2 < v, probability F2(v-)^n2.  Summing over the distinct pool-1
values gives the exact expectation of the bootstrap frequency:

    p = sum_v [F1(v)^n1 - F1(v-)^n1] * F2(v-)^n2.

Powers are taken in log space so n1 in the millions stays accurate.
The benchmark checks each bootstrap row against this value; the module
uses numpy only and never calls into the package under test.
"""

from __future__ import annotations

import numpy as np


def ideal_bootstrap_winner(pool1, pool2, n1: float, n2: float) -> float:
    """Exact P(max of n1 pool-1 draws > max of n2 pool-2 draws)."""
    a = np.sort(np.asarray(pool1, dtype=float))
    b = np.sort(np.asarray(pool2, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("pools must be nonempty")
    values, counts = np.unique(a, return_counts=True)
    at_or_below = np.cumsum(counts)
    with np.errstate(divide="ignore"):
        log_f1 = np.log(at_or_below / a.size)  # log F1(v)
        log_f1_minus = np.log((at_or_below - counts) / a.size)  # log F1(v-), -inf at the minimum
        log_f2_minus = np.log(np.searchsorted(b, values, side="left") / b.size)  # log F2(v-)
    hi = n1 * log_f1
    # F1(v)^n1 - F1(v-)^n1 = F1(v)^n1 * (1 - exp(n1 (log F1(v-) - log F1(v))))
    mass = -np.expm1(n1 * log_f1_minus - hi)
    with np.errstate(under="ignore"):
        terms = np.exp(hi + n2 * log_f2_minus) * mass
    return float(np.sum(terms))
