"""Adaptive trapezoid quadrature for log-concave integrands.

Every integral in this package has the form ``int exp(L(x)) dx`` with L
concave (winner-probability integrands are products of Gaussian CDFs and
densities, all log-concave; the limit-law integrands become log-concave
after the substitution y = e^u, which also absorbs the x^{a-1} endpoint
singularity of the multi-group representation into plain exponential
decay).  Concavity makes a simple strategy rigorous:

1. scan a seed window and expand it until, on each side, the endpoint
   log values sit ``DROP`` below the running maximum and every row falls
   outward from the node inside the endpoint (a row at -inf there counts
   as falling); by concavity the mass outside is then a negligible
   exponential tail.  If a side's two outermost evaluated nodes fall
   outward on every row, concavity keeps each row below their secant
   past the outer node, so the side ends, unevaluated, where the secants
   meet the running maximum less ``DROP`` (a later rise of the maximum
   only makes that end more conservative).  Otherwise, or when that
   point lies past the next batch, the side evaluates its next ``BATCH``
   geometric endpoints in one log_f call and stops at the first one deep
   enough on which every row falls from the endpoint before it; the
   later ones are never used, and a NaN there is ignored.
   ``MAX_EXPANSIONS`` counts endpoints, not batches.
2. trim to the region above the cutoff.  While no side has evaluated a
   window endpoint, the scan nodes still span the window, and the trim
   costs no evaluation: each end moves in to the scan node just outside
   the run of nodes above the cutoff (the run holds a higher node, so
   concavity keeps the integrand below the cutoff past it), or stays at
   its secant bound where the run reaches the scan's end.  A side's geometric endpoints are too coarse
   to place the window, so once a side has walked, the trim runs on a
   grid of ``4 * N_SCAN + 1`` nodes across the whole window instead.
3. refine an equispaced trapezoid rule by repeated halving and accept
   the first level within tol/2 of the one before.  The first log_f call
   holds levels 0 and 1 (level 0 is its even-indexed subset); each later
   halving evaluates only the new midpoints, kept as a running sum scaled
   by the running maximum of the log values.

A log-integrand may return K rows on the same nodes, for K integrals
that share their costly terms (the K-group limit law).  The window
follows the row-wise maximum, the bound holds for every row, refinement
stops when the largest row difference has settled, and the result is
one QuadResult per row.  ``evaluations`` counts every node passed to
log_f: the scan, each evaluated window endpoint (the unused ones of a
side's last batch included; an end set by the bound costs none), the
trim grid if a side walked, and the refinement nodes.  Nodes are a small
share of the cost: on a shared 2-core Xeon host an extra node costs about
10 ns (limit law) to 50 ns (finite-n), while each of a quadrature's 2 to 7
log_f calls brings 35 to 55 us of fixed numpy and Python work.

For analytic integrands the trapezoid rule converges geometrically in
the step size, so the first level that settles is already at the
rounding level.  ``abs_err`` is that first settled difference plus the
tail term: it measures the coarser of the two levels, so it reads up to
tol/2 (median 1e-15, at most 5e-10 on the benchmark's tables).  It
leaves out floating-point rounding, so it does not bound the error at
that level: finite-n values differ from mpmath by up to 1.2e-14 (n1 =
6.3e30, n2 = 1e8, sigma = 2; 1.1e-15 with a correctly rounded log Phi).
scipy takes log Phi's tail at x * fl(1/sqrt 2), 6.8e-17 too far out, which
shrinks |log Phi| by x^2 times that at every node (1e-14 at the peak x =
12).  Sizes near n1 = 1e138 have no such oracle: mpmath's erfc overflows.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = ["QuadResult", "QuadRows", "QuadratureError", "concave_log_quad"]

DROP = 46.0  # window ends sit this far below the peak log value: e^-46 ~ 1e-20
N_SCAN = 65  # nodes of the seed scan; the trim grid has 4 * N_SCAN + 1
N_START = 129  # nodes of the first trapezoid level
MAX_EXPANSIONS = 400  # outward steps allowed on each side of the window
BATCH = 8  # window endpoints per log_f call: one call per side resolves most windows
MAX_LEVELS = 14  # trapezoid levels, the first one included


@dataclass(frozen=True)
class QuadResult:
    """Numerical integral value with an absolute error estimate.

    ``abs_err`` is the first settled inter-level difference plus the tail
    term, without floating-point rounding; it measures the coarser level,
    so it reads larger than the accepted value's error.  ``evaluations``
    counts every node passed to log_f.
    """

    value: float
    abs_err: float
    evaluations: int


class QuadRows(tuple):
    """One QuadResult per row of a K-row log-integrand, all on the same nodes.

    ``evaluations`` counts each shared node once, and ``abs_err`` is the
    largest row estimate (each the first settled difference plus the tail
    term), so the rows read as one quadrature's cost and error estimate.
    """

    @property
    def evaluations(self) -> int:
        return self[0].evaluations

    @property
    def abs_err(self) -> float:
        return max(r.abs_err for r in self)


class QuadratureError(RuntimeError):
    """Raised when refinement stalls, the window fails to resolve or the log integrand is NaN or +inf."""


def _nodes(lo: float, hi: float, n: int, odd: bool = False) -> np.ndarray:
    """``np.linspace(lo, hi, n)``, or its odd-indexed nodes, bit for bit.

    linspace puts node i at ``i * ((hi - lo) / (n - 1)) + lo`` and sets the
    last node to ``hi``; building that here skips its per-call overhead.  A
    step that underflows to zero takes linspace's own (dividing) path.
    """
    step = (hi - lo) / (n - 1)
    if step == 0.0:
        xs = np.linspace(lo, hi, n)
        return xs[1::2] if odd else xs
    if odd:
        return np.arange(1.0, n - 1, 2) * step + lo
    xs = np.arange(float(n)) * step + lo
    xs[-1] = hi
    return xs


def _check(maxima) -> None:
    """Raise if a row maximum is NaN or +inf; numpy's max propagates a NaN node."""
    for value in maxima:
        if math.isnan(value):
            raise QuadratureError("log integrand returned NaN")
        if value == math.inf:
            raise QuadratureError("log integrand returned +inf")


def concave_log_quad(
    log_f,
    lo: float,
    hi: float,
    *,
    tol: float = 1e-10,
) -> QuadResult | QuadRows:
    """Integrate exp(log_f) over the real line for concave log_f.

    Parameters
    ----------
    log_f : callable
        Vectorized log-integrand; may return -inf where the integrand
        underflows, never NaN or +inf.  Given n nodes it returns either n values
        or a (K, n) array of K rows, each a concave log-integrand.  The
        window stage may call it up to ``BATCH - 1`` steps beyond the
        endpoint it keeps, far out in the tails, and ignores floating-point
        overflow in those calls; a side whose outer nodes already fall is
        ended by their secant without a call.
    lo, hi : float
        Seed window.  It does not need to contain the peak; the
        expansion stage walks outward until the tails are resolved.
    tol : float
        Absolute tolerance on the integral value (on every row's value):
        the first trapezoid level within tol/2 of the one before is
        returned, with that difference plus the tail term as ``abs_err``.

    Returns
    -------
    QuadResult
        For a log_f that returns one value per node.
    QuadRows
        For a log_f that returns K rows: the K results in row order.

    Raises
    ------
    ValueError
        If the seed window is not finite and increasing.
    QuadratureError
        If log_f returns NaN or +inf, the window cannot be resolved, or
        refinement does not settle within ``MAX_LEVELS`` levels.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"invalid seed window [{lo}, {hi}]")
    lo, hi = float(lo), float(hi)

    evaluations, single = 0, False

    def sample(points):
        """log_f at the float array ``points`` as a (rows, nodes) array."""
        nonlocal evaluations, single
        vals = np.asarray(log_f(points), dtype=float)
        evaluations += len(points)
        single = vals.ndim == 1
        return vals[None] if single else vals

    xs = _nodes(lo, hi, N_SCAN)
    ys = sample(xs)
    ymax = float(ys.max())
    _check((ymax,))
    if ymax == -math.inf:
        raise QuadratureError("integrand is zero everywhere in the resolved window")

    # grow each side until its endpoint is deep below the running peak and every
    # row falls outward there: at the secant bound of its two outermost nodes if
    # they fall outward and the bound lies within the next batch, else by a
    # batch taken in order (see step 1).
    def falls(outer, inner):
        return all(a < b or a == -math.inf for a, b in zip(outer, inner))

    walked = False
    for side in (-1, +1):
        step = (hi - lo) / 4.0
        end = lo if side < 0 else hi
        edge = slice(None, 2) if side < 0 else slice(None, -3, -1)
        near, (outer, inner) = xs[edge].tolist(), ys[:, edge].T.tolist()
        end_val = max(outer)
        expansions = 0
        while not (end_val - ymax <= -DROP and falls(outer, inner)):
            ends = []
            for _ in range(BATCH):
                end += side * step
                step *= 1.5
                ends.append(end)
            if all(map(operator.lt, outer, inner)):
                rise = max(max(a - (ymax - DROP), 0.0) / (b - a) for a, b in zip(outer, inner))
                bound = near[0] + side * abs(near[1] - near[0]) * rise
                if side * (ends[-1] - bound) >= 0.0:
                    end = bound
                    break
            with np.errstate(over="ignore"):
                batch = sample(np.array(ends))
            walked = True
            for end, end_val, column in zip(ends, batch.max(axis=0).tolist(), batch.T.tolist()):
                near, inner, outer = [end, near[0]], outer, column
                _check((end_val,))
                ymax = max(ymax, end_val)
                expansions += 1
                if expansions > MAX_EXPANSIONS:
                    raise QuadratureError("window expansion did not resolve the integrand tail")
                if end_val - ymax <= -DROP and falls(outer, inner):
                    break
        lo, hi = (end, hi) if side < 0 else (lo, end)

    # trim to the region that carries mass (see step 2): on the scan nodes, and
    # to their maximum, while they still span the window, else on a finer grid
    if walked:
        xs = _nodes(lo, hi, 4 * N_SCAN + 1)
        ys = sample(xs)
        ymax = float(ys.max())
        _check((ymax,))
    envelope = ys[0] if len(ys) == 1 else ys.max(axis=0)
    above = (envelope - ymax > -DROP).nonzero()[0]
    lo = float(xs[above[0] - 1]) if above[0] > 0 else lo
    hi = float(xs[above[-1] + 1]) if above[-1] < len(xs) - 1 else hi

    # nested trapezoid refinement, accepted at the first settled level; the first
    # call holds levels 0 and 1.  Per row, ``scaled`` is the node sum (end nodes
    # halved) over exp(peak), and ``edges`` the end nodes' sum over exp(peak) for
    # the tail term, None once the peak moves.  Both are Python floats, but every
    # exp and node sum stays on numpy arrays: math.exp or a plain sum can differ
    # in the last bit.
    with np.errstate(under="ignore"):
        n = N_START
        ys = sample(_nodes(lo, hi, 2 * n - 1))
        mids, ys = ys[:, 1::2], ys[:, ::2]
        m = ys.max(axis=1)
        peaks, shift, scale = m.tolist(), m[:, None], np.exp(m).tolist()
        _check(peaks)
        ends = ys[:, :: n - 1]
        weights = np.exp(ys - shift)
        edges = [a + b for a, b in weights[:, :: n - 1].tolist()]
        scaled = [s - 0.5 * e for s, e in zip(weights.sum(axis=1).tolist(), edges)]
        prev = None
        diffs = [math.inf] * len(peaks)
        for level in range(MAX_LEVELS):
            if level:
                n = 2 * n - 1
                mids = mids if level == 1 else sample(_nodes(lo, hi, n, odd=True))
                tops = mids.max(axis=1).tolist()
                _check(tops)
                if any(map(operator.gt, tops, peaks)):
                    m = np.maximum(m, tops)
                    scaled = [s * r for s, r in zip(scaled, np.exp(peaks - m).tolist())]
                    peaks, shift, scale, edges = m.tolist(), m[:, None], np.exp(m).tolist(), None
                mass = np.exp(mids - shift).sum(axis=1).tolist()
                scaled = [s + t for s, t in zip(scaled, mass)]
            h = (hi - lo) / (n - 1)
            total = [s * h * e for s, e in zip(scaled, scale)]
            if prev is not None:
                diffs = [abs(t - p) for t, p in zip(total, prev)]
                if all(d <= 0.5 * tol for d in diffs):
                    if edges is None:
                        edges = np.exp(ends - shift).sum(axis=1).tolist()
                    errors = [d + (hi - lo) * t * e for d, t, e in zip(diffs, edges, scale)]
                    rows = [QuadResult(v, e, evaluations) for v, e in zip(total, errors)]
                    return rows[0] if single else QuadRows(rows)
            prev = total

    message = f"trapezoid refinement did not reach tol={tol:g} (last diff {float(np.max(diffs)):.3g})"
    raise QuadratureError(message)
