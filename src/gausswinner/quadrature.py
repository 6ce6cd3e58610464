"""Adaptive trapezoid quadrature for log-concave integrands.

Every integral in this package has the form ``int exp(L(x)) dx`` with L
concave (winner-probability integrands are products of Gaussian CDFs and
densities, all log-concave; the limit-law integrands become log-concave
after the substitution y = e^u, which also absorbs the x^{a-1} endpoint
singularity of the multi-group representation into plain exponential
decay).  Each call integrates one L to the one absolute tolerance ``TOL``
(a K-group law is K calls).  Concavity makes a simple strategy rigorous:

1. scan a seed window and expand it until, on each side, the endpoint
   log value sits ``DROP`` below the running maximum and falls outward
   from the node inside the endpoint (an endpoint at -inf counts as
   falling); by concavity the mass outside is then a negligible
   exponential tail.  If a side's two outermost evaluated nodes fall
   outward, concavity keeps L below their secant past the outer node,
   so the side ends, unevaluated, where the secant meets the running
   maximum less ``DROP`` (a later rise of the maximum only makes that
   end more conservative).  Otherwise, or when that point lies past the
   next batch, the side evaluates its next ``BATCH`` geometric endpoints
   in one log_f call and stops at the first one deep enough that falls
   from the endpoint before it; the later ones are never used, and a
   NaN there is ignored.  ``MAX_EXPANSIONS`` counts endpoints, not
   batches.
2. trim to the region above the cutoff.  While no side has evaluated a
   window endpoint, the scan nodes still span the window, and the trim
   costs no evaluation: each end moves in to the scan node just outside
   the run of nodes above the cutoff (the run holds a higher node, so
   concavity keeps the integrand below the cutoff past it), or stays at
   its secant bound where the run reaches the scan's end.  A side's geometric endpoints are too coarse
   to place the window, so once a side has walked, the trim runs on a
   grid of ``4 * N_SCAN + 1`` nodes across the whole window instead.
3. refine an equispaced trapezoid rule by repeated halving and accept
   the first level within TOL/2 of the one before.  The first log_f call
   holds levels 0 and 1 (level 0 is its even-indexed subset); each later
   halving evaluates only the new midpoints, kept as a running sum scaled
   by the running maximum of the log values.

``evaluations`` counts every node passed to log_f: the scan, each
evaluated window endpoint (the unused ones of a side's last batch
included; an end set by the bound costs none), the trim grid if a side
walked, and the refinement nodes.  Nodes are a small share of the cost:
on a shared 2-core Xeon host an extra node costs about 10 ns (limit law)
to 50 ns (finite-n), while each of a quadrature's 2 to 7 log_f calls
brings 35 to 55 us of fixed numpy and Python work.

For analytic integrands the trapezoid rule converges geometrically in
the step size, so the first level that settles is already at the
rounding level.  ``abs_err`` is that first settled difference plus the
tail term: it measures the coarser of the two levels, so it reads up to
TOL/2 (median 1e-15, at most 5e-10 on the benchmark's tables).  It
leaves out floating-point rounding, so it does not bound the error at
that level: finite-n values differ from mpmath by up to 1.2e-14 (n1 =
6.3e30, n2 = 1e8, sigma = 2; 1.1e-15 with a correctly rounded log Phi).
scipy takes log Phi's tail at x * fl(1/sqrt 2), 6.8e-17 too far out, which
shrinks |log Phi| by x^2 times that at every node (1e-14 at the peak x =
12).  Sizes near n1 = 1e138 have no such oracle: mpmath's erfc overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["QuadResult", "QuadratureError", "concave_log_quad"]

TOL = 1e-10  # absolute tolerance on every integral: levels within TOL/2 settle
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


def _check(value: float) -> None:
    """Raise if a maximum is NaN or +inf; numpy's max propagates a NaN node."""
    if math.isnan(value):
        raise QuadratureError("log integrand returned NaN")
    if value == math.inf:
        raise QuadratureError("log integrand returned +inf")


def concave_log_quad(log_f, lo: float, hi: float) -> QuadResult:
    """Integrate exp(log_f) over the real line for concave log_f, to ``TOL``.

    Parameters
    ----------
    log_f : callable
        Vectorized log-integrand: given n nodes it returns n values.  It
        may return -inf where the integrand underflows, never NaN or
        +inf.  The window stage may call it up to ``BATCH - 1`` steps
        beyond the endpoint it keeps, far out in the tails, and ignores
        floating-point overflow in those calls; a side whose outer nodes
        already fall is ended by their secant without a call.
    lo, hi : float
        Seed window.  It does not need to contain the peak; the
        expansion stage walks outward until the tails are resolved.

    Returns
    -------
    QuadResult
        The first trapezoid level within TOL/2 of the one before, with
        that difference plus the tail term as ``abs_err``.

    Raises
    ------
    ValueError
        If the seed window is not finite and increasing, or log_f returns
        other than one value per node.
    QuadratureError
        If log_f returns NaN or +inf, the window cannot be resolved, or
        refinement does not settle within ``MAX_LEVELS`` levels.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"invalid seed window [{lo}, {hi}]")
    lo, hi = float(lo), float(hi)
    evaluations = 0

    def sample(points):
        """log_f at the float array ``points``, one value per node."""
        nonlocal evaluations
        vals = np.asarray(log_f(points), dtype=float)
        if vals.shape != points.shape:
            raise ValueError(f"log_f returned shape {vals.shape} for {len(points)} nodes, not ({len(points)},)")
        evaluations += len(points)
        return vals

    xs = _nodes(lo, hi, N_SCAN)
    ys = sample(xs)
    ymax = float(ys.max())
    _check(ymax)
    if ymax == -math.inf:
        raise QuadratureError("integrand is zero everywhere in the resolved window")

    # grow each side until its endpoint is deep below the running peak and falls
    # outward there: at the secant bound of its two outermost nodes if they fall
    # outward and the bound lies within the next batch, else by a batch taken in
    # order (see step 1).
    for side in (-1, +1):
        step = (hi - lo) / 4.0
        end = lo if side < 0 else hi
        edge = slice(None, 2) if side < 0 else slice(None, -3, -1)
        near, (outer, inner) = xs[edge].tolist(), ys[edge].tolist()
        expansions = 0
        while not (outer - ymax <= -DROP and (outer < inner or outer == -math.inf)):
            ends = []
            for _ in range(BATCH):
                end += side * step
                step *= 1.5
                ends.append(end)
            if outer < inner:
                rise = max(outer - (ymax - DROP), 0.0) / (inner - outer)
                bound = near[0] + side * abs(near[1] - near[0]) * rise
                if side * (ends[-1] - bound) >= 0.0:
                    end = bound
                    break
            with np.errstate(over="ignore"):
                batch = sample(np.array(ends))
            for end, value in zip(ends, batch.tolist()):
                near, inner, outer = [end, near[0]], outer, value
                _check(outer)
                ymax = max(ymax, outer)
                expansions += 1
                if expansions > MAX_EXPANSIONS:
                    raise QuadratureError("window expansion did not resolve the integrand tail")
                if outer - ymax <= -DROP and (outer < inner or outer == -math.inf):
                    break
        lo, hi = (end, hi) if side < 0 else (lo, end)

    # trim to the region that carries mass (see step 2): on the scan nodes, and
    # to their maximum, while they still span the window (no side has sampled
    # an endpoint), else on a finer grid
    if evaluations > N_SCAN:
        xs = _nodes(lo, hi, 4 * N_SCAN + 1)
        ys = sample(xs)
        ymax = float(ys.max())
        _check(ymax)
    above = (ys - ymax > -DROP).nonzero()[0]
    lo = float(xs[above[0] - 1]) if above[0] > 0 else lo
    hi = float(xs[above[-1] + 1]) if above[-1] < len(xs) - 1 else hi

    # nested trapezoid refinement, accepted at the first settled level; the first
    # call holds levels 0 and 1.  ``scaled`` is the node sum (end nodes halved)
    # over exp(peak), a Python float, but every exp and node sum stays on numpy:
    # math.exp or a plain sum can differ in the last bit.  The tail term takes
    # the end nodes' sum over the last peak.
    with np.errstate(under="ignore"):
        n = N_START
        ys = sample(_nodes(lo, hi, 2 * n - 1))
        mids, ys = ys[1::2], ys[::2]
        peak = float(ys.max())
        _check(peak)
        scale = float(np.exp(peak))
        weights = np.exp(ys - peak)
        scaled = float(weights.sum()) - 0.5 * float(weights[:: n - 1].sum())
        prev, diff = scaled * ((hi - lo) / (n - 1)) * scale, math.inf
        for level in range(1, MAX_LEVELS):
            n = 2 * n - 1
            mids = mids if level == 1 else sample(_nodes(lo, hi, n, odd=True))
            top = float(mids.max())
            _check(top)
            if top > peak:
                scaled *= float(np.exp(peak - top))
                peak, scale = top, float(np.exp(top))
            scaled += float(np.exp(mids - peak).sum())
            total = scaled * ((hi - lo) / (n - 1)) * scale
            diff = abs(total - prev)
            if diff <= 0.5 * TOL:
                edges = float(np.exp(ys[:: N_START - 1] - peak).sum())
                return QuadResult(total, diff + (hi - lo) * edges * scale, evaluations)
            prev = total

    raise QuadratureError(f"trapezoid refinement did not reach tol={TOL:g} (last diff {diff:.3g})")
