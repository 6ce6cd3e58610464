"""Adaptive trapezoid quadrature for log-concave integrands.

Every integral in this package has the form ``int exp(L(x)) dx`` with L
concave (winner-probability integrands are products of Gaussian CDFs and
densities, all log-concave; the limit-law integrands become log-concave
after the substitution y = e^u, which also absorbs the x^{a-1} endpoint
singularity of the multi-group representation into plain exponential
decay).  Concavity makes a simple strategy rigorous:

1. scan a seed window and expand it until the endpoint log values sit
   ``DROP`` below the running maximum (the mass outside is then a
   negligible exponential tail).  If a side's two outermost evaluated
   nodes fall outward on every row, concavity keeps each row below their
   secant past the outer node, so the side ends, unevaluated, where the
   secants meet the running maximum less ``DROP`` (a later rise of the
   maximum only makes that end more conservative).  Otherwise, or when
   that point lies past the next batch, the side evaluates its next
   ``BATCH`` geometric endpoints in one log_f call and stops at the first
   one deep enough; the later ones are never used, and a NaN there is
   ignored.  ``MAX_EXPANSIONS`` counts endpoints, not batches.
2. trim to the region above the cutoff,
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
trim grid and the refinement nodes.

For analytic integrands the trapezoid rule converges geometrically in
the step size, so the first level that settles is already at the
rounding level.  ``abs_err`` is that first settled difference plus the
tail term: it measures the coarser of the two levels, so it reads up to
tol/2 (median 1e-15, at most 5e-10 on the benchmark's tables).  It
leaves out floating-point rounding, so it does not bound the error at
that level: values differ from a 30-digit reference by up to about 3e-15.
"""

from __future__ import annotations

import math
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
    counts every node passed to log_f.  ``note`` carries optional metadata
    flags (e.g. repeated sigma values in a multi-group spec); it never
    affects the numbers.
    """

    value: float
    abs_err: float
    evaluations: int
    note: str | None = None


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
    """Raised when refinement stalls; carries the partial estimate."""

    def __init__(self, message: str, partial: QuadResult | QuadRows | None = None):
        super().__init__(message)
        self.partial = partial


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
        return np.arange(1, n - 1, 2) * step + lo
    xs = np.arange(n) * step + lo
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
    note: str | None = None,
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
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError(f"invalid seed window [{lo}, {hi}]")
    lo, hi = float(lo), float(hi)

    evaluations, single = 0, False

    def sample(points):
        """log_f at the float array ``points`` as a (rows, nodes) array."""
        nonlocal evaluations, single
        vals = np.asarray(log_f(points), dtype=float)
        evaluations += len(points)
        single = vals.ndim == 1
        return vals.reshape(1, -1) if single else vals

    def results(values, errors):
        rows = [QuadResult(float(v), float(e), evaluations, note) for v, e in zip(values, errors)]
        return rows[0] if single else QuadRows(rows)

    xs = _nodes(lo, hi, N_SCAN)
    ys = sample(xs)
    ymax = float(ys.max())
    _check((ymax,))
    if ymax == -math.inf:
        raise QuadratureError("integrand is zero everywhere in the resolved window")

    # grow each side until its endpoint is deep below the running peak: at the
    # secant bound of its two outermost nodes if they fall outward and the bound
    # lies within the next batch, else by a batch taken in order (see step 1).
    for side in (-1, +1):
        step = (hi - lo) / 4.0
        end = lo if side < 0 else hi
        edge = slice(None, 2) if side < 0 else slice(None, -3, -1)
        near, (outer, inner) = xs[edge].tolist(), ys[:, edge].T.tolist()
        end_val = max(outer)
        expansions = 0
        while not (end_val - ymax <= -DROP):
            ends = []
            for _ in range(BATCH):
                end += side * step
                step *= 1.5
                ends.append(end)
            if all(a < b for a, b in zip(outer, inner)):
                rise = max(max(a - (ymax - DROP), 0.0) / (b - a) for a, b in zip(outer, inner))
                bound = near[0] + side * abs(near[1] - near[0]) * rise
                if side * (ends[-1] - bound) >= 0.0:
                    end = bound
                    break
            with np.errstate(over="ignore"):
                batch = sample(np.array(ends))
            for end, end_val in zip(ends, batch.max(axis=0).tolist()):
                _check((end_val,))
                ymax = max(ymax, end_val)
                expansions += 1
                if expansions > MAX_EXPANSIONS:
                    raise QuadratureError("window expansion did not resolve the integrand tail")
                if end_val - ymax <= -DROP:
                    break
            near, (outer, inner) = ends[:-3:-1], batch[:, :-3:-1].T.tolist()
        lo, hi = (end, hi) if side < 0 else (lo, end)

    # trim to the region that actually carries mass
    xs = _nodes(lo, hi, 4 * N_SCAN + 1)
    envelope = sample(xs).max(axis=0)
    ymax = float(envelope.max())
    _check((ymax,))
    above = np.nonzero(envelope - ymax > -DROP)[0]
    lo = float(xs[max(above[0] - 1, 0)])
    hi = float(xs[min(above[-1] + 1, len(xs) - 1)])

    # nested trapezoid refinement, accepted at the first settled level; the first
    # call holds levels 0 and 1.  ``scaled`` is each row's node sum (end nodes
    # halved) divided by exp(m).
    with np.errstate(under="ignore"):
        n = N_START
        ys = sample(_nodes(lo, hi, 2 * n - 1))
        mids, ys = ys[:, 1::2], ys[:, ::2]
        m = ys.max(axis=1)
        _check(m.tolist())
        ends = ys[:, :: n - 1]
        weights = np.exp(ys - m[:, None])
        scaled = weights.sum(axis=1) - 0.5 * (weights[:, 0] + weights[:, -1])
        prev = None
        diffs = np.full(len(m), np.inf)
        for level in range(MAX_LEVELS):
            if level:
                n = 2 * n - 1
                mids = mids if level == 1 else sample(_nodes(lo, hi, n, odd=True))
                top = mids.max(axis=1)
                _check(top.tolist())
                m_new = np.maximum(m, top)
                scaled = scaled * np.exp(m - m_new) + np.exp(mids - m_new[:, None]).sum(axis=1)
                m = m_new
            total = scaled * ((hi - lo) / (n - 1)) * np.exp(m)
            if prev is not None:
                diffs = np.abs(total - prev)
                if diffs.max() <= 0.5 * tol:
                    tail = (hi - lo) * np.exp(ends - m[:, None]).sum(axis=1) * np.exp(m)
                    return results(total, diffs + tail)
            prev = total

    message = f"trapezoid refinement did not reach tol={tol:g} (last diff {float(diffs.max()):.3g})"
    raise QuadratureError(message, partial=results(prev, diffs))
