"""Reproducible Monte Carlo for the winner problem.

Determinism contract: every estimator maps trial t to a fixed range of
positions in a counter-based Philox stream keyed by (seed, stream_id).
Trial t with d draws per trial owns positions [t*d, (t+1)*d).  Chunked
and multi-threaded execution merely partition the trial range, position
each chunk's generator at its own draw offset, and sum integer win
counts, so the estimates are bit-identical to serial execution for any
chunk size, worker count, or scheduling order.  The chunk layout follows
from the trial and group counts alone; workers only run the chunks.  A
convergence study sets up all of its rows before any trial: one edge
transform for every cell table, and the exact quadratures in row order.
The chunks of all its rows then share one pool, and each row sums only
its own counts, bit for bit as serially.

Only the comparisons are counted: an estimator needs to know which
group's maximum is largest in a trial, not the maxima themselves.  Every
sampler is a nondecreasing map of its uniform, and an estimator states
each group's accuracy with its samplers.  Each job's caller then tables,
once, the samplers at the edges of ``_CELLS`` equal cells of (0, 1),
widened by that accuracy (see :func:`_cell_bounds`; :func:`_max_jobs`
does it for the Gaussian samplers of every row of a study in one call)
and kept as integer thresholds, and a chunk reads each draw's cell from
the top bits of its raw Philox word.  A trial in which one group's lower
bound exceeds every rival's upper bound is won by that group, whatever
the exact draws; only the remaining trials (0.4% on the default
``simulate`` grid) are drawn exactly and counted by :func:`_winner_counts`.
Since the bounds hold for the computed draws, the counts are those of
drawing every trial exactly, bit for bit.  The bootstrap states no
accuracy, so every trial is drawn.

Group maxima are sampled directly through the uniform quantile
transform M = sigma * Phi^{-1}(u^{1/n}) (one uniform per group per
trial), which is exact in distribution for any real n >= 1 and is the
only practical route once n reaches 1e16.
"""

from __future__ import annotations

import functools
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .limits import finite_n_winner, two_group_limit
from .normal import LOG_HALF, std_normal_quantile, upper_tail_quantile
from .scaling import GroupSpec, critical_n1, kappa

__all__ = [
    "RngStream",
    "McEstimate",
    "StudyRow",
    "sample_group_max",
    "sample_gumbel",
    "mc_two_group",
    "mc_multi",
    "mc_limit_pair",
    "convergence_study",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_CHUNK_DRAWS = 1 << 17  # draws per chunk: 1 MB of raw words keeps memory modest
_TINY_U = 0.5**53  # replacement for the measure-zero u == 0 draw
_TINY = np.finfo(float).tiny  # smallest normal double
_CELLS = 1 << 9  # cells of (0, 1) in the bounds tables; a power of two, so u * _CELLS is exact
_REL, _ABS = 1e-9, 1e-12  # stated accuracy of the samplers, relative and absolute


def _mix64(z: int) -> int:
    """SplitMix64 finalizer; bijective on 64-bit words."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class RngStream:
    """Identifier of one reproducible random stream.

    (seed, stream_id) is the Philox key: the pair fully determines the
    sequence, and distinct pairs give statistically independent streams.
    """

    seed: int
    stream_id: int = 0

    def generator(self, draw_offset: int = 0) -> np.random.Generator:
        """Generator whose next draw is word ``draw_offset`` (any offset >= 0) of this stream.

        Philox advances its counter once per 4 output words, so the counter
        is set to the block holding the offset and the words before it in
        that block are drawn and dropped.
        """
        key = np.array([self.seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64)
        counter = np.array([draw_offset // 4, 0, 0, 0], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key, counter=counter))
        gen.bit_generator.random_raw(draw_offset % 4)
        return gen

    def substream(self, index: int) -> "RngStream":
        """Derived independent stream; hashing keeps distinct indexes disjoint."""
        if index < 0:
            raise ValueError("substream index must be >= 0")
        derived = _mix64((self.stream_id + (index + 1) * _GOLDEN) & _MASK64)
        return RngStream(seed=self.seed, stream_id=derived)


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo probability estimate with binomial standard error."""

    p_hat: float
    trials: int
    std_err: float

    @classmethod
    def from_counts(cls, successes: int, trials: int) -> "McEstimate":
        p = successes / trials
        return cls(
            p_hat=p,
            trials=trials,
            std_err=math.sqrt(p * (1.0 - p) / trials),
        )


@dataclass(frozen=True)
class StudyRow:
    """One grid point of a convergence study (simulated or bootstrap); the fields are the CSV columns in order."""

    n2: float
    n1: float
    sigma: float
    c: float
    p_hat: float
    std_err: float
    p_limit: float
    p_exact: float | None


def _words(stream: RngStream, start_trial: int, n_trials: int, per_trial: int) -> np.ndarray:
    """Raw 64-bit Philox words of trials [start_trial, start_trial + n_trials), one row per trial."""
    w = stream.generator(start_trial * per_trial).bit_generator.random_raw(n_trials * per_trial)
    return w.reshape(n_trials, per_trial)


def _unit(w: np.ndarray) -> np.ndarray:
    """``Generator.random`` of raw words, bit for bit, with 0 (the only value below ``_TINY_U``) raised to it."""
    return np.maximum((w >> np.uint64(11)) * 0.5**53, _TINY_U)


def _uniforms(stream: RngStream, start_trial: int, n_trials: int, per_trial: int) -> np.ndarray:
    """Uniform draws for trials [start_trial, start_trial + n_trials), one row per trial."""
    return _unit(_words(stream, start_trial, n_trials, per_trial))


def _cell_bounds(draw, rel, err):
    """Bounds ``(lo, hi)`` on ``draw(u)`` for u in each cell, ``floor(u * _CELLS)``, of (0, 1).

    ``draw`` approximates a nondecreasing map x with its stated accuracy
    |draw(u) - x(u)| <= rel |x(u)| + err.  Take u in cell i and its
    edge e = i / _CELLS, with table value v = draw(e).  The map
    y -> y - rel |y| - err is increasing, and x(u) >= x(e), so
    draw(u) >= x(e) - rel |x(e)| - err >= v - 2 (rel |x(e)| + err), and
    |x(e)| <= (|v| + err) / (1 - rel).  The slack
    2 (rel |v| + err) / (1 - 2 rel) covers that with room for its own
    rounding, and one step outward with ``nextafter`` covers the rounding
    of v - slack.  The upper bound is the same argument at the edge
    (i + 1) / _CELLS.  The first cell has no lower bound and the last no
    upper bound, and an edge whose value is NaN or infinite bounds neither
    cell beside it.  ``draw`` may return one row of edge values per sampler,
    with ``err`` a column of their accuracies; the tables then have those rows.
    """
    with np.errstate(over="ignore"):  # a draw or bound past the largest double is infinite, and still a bound
        edge = draw(np.arange(1, _CELLS) / _CELLS)
        finite = np.isfinite(edge)
        edge = np.where(finite, edge, 0.0)
        slack = 2.0 * (rel * np.abs(edge) + err) / (1.0 - 2.0 * rel)
        lo, hi = (np.full(edge.shape[:-1] + (_CELLS,), bound) for bound in (-np.inf, np.inf))
        np.nextafter(edge - slack, -np.inf, out=lo[..., 1:], where=finite)
        np.nextafter(edge + slack, np.inf, out=hi[..., :-1], where=finite)
    return lo, hi


def _thresholds(bounds):
    """Integer thresholds of a job's :func:`_cell_bounds` tables: ``c_i < t[j][i][c]`` iff ``hi_i[c_i] < lo_j[c]``.

    Each ``hi`` is first made its running maximum from the left, which only
    widens it and sorts it for ``searchsorted``; each ``lo`` is used as it is.
    A group never races itself, so ``t[j][j]`` is None.
    """
    hi = [np.maximum.accumulate(b[1]) for b in bounds]
    return [[None if i == j else np.searchsorted(h, b[0]).astype(np.uint16) for i, h in enumerate(hi)]
            for j, b in enumerate(bounds)]


def _won(cell, tables):
    """For each group j, the trials it wins on ``cell`` (one row per group) alone, by :func:`_thresholds`."""
    return [functools.reduce(np.logical_and, [cell[i] < t[i].take(c) for i in range(len(t)) if i != j])
            for j, (c, t) in enumerate(zip(cell, tables))]


def _chunk_counts(stream, samplers, tables, start_trial, n_trials):
    """Per-group win counts of one chunk of consecutive trials; ``samplers[j]`` maps uniform column j.

    ``tables`` holds the job's :func:`_thresholds`, or is None.  A draw's cell
    is the top 9 bits of its raw word w, ``w >> 55 == floor(u * _CELLS)`` for
    its uniform u.  A trial that :func:`_won` gives to group j is a win for j,
    with no tie possible; each group's wins are counted on its own row, and
    only the other trials are turned into uniforms, drawn and counted by
    :func:`_winner_counts`.  With no tables, all are.
    """
    w = _words(stream, start_trial, n_trials, len(samplers))
    decided = np.zeros(len(samplers), dtype=np.int64)
    if tables is not None:
        # one row of cells per group, shifted straight into uint16: no uint64 copy of the words
        cell = np.right_shift(w.T, np.uint64(55), out=np.empty(w.T.shape, np.uint16), casting="unsafe")
        won = _won(cell, tables)
        decided = np.array([np.count_nonzero(row) for row in won])
        w = np.compress(~functools.reduce(np.logical_or, won), w, axis=0)
    u = _unit(w)
    with np.errstate(over="ignore"):  # a maximum past the largest double is +-inf, and still ranks
        return decided + _winner_counts([draw(u[:, j]) for j, draw in enumerate(samplers)])


def _run_rows(jobs, *, workers=1):
    """Per-group win counts of several estimator rows, run on one set of threads.

    A job is ``(stream, trials, samplers, tables)``: ``samplers`` holds
    one callable per group that maps a column of uniforms to that group's
    maxima, and ``tables`` the job's :func:`_thresholds`, built once by its
    caller, or None; they are passed to every chunk.  Its trials are cut
    into the fewest chunks of at most ``_CHUNK_DRAWS`` draws, equal in size
    up to one trial; the layout depends on the trials and the group count
    only, never on ``workers``.  The job's counts are the sum of its
    chunks' :func:`_chunk_counts`.

    With one worker, or one chunk in all, the chunks run inline in order.
    Otherwise every chunk of every job goes through one
    ``ThreadPoolExecutor.map`` on ``min(workers, chunks)`` threads, so a
    row's last chunk overlaps the next row's first.  ``map`` reads results
    in chunk order: the first failing chunk raises, as it would serially,
    and the chunks not yet started are cancelled.  Returns one count array
    per job, in job order.
    """
    chunks, ends = [], []
    for stream, trials, samplers, tables in jobs:
        if isinstance(trials, bool) or not isinstance(trials, numbers.Integral) or trials < 1:
            raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
        k = -(-trials // max(1, _CHUNK_DRAWS // len(samplers)))
        cuts = [j * trials // k for j in range(k + 1)]
        chunks += [(stream, samplers, tables, t0, t1 - t0) for t0, t1 in zip(cuts, cuts[1:])]
        ends.append(len(chunks))
    if workers <= 1 or len(chunks) == 1:
        values = list(map(_chunk_counts, *zip(*chunks)))
    else:
        with ThreadPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
            values = list(pool.map(_chunk_counts, *zip(*chunks)))
    return [np.sum(values[a:b], axis=0) for a, b in zip([0] + ends, ends)]


def sample_group_max(n, sigma, u):
    """Maximum of n iid N(0, sigma^2) variables from one uniform draw.

    Computes M = sigma * Phi^{-1}(u^{1/n}) so that P(M <= x) equals
    Phi(x/sigma)^n exactly, for any real n >= 1.  The upper-tail
    probability 1 - u^{1/n} is formed in log space via expm1, so the
    transform survives n ~ 1e16 where the direct difference underflows.
    Past n ~ 5e291, where log(u) / n is subnormal or zero, the probability
    equals -log(u) / n to double precision, and its log is taken as
    log(-log u) - log n.  ``n`` and ``sigma`` may be arrays that broadcast
    against ``u``, such as columns of one (n, sigma) per row, and each
    element then gets the value, and a bad one the error, of a call with
    that element alone.

    Accuracy: the result lies within 1e-9 |M| + 1e-12 sigma of the exact
    transform (``_REL`` and ``_ABS``; :func:`_cell_bounds` builds the
    Monte Carlo bounds on this).  The tail kernel's contract is a
    relative error of 1e-10, and ``ndtri`` on the central branch is good
    to a few rounding units.  The steps before them move log q, or p, by
    a few rounding units, and the quantile moves by at most 1.26 times
    that on either branch.  Largest error measured against 40-digit
    mpmath, at n from 1 to 1e300 and u at the 511 cell edges, 2^-53,
    1 - 2^-53 and 50 random points: 5.4e-14 (|M| + 1e-3 sigma).
    """
    u_arr = _open_unit(u)
    n_ok = np.isfinite(n) & (n >= 1.0)
    if not n_ok.all():
        raise ValueError(f"n must be a finite real >= 1, got {np.extract(~n_ok, n)[0]}")
    sigma_ok = np.isfinite(sigma) & (sigma > 0.0)
    if not sigma_ok.all():
        raise ValueError(f"sigma must be a finite real > 0, got {np.extract(~sigma_ok, sigma)[0]}")
    log_p = np.log(u_arr) / n
    with np.errstate(divide="ignore"):  # log(0) where log_p underflowed to zero; replaced below
        log_q = np.log(-np.expm1(log_p))
    if np.any(log_p > -_TINY):
        log_n = np.reshape([math.log(v) for v in np.ravel(n)], np.shape(n))  # math.log's bits, element by element
        log_q = np.where(log_p > -_TINY, np.log(-np.log(u_arr)) - log_n, log_q)
    # one tail pass over the whole column is cheaper than a masked gather
    x = np.asarray(upper_tail_quantile(np.minimum(log_q, LOG_HALF)))
    central = log_q > LOG_HALF
    if np.any(central):
        x[central] = std_normal_quantile(np.exp(log_p[central]))
    return sigma * x


def _open_unit(u):
    """``u`` as a float array, checked to lie strictly inside (0, 1); NaN fails the check."""
    u_arr = np.asarray(u, dtype=float)
    if not np.all((u_arr > 0.0) & (u_arr < 1.0)):
        raise ValueError("u must lie strictly inside (0, 1)")
    return u_arr


def sample_gumbel(u):
    """Gumbel draw -log(-log u); exact inverse of the Gumbel CDF.

    Two logarithms, so the result lies within 1e-9 |G| + 1e-12 of the
    exact value (measured: 3.6e-14 (|G| + 1e-3) against 40-digit mpmath).
    """
    u_arr = _open_unit(u)
    return -np.log(-np.log(u_arr))


def mc_two_group(
    g1: GroupSpec,
    g2: GroupSpec,
    trials: int,
    rng: RngStream,
    *,
    workers: int = 1,
) -> McEstimate:
    """Winner frequency of group 1 over independent paired max draws.

    This is :func:`mc_multi` at K=2: trial t consumes stream positions
    2t (group 1) and 2t+1 (group 2), and group 1 wins only when its
    maximum is strictly larger, so an exact tie (a probability-zero event)
    counts as a loss.
    """
    return mc_multi([g1, g2], trials, rng, workers=workers)[0]


def _winner_counts(maxima) -> list[int]:
    """Trials won by each group, given one array of per-trial maxima per group.

    This is the package's one tie rule: a tie goes to the later group, so a
    group wins a trial when its maximum is strictly larger than every later
    group's and no smaller than any earlier group's.  At K=2 group 1 wins
    exactly when its maximum exceeds group 2's, the paper's event.  The first
    group takes every trial left over, so the counts partition the trials.
    """
    top = functools.reduce(np.maximum, maxima)
    taken = maxima[-1] == top
    counts = [int(np.count_nonzero(taken))]
    for m in maxima[-2:0:-1]:
        won = (m == top) & ~taken
        counts.append(int(np.count_nonzero(won)))
        taken |= won
    counts.append(top.size - sum(counts))
    return counts[::-1]


def _max_samplers(groups):
    """One :func:`sample_group_max` sampler per group, and the stated accuracy of each."""
    samplers = [functools.partial(sample_group_max, g.size, g.sigma) for g in groups]
    return samplers, [(_REL, _ABS * g.sigma) for g in groups]


def _max_jobs(rows):
    """The samplers and :func:`_thresholds` of a :func:`_run_rows` job for each row of groups.

    Every table comes from one edge transform: one :func:`sample_group_max`
    call takes a column of sizes and one of sigmas for all (row, group)
    pairs, and one :func:`_cell_bounds` call widens the edges by each
    sampler's stated accuracy, so each table equals its own call's bit for bit.
    """
    groups = [g for row in rows for g in row]
    n = np.array([[g.size] for g in groups], dtype=float)
    sigma = np.array([[g.sigma] for g in groups], dtype=float)
    jobs = [_max_samplers(row) for row in rows]
    err = np.array([[e] for _, accuracy in jobs for _, e in accuracy])  # every rel is _REL
    lo, hi = _cell_bounds(functools.partial(sample_group_max, n, sigma), _REL, err)
    bounds = iter(zip(lo, hi))
    return [(samplers, _thresholds([next(bounds) for _ in samplers])) for samplers, _ in jobs]


def mc_multi(
    groups: Sequence[GroupSpec],
    trials: int,
    rng: RngStream,
    *,
    workers: int = 1,
) -> list[McEstimate]:
    """Per-group winning frequencies; exactly one winner per trial.

    Trial t consumes stream positions [tK, (t+1)K), one per group in
    order.  Ties (a probability-zero event for continuous draws) go to the
    later group, as :func:`_winner_counts` counts them, so the success
    counts always partition the trial count exactly.
    """
    groups = list(groups)
    if len(groups) < 2:
        raise ValueError("need at least 2 groups")
    counts = _run_rows([(rng, trials, *_max_jobs([groups])[0])], workers=workers)[0]
    return [McEstimate.from_counts(int(c), trials) for c in counts]


def mc_limit_pair(
    c: float,
    sigma: float,
    trials: int,
    rng: RngStream,
    *,
    workers: int = 1,
) -> McEstimate:
    """Simulate the limit law directly: P(L1 > sigma^2 (L2 - kappa(C, sigma))).

    Independent Gumbel pairs via inversion; this is the model-free
    cross-check for :func:`gausswinner.limits.two_group_limit`.
    """
    k = kappa(c, sigma)
    if not math.isfinite(k):
        raise ValueError(f"kappa(c={c}, sigma={sigma}) is not finite")
    s2 = sigma * sigma
    # s2 (G - k) is off by at most s2 (_REL |G| + _ABS), and |G| <= |x| / s2 + |k|;
    # the doubled relative share covers the rounding of the shift and the scaling
    samplers = [sample_gumbel, lambda u: s2 * (sample_gumbel(u) - k)]
    accuracy = [(_REL, _ABS), (2.0 * _REL, s2 * (_REL * abs(k) + _ABS))]
    tables = _thresholds([_cell_bounds(draw, *a) for draw, a in zip(samplers, accuracy)])
    wins = _run_rows([(rng, trials, samplers, tables)], workers=workers)[0]
    return McEstimate.from_counts(int(wins[0]), trials)


def _critical_grid(sigma, c_values, n2_grid, trials, rng, jobs, p_exact=None, *, workers=1):
    """Rows along the critical law at one sigma, in (C outer, n2 inner) order.

    At each (C, n2), n1 is the critical size: the int floor when it is
    exactly representable, the real value otherwise.  Row i counts its
    p_hat over ``trials`` trials of stream ``rng.substream(i)``, two draws
    per trial, as group-1 wins of the samplers and tables that
    ``jobs(sizes)`` returns for it, as a :func:`_run_rows` job holds them,
    given every row's (n1, n2); p_limit is the two-group limit and, when
    ``p_exact`` is given, p_exact is ``p_exact(n1, n2)``.  Every row is set
    up before any trial runs: its limit, critical size and p_exact in row
    order, then the jobs of all rows in one pass.  The chunks of all rows
    then share one :func:`_run_rows` call, so the rows match a row-by-row
    serial run bit for bit at any worker count.
    """
    if not c_values or not n2_grid:
        raise ValueError("c_values and n2_grid must be nonempty")
    points = []
    for c in c_values:
        p_limit = two_group_limit(c, sigma).value
        for n2 in n2_grid:
            size = critical_n1(n2, sigma, c)
            if math.isinf(size.real_value):
                raise ValueError(f"critical size C*f(n2) overflows a float at sigma={sigma}, c={c}, n2={n2:g}")
            n1 = size.real_value if size.floor_value is None else size.floor_value
            points.append((c, p_limit, n1, n2))
    exact = [None if p_exact is None else p_exact(n1, n2) for _, _, n1, n2 in points]
    setups = [(rng.substream(i), trials, *job) for i, job in enumerate(jobs([(n1, n2) for _, _, n1, n2 in points]))]
    rows = []
    for (c, p_limit, n1, n2), p, counts in zip(points, exact, _run_rows(setups, workers=workers)):
        est = McEstimate.from_counts(int(counts[0]), trials)
        rows.append(StudyRow(float(n2), float(n1), float(sigma), float(c), est.p_hat, est.std_err, p_limit, p))
    return rows


def convergence_study(
    sigma: float,
    c_values: Sequence[float],
    n2_grid: Sequence[float],
    trials: int,
    rng: RngStream,
    *,
    exact: bool = False,
    workers: int = 1,
) -> list[StudyRow]:
    """Simulated winning probabilities along the critical law vs their limits.

    Rows of :func:`_critical_grid` with p_hat counted as :func:`mc_two_group`
    counts it and, when ``exact`` is set, the finite-n quadrature as p_exact.
    """

    def finite_n(n1, n2):
        return finite_n_winner(GroupSpec(n1, 1.0), GroupSpec(n2, sigma)).value

    def jobs(sizes):
        return _max_jobs([[GroupSpec(n1, 1.0), GroupSpec(n2, sigma)] for n1, n2 in sizes])

    p_exact = finite_n if exact else None
    return _critical_grid(sigma, list(c_values), list(n2_grid), trials, rng, jobs, p_exact, workers=workers)
