"""Reproducible Monte Carlo: stream contract, transforms, estimators."""

import functools
import math
import re
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import Executor, Future
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import log_ndtr

import gausswinner.montecarlo as mc
from gausswinner.limits import finite_n_winner, two_group_limit
from gausswinner.montecarlo import (
    RngStream,
    convergence_study,
    mc_limit_pair,
    mc_multi,
    mc_two_group,
    sample_group_max,
    sample_gumbel,
)
from gausswinner.pipeline import InnovationPool, bootstrap_winner, empirical_study
from gausswinner.quadrature import QuadratureError
from gausswinner.scaling import GroupSpec

import oracles
from oracles import mc_argmax_identity


def _done(value):
    """A finished future holding ``value``, as a fake pool that runs tasks at submit returns."""
    future = Future()
    future.set_result(value)
    return future


class RecordingPool(Executor):
    """Runs each task at submit and records it, starting no thread; ``map`` is ``Executor``'s."""

    made = []

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.tasks = []
        RecordingPool.made.append(self)

    def submit(self, fn, *args):
        self.tasks.append((fn, args))
        return _done(fn(*args))


@pytest.fixture
def recording_pool(monkeypatch):
    """Put :class:`RecordingPool` in place of the thread pool; returns the pools made."""
    monkeypatch.setattr(RecordingPool, "made", [])
    monkeypatch.setattr(mc, "ThreadPoolExecutor", RecordingPool)
    return RecordingPool.made


class TestRngStream:
    def test_counter_positioning(self):
        s = RngStream(seed=12345, stream_id=9)
        ref = s.generator(0).random(64)
        for off in (4, 8, 40):
            got = s.generator(off).random(8)
            assert np.array_equal(got, ref[off : off + 8])

    def test_any_offset_starts_at_that_word(self):
        s = RngStream(seed=1, stream_id=4)
        raw, uniform = s.generator(0).bit_generator.random_raw(20), s.generator(0).random(16)
        for k in range(12):
            assert np.array_equal(s.generator(k).bit_generator.random_raw(8), raw[k : k + 8])
            assert np.array_equal(s.generator(k).random(4), uniform[k : k + 4])

    def test_uniform_batching_invariance(self):
        s = RngStream(seed=5, stream_id=2)
        whole = mc._uniforms(s, 0, 100, 3)
        parts = np.vstack([mc._uniforms(s, 0, 37, 3), mc._uniforms(s, 37, 63, 3)])
        assert np.array_equal(whole, parts)

    @pytest.mark.parametrize("per_trial", [1, 2, 3, 4, 5])
    def test_unit_words_are_generator_random_bit_for_bit(self, per_trial):
        s = RngStream(seed=8, stream_id=3)
        for start in (0, 1, 3, 5, 7):  # start * per_trial % 4 != 0 makes _words skip words
            ref = s.generator(0).random((start + 60) * per_trial)[start * per_trial:]
            u = mc._unit(mc._words(s, start, 60, per_trial))
            assert u.shape == (60, per_trial)
            assert np.array_equal(u.ravel().view(np.uint64), ref.view(np.uint64))

    def test_crafted_words(self):
        w = np.array([0, 2047, 2048, 2**64 - 1], dtype=np.uint64)
        u = mc._unit(w)
        assert u.tolist() == [0.5**53, 0.5**53, 0.5**53, 1.0 - 0.5**53]  # 0 and 2047 both map to 0, then _TINY_U
        assert int(w[-1] >> np.uint64(55)) == int(u[-1] * mc._CELLS) == mc._CELLS - 1

    def test_cell_is_top_bits_of_word(self):
        w = mc._words(RngStream(seed=9), 3, 20_000, 2)
        assert np.array_equal(w >> np.uint64(55), (mc._unit(w) * mc._CELLS).astype(np.uint64))

    def test_substreams_distinct_and_deterministic(self):
        s = RngStream(seed=7)
        ids = {s.substream(k).stream_id for k in range(100)}
        assert len(ids) == 100
        assert s.substream(3) == s.substream(3)
        assert s.substream(3).seed == 7
        with pytest.raises(ValueError, match="^substream index must be >= 0$"):
            s.substream(-1)

    def test_distinct_seeds_differ(self):
        a = RngStream(seed=1).generator(0).random(8)
        b = RngStream(seed=2).generator(0).random(8)
        assert not np.array_equal(a, b)


class TestSampleGroupMax:
    def test_single_draw_median(self):
        assert sample_group_max(1.0, 1.0, 0.5) == 0.0
        assert sample_group_max(1.0, 3.0, 0.5) == 0.0

    def test_single_draw_quantile(self):
        assert sample_group_max(1.0, 2.0, 0.975) == pytest.approx(
            2.0 * 1.959963984540054, rel=1e-12
        )

    def test_huge_n_frozen_oracle(self):
        # bisected Mills-oracle root of n log Phi(x) = log u at n = 1e16
        got = sample_group_max(1e16, 1.0, math.exp(-1.0))
        assert got == pytest.approx(8.222082216130435, rel=1e-9)

    def test_cdf_round_trip_identity(self):
        for n in (1.0, 10.0, 1e4, 1e16):
            for u in (0.1, math.exp(-1.0), 0.9):
                m = sample_group_max(n, 1.7, u)
                back = n * log_ndtr(m / 1.7)
                assert back == pytest.approx(math.log(u), rel=1e-8), f"n={n}, u={u}"

    @pytest.mark.parametrize("n", [5e291, 1e300, 1e308])
    def test_tail_identity_where_log_u_over_n_underflows(self, n):
        # log Phi-bar(M) = log(-log u) - log n once Phi-bar(M) is far below
        # double epsilon; log(u) / n is subnormal or zero for the u near 1
        u = np.array([1.0 - 2.0**-53, 1.0 - 2.0**-40, 0.5, 1e-300])
        m = sample_group_max(n, 2.0, u)
        assert np.all(np.isfinite(m))
        expected = np.log(-np.log(u)) - math.log(n)
        assert np.max(np.abs(log_ndtr(-m / 2.0) - expected) / np.abs(expected)) <= 1e-12
        assert sample_group_max(n, 2.0, float(u[0])) == m[0]

    def test_monotone_in_n_for_fixed_u(self):
        u = np.linspace(0.01, 0.99, 25)
        prev = sample_group_max(1.0, 1.0, u)
        for n in (2.0, 10.0, 1e4, 1e12):
            cur = sample_group_max(n, 1.0, u)
            assert np.all(cur >= prev)
            prev = cur

    def test_distribution_ks(self):
        g = RngStream(seed=11).generator(0)
        u = g.random(100_000)
        u[u == 0.0] = 0.5**53
        for n in (1.0, 10.0, 1e4, 1e12):
            draws = sample_group_max(n, 1.0, u)
            cdf = lambda x: np.exp(n * log_ndtr(x))
            d = oracles.ks_statistic(draws, cdf)
            assert d < oracles.ks_critical_1pct(len(draws)), f"n={n}: KS={d:.5f}"

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sample_group_max(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            sample_group_max(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            sample_group_max(0.5, 1.0, 0.3)
        with pytest.raises(ValueError, match=r"^sigma must be a finite real > 0, got 0\.0$"):
            sample_group_max(1.0, 0.0, 0.3)

    @pytest.mark.parametrize("n, sigma", [(0.5, 1.0), (math.nan, 1.0), (math.inf, 2.0), (3.0, 0.0), (2.0, -1.5), (2.0, math.inf)])
    def test_bad_element_fails_as_its_own_call(self, n, sigma):
        u = np.array([0.2, 0.7])
        with pytest.raises(ValueError) as own:
            sample_group_max(n, sigma, u)
        with pytest.raises(ValueError) as batch:
            sample_group_max(np.array([[10.0], [n], [1e300]]), np.array([[1.0], [sigma], [2.0]]), u)
        assert str(batch.value) == str(own.value)

    def test_empty_input_gives_empty_array(self):
        for n in (1.0, 10.0, 1e300):
            out = sample_group_max(n, 2.0, np.array([]))
            assert isinstance(out, np.ndarray) and out.shape == (0,)

    def test_nan_u_rejected(self):
        for u in (math.nan, np.array([0.3, math.nan, 0.7])):
            with pytest.raises(ValueError, match=r"u must lie strictly inside \(0, 1\)"):
                sample_group_max(10.0, 1.0, u)


class TestSampleGumbel:
    def test_frozen_points(self):
        assert sample_gumbel(math.exp(-1.0)) == pytest.approx(0.0, abs=1e-15)
        assert sample_gumbel(0.5) == pytest.approx(0.36651292058166435, rel=1e-14)

    def test_distribution_ks(self):
        g = RngStream(seed=13).generator(0)
        u = g.random(100_000)
        u[u == 0.0] = 0.5**53
        draws = sample_gumbel(u)
        d = oracles.ks_statistic(draws, lambda x: np.exp(-np.exp(-x)))
        assert d < oracles.ks_critical_1pct(len(draws))

    def test_domain(self):
        with pytest.raises(ValueError):
            sample_gumbel(1.0)
        for u in (math.nan, np.array([0.3, math.nan])):
            with pytest.raises(ValueError, match=r"u must lie strictly inside \(0, 1\)"):
                sample_gumbel(u)
        assert sample_gumbel(np.array([])).shape == (0,)


def _near_edges():
    """Every interior cell edge, one ``nextafter`` step either side of it, and the extreme uniforms."""
    edges = np.arange(1, mc._CELLS) / mc._CELLS
    return np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0), [0.5**53, 1.0 - 0.5**53]])


def _bound_examples(test):
    """Pin the listed sizes (small n takes the central branch, huge n the log(-log u) branch) at four sigmas."""
    for n in (1.0, 1.5, 54.0, 1e6, 1e23, 1e300):
        for sigma in (1e-3, 1.0, 3.0, 1e4):
            test = example(n=n, sigma=sigma, u=[0.5, 0.1, 0.9])(test)
    return test


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@_bound_examples
@given(
    n=st.floats(0.0, 300.0).map(lambda e: 10.0**e),
    sigma=st.floats(-4.0, 4.0).map(lambda e: 10.0**e),
    u=st.lists(st.floats(0.5**53, 1.0 - 0.5**53), min_size=1, max_size=20),
)
def test_cell_bounds_hold_for_every_draw(n, sigma, u):
    draw = functools.partial(mc.sample_group_max, n, sigma)
    lo, hi = mc._cell_bounds(draw, mc._REL, mc._ABS * sigma)
    u = np.concatenate([_near_edges(), u])
    cell = (u * mc._CELLS).astype(np.intp)
    x = draw(u)
    assert np.all(lo[cell] <= x) and np.all(x <= hi[cell])
    assert np.all(lo[1:] > -np.inf) and np.all(hi[:-1] < np.inf)


def _float_won(cell, bounds):
    """Trials each group wins on float bounds: its lower bound above every rival's upper bound."""
    lo = [b[0][c] for b, c in zip(bounds, cell)]
    hi = [b[1][c] for b, c in zip(bounds, cell)]
    return np.array([lo[j] > functools.reduce(np.maximum, hi[:j] + hi[j + 1:]) for j in range(len(bounds))])


_BOUND = st.one_of(st.sampled_from([-np.inf, np.inf, 0.0, 1.0]), st.floats(-3.0, 3.0))


@st.composite
def _bound_tables(draw):
    """Float bounds tables of 2 or 3 groups over a few cells, and the cells of some trials (one row per group)."""
    k, cells = draw(st.sampled_from([2, 3])), draw(st.integers(1, 6))
    table = st.lists(_BOUND, min_size=cells, max_size=cells).map(np.array)
    bounds = [(draw(table), draw(table)) for _ in range(k)]
    trials = draw(st.lists(st.lists(st.integers(0, cells - 1), min_size=k, max_size=k), min_size=1, max_size=40))
    return bounds, np.array(trials, dtype=np.uint16).T


def _every_cell_pair(bounds):
    """Every combination of cells, one row per group."""
    grid = np.meshgrid(*[np.arange(len(b[0])) for b in bounds], indexing="ij")
    return np.array([g.ravel() for g in grid], dtype=np.uint16)


_TIES = [(np.array([-np.inf, 1.0, 2.0]), np.array([1.0, 2.0, np.inf]))] * 2  # lo of one group equals hi of the other
_SHUFFLED = [
    (np.array([-np.inf, 2.0, 1.0, -np.inf]), np.array([3.0, np.inf, 1.0, 2.0])),
    (np.array([0.0, -np.inf, 2.0, 2.0]), np.array([2.0, 0.0, np.inf, np.inf])),
    (np.array([1.0, 1.0, np.inf, 3.0]), np.array([-np.inf, 1.0, 1.0, np.inf])),
]


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@example(case=(_TIES, _every_cell_pair(_TIES)))
@example(case=(_SHUFFLED, _every_cell_pair(_SHUFFLED)))
@example(case=(_SHUFFLED[:2], _every_cell_pair(_SHUFFLED[:2])))
@given(case=_bound_tables())
def test_thresholds_decide_what_float_bounds_decide(case):
    bounds, cell = case
    ints = np.array(mc._won(cell, mc._thresholds(bounds)))
    assert ints.shape == (len(bounds), cell.shape[1])
    assert not np.any(ints & ~_float_won(cell, bounds))  # on any tables, a subset
    monotone = [(np.sort(lo), np.sort(hi)) for lo, hi in bounds]
    assert np.array_equal(mc._won(cell, mc._thresholds(monotone)), _float_won(cell, monotone))


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@example(rows=[[(1.0, 1.0), (1e300, 3.0)], [(1.5, 1e-3), (54.0, 1e4), (1e308, 1.0)]])
@given(
    rows=st.lists(
        st.lists(
            st.tuples(st.sampled_from([1.0, 1e300]) | st.floats(0.0, 308.0).map(lambda e: 10.0**e),
                      st.floats(-4.0, 4.0).map(lambda e: 10.0**e)),
            min_size=2, max_size=3,
        ),
        min_size=1, max_size=4,
    )
)
def test_one_pass_tables_equal_each_groups_own(rows):
    # n = 1 takes the central branch and n >= 1e300 the log(-log u) branch
    rows = [[GroupSpec(n, sigma) for n, sigma in row] for row in rows]
    real, bounds = mc._cell_bounds, []

    def recorded(draw, rel, err):
        bounds.append(real(draw, rel, err))
        return bounds[-1]

    with mock.patch.object(mc, "_cell_bounds", recorded):
        jobs = mc._max_jobs(rows)
    ((lo, hi),) = bounds  # one call for every (row, group) pair

    def own_bounds(g):
        return mc._cell_bounds(functools.partial(mc.sample_group_max, g.size, g.sigma), mc._REL, mc._ABS * g.sigma)

    for g, row_lo, row_hi in zip([g for row in rows for g in row], lo, hi, strict=True):
        own_lo, own_hi = own_bounds(g)
        assert row_lo.tobytes() == own_lo.tobytes() and row_hi.tobytes() == own_hi.tobytes()
    for groups, (samplers, tables) in zip(rows, jobs, strict=True):
        own = mc._thresholds([own_bounds(g) for g in groups])
        assert [[None if t is None else t.tobytes() for t in row] for row in tables] == [
            [None if t is None else t.tobytes() for t in row] for row in own
        ]
        assert [(s.func, s.args) for s in samplers] == [(mc.sample_group_max, (g.size, g.sigma)) for g in groups]


def test_bound_examples_reach_both_special_branches():
    u = _near_edges()
    # the central branch: u^(1/n) below 1/2 at n = 1 and 1.5
    assert np.any(u ** (1 / 1.5) < 0.5)
    # the branch past n ~ 5e291, where log(u) / n is subnormal or zero
    assert np.any(np.log(u) / 1e300 > -mc._TINY)


class TestMcTwoGroup:
    def test_symmetric_groups(self):
        est = mc_two_group(GroupSpec(7, 1.3), GroupSpec(7, 1.3), 100_000, RngStream(1))
        assert abs(est.p_hat - 0.5) <= 4.0 * est.std_err

    def test_exchangeable(self):
        est = mc_two_group(GroupSpec(10, 1.0), GroupSpec(10, 1.0), 100_000, RngStream(2))
        assert abs(est.p_hat - 0.5) <= 4.0 * est.std_err

    def test_against_quadrature(self):
        g1, g2 = GroupSpec(4659, 1.0), GroupSpec(100, math.sqrt(2.0))
        est = mc_two_group(g1, g2, 100_000, RngStream(3))
        exact = finite_n_winner(g1, g2).value
        assert abs(est.p_hat - exact) <= 4.0 * est.std_err

    def test_bit_identical_across_chunking_and_workers(self, monkeypatch):
        g1, g2 = GroupSpec(50, 1.0), GroupSpec(20, 1.5)
        base = mc_two_group(g1, g2, 30_000, RngStream(4))
        monkeypatch.setattr(mc, "_CHUNK_DRAWS", 1 << 10)
        chunked = mc_two_group(g1, g2, 30_000, RngStream(4))
        threaded = mc_two_group(g1, g2, 30_000, RngStream(4), workers=4)
        assert base == chunked == threaded

    def test_chunk_layout_ignores_workers(self, recording_pool):
        g1, g2 = GroupSpec(50, 1.0), GroupSpec(20, 1.5)
        trials = 3 * (mc._CHUNK_DRAWS // 2) + 1  # 4 chunks of at most _CHUNK_DRAWS draws
        base = mc_two_group(g1, g2, trials, RngStream(4))
        for workers in (2, 3, 10**5):
            assert mc_two_group(g1, g2, trials, RngStream(4), workers=workers) == base
        assert [pool.max_workers for pool in recording_pool] == [2, 3, 4]
        spans = [[args[3:] for _, args in pool.tasks] for pool in recording_pool]
        assert spans[0] == spans[1] == spans[2]
        assert [t0 for t0, _ in spans[0]] == [j * trials // 4 for j in range(4)]
        assert sum(n for _, n in spans[0]) == trials
        assert max(n for _, n in spans[0]) - min(n for _, n in spans[0]) <= 1
        assert all(2 * n <= mc._CHUNK_DRAWS for _, n in spans[0])

    def test_failing_first_chunk_cancels_the_rest(self, monkeypatch):
        real, started = mc._chunk_counts, []

        def first_fails(stream, samplers, bounds, t0, n):
            started.append(t0)
            if t0 == 0:
                raise RuntimeError("chunk 0 failed")
            time.sleep(0.02)  # keeps the threads busy while the failure is read
            return real(stream, samplers, bounds, t0, n)

        monkeypatch.setattr(mc, "_CHUNK_DRAWS", 200)  # 100 trials a chunk, 64 chunks
        monkeypatch.setattr(mc, "_chunk_counts", first_fails)
        before = threading.active_count()
        for workers, most_started in ((1, 1), (2, 63)):
            started.clear()
            with pytest.raises(RuntimeError, match="chunk 0 failed"):
                mc_two_group(GroupSpec(5, 1.0), GroupSpec(5, 1.5), 6_400, RngStream(35), workers=workers)
            assert 0 in started and len(started) <= most_started, workers
        assert threading.active_count() == before

    def test_std_err_contract(self):
        est = mc_two_group(GroupSpec(5, 1.0), GroupSpec(5, 2.0), 1000, RngStream(5))
        assert est.std_err == pytest.approx(
            math.sqrt(est.p_hat * (1.0 - est.p_hat) / est.trials), rel=1e-12
        )


def _chunk_boundary_examples(test, chunk_draws=1 << 4):
    """Pin trials = cap, cap + 1 and 2 cap + 1 at K = 2 and 3, serially and on 3 workers."""
    for k in (2, 3):
        cap = chunk_draws // k
        for trials in (cap, cap + 1, 2 * cap + 1):
            for workers in (1, 3):
                test = example(chunk_draws=chunk_draws, workers=workers, k=k, trials=trials, seed=0)(test)
    return test


@settings(max_examples=50, deadline=None, database=None, derandomize=True)
@_chunk_boundary_examples
@given(
    chunk_draws=st.sampled_from([1 << e for e in range(4, 22)]),
    workers=st.sampled_from([1, 2, 3, 4]),
    k=st.integers(2, 4),
    trials=st.integers(1, 3_000),
    seed=st.integers(0, 2**32 - 1),
)
def test_estimates_identical_across_chunks_and_workers(chunk_draws, workers, k, trials, seed):
    groups = [GroupSpec(10.0**j, 1.0 + 0.25 * j) for j in range(k)]
    g = np.random.default_rng(seed)
    pool1 = InnovationPool(g.standard_normal(200), 1.0)
    pool2 = InnovationPool(1.5 * g.standard_normal(150), 1.5)

    def run(w):
        rng = RngStream(seed)
        return (
            mc_multi(groups, trials, rng.substream(0), workers=w),
            mc_limit_pair(1.0, 1.5, trials, rng.substream(1), workers=w),
            bootstrap_winner(pool1, pool2, 500, 20, trials, rng.substream(2), workers=w),
        )

    base = run(1)
    with mock.patch.object(mc, "_CHUNK_DRAWS", chunk_draws):
        assert run(workers) == base


class TestMcMulti:
    def test_identical_groups(self):
        ests = mc_multi([GroupSpec(5, 1.2)] * 4, 100_000, RngStream(6))
        for e in ests:
            assert abs(e.p_hat - 0.25) <= 4.0 * e.std_err

    def test_counts_partition_trials(self):
        ests = mc_multi(
            [GroupSpec(10, 1.0), GroupSpec(5, 1.5), GroupSpec(3, 2.0)], 10_000, RngStream(7)
        )
        assert sum(round(e.p_hat * e.trials) for e in ests) == 10_000

    def test_needs_two_groups(self):
        with pytest.raises(ValueError, match="^need at least 2 groups$"):
            mc_multi([GroupSpec(10, 1.0)], 100, RngStream(7))

    def test_k2_matches_mc_two_group(self):
        g1, g2 = GroupSpec(8, 1.0), GroupSpec(6, 1.6)
        pair = mc_two_group(g1, g2, 50_000, RngStream(8))
        multi = mc_multi([g1, g2], 50_000, RngStream(8))
        assert multi[0].p_hat == pair.p_hat
        assert round(multi[0].p_hat * multi[0].trials) == round(pair.p_hat * pair.trials)

    def test_scale_invariance(self):
        groups = [GroupSpec(10, 1.0), GroupSpec(5, 1.5), GroupSpec(3, 2.0)]
        scaled = [GroupSpec(g.size, 10.0 * g.sigma) for g in groups]
        a = mc_multi(groups, 20_000, RngStream(9))
        b = mc_multi(scaled, 20_000, RngStream(9))
        assert [round(e.p_hat * e.trials) for e in a] == [round(e.p_hat * e.trials) for e in b]

    def test_against_multi_quadrature(self):
        groups = [GroupSpec(10, 1.0), GroupSpec(5, 1.5), GroupSpec(3, 2.0)]
        ests = mc_multi(groups, 200_000, RngStream(10))
        for k, est in enumerate(ests):
            exact = finite_n_winner(groups[k], *groups[:k], *groups[k + 1:]).value
            assert abs(est.p_hat - exact) <= 4.0 * est.std_err, f"group {k}"

    def test_pinned_successes_k3(self):
        groups = [GroupSpec(10, 1.0), GroupSpec(5, 1.5), GroupSpec(3, 2.0)]
        ests = mc_multi(groups, 200_000, RngStream(10))
        assert [e.p_hat for e in ests] == [47_608 / 200_000, 73_556 / 200_000, 78_836 / 200_000]

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_winner_counts_match_argmax_with_ties(self, k):
        g = np.random.default_rng(100 + k)
        # coarse integer maxima make exact ties, including k-way ties, common
        maxima = [g.integers(0, 4, size=5_000).astype(float) for _ in range(k)]
        maxima[-1][:3] = maxima[0][:3] = 9.0  # first and last group tie at the top
        # a tie goes to the later group: argmax over the reversed group order
        expected = np.bincount(k - 1 - np.argmax(np.stack(maxima[::-1], axis=1), axis=1), minlength=k)
        assert mc._winner_counts(maxima) == list(expected)
        assert mc._winner_counts([np.zeros(7)] * k) == [0] * (k - 1) + [7]

    def test_coupled_monotonicity_in_n1(self):
        # same stream: raising n1 never flips a group-1 win into a loss
        s = RngStream(seed=21)
        u = mc._uniforms(s, 0, 50_000, 2)
        m2 = sample_group_max(40.0, 1.5, u[:, 1])
        wins_small = sample_group_max(30.0, 1.0, u[:, 0]) > m2
        wins_big = sample_group_max(300.0, 1.0, u[:, 0]) > m2
        assert np.all(wins_big >= wins_small)


@pytest.fixture
def exact_draws(monkeypatch):
    """Sizes of the trial sets that chunks draw exactly and pass to ``_winner_counts``."""
    sizes = []
    count = mc._winner_counts

    def recorded(maxima):
        sizes.append(maxima[0].size)
        return count(maxima)

    monkeypatch.setattr(mc, "_winner_counts", recorded)
    return sizes


def _overflowing(trials):
    """Group 2's maxima (sigma = 1e308) overflow to inf in the sampler above x = 1.8, a third of the draws."""
    with np.errstate(all="ignore"):
        return mc_multi([GroupSpec(10, 1.0), GroupSpec(10, 1e308)], trials, RngStream(5))


class TestCellBounds:
    TRIALS = 30_000
    RUNS = {
        "k2": lambda t: mc_multi([GroupSpec(1e4, 1.0), GroupSpec(100, 1.5)], t, RngStream(31)),
        "k2_extreme": lambda t: mc_multi([GroupSpec(5e137, 1.0), GroupSpec(1e16, 3.0)], t, RngStream(32)),
        "k2_overflow": _overflowing,
        "k3": lambda t: mc_multi([GroupSpec(10, 1.0), GroupSpec(5, 1.5), GroupSpec(3, 2.0)], t, RngStream(33)),
        "limit_pair": lambda t: mc_limit_pair(1.0, 1.5, t, RngStream(34)),
    }

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_counts_equal_all_exact_counts(self, monkeypatch, exact_draws, name):
        bounded = self.RUNS[name](self.TRIALS)
        if name == "k2_overflow":
            # an infinite edge's -inf lower bound leaves only its own cell undecided, not every cell below
            assert 0 < sum(exact_draws) < self.TRIALS
        else:
            assert 0 < sum(exact_draws) < 0.05 * self.TRIALS  # the bounds decide nearly every trial
        exact_draws.clear()
        # infinite tables, one row per sampler, so the per-trial reads run and decide nothing
        def infinite(draw, rel, err):
            shape = np.shape(err)[:-1] + (mc._CELLS,)
            return np.full(shape, -np.inf), np.full(shape, np.inf)

        monkeypatch.setattr(mc, "_cell_bounds", infinite)
        assert self.RUNS[name](self.TRIALS) == bounded
        assert sum(exact_draws) == self.TRIALS

    def test_chunk_with_every_trial_decided(self, exact_draws):
        stream = RngStream(31)
        ((samplers, tables),) = mc._max_jobs([[GroupSpec(1e6, 1.0), GroupSpec(2, 1e-3)]])
        cell = mc._words(stream, 0, 40, 2) >> np.uint64(55)
        # no draw in group 1's first cell or group 2's last, the only cells with an infinite bound
        assert np.all(cell[:, 0] > 0) and np.all(cell[:, 1] < mc._CELLS - 1)
        assert list(mc._chunk_counts(stream, samplers, tables, 0, 40)) == [40, 0]
        assert exact_draws == [0]

    def test_non_finite_edges_bound_nothing(self):
        def draw(u):
            x = np.array(u)
            x[[10, 20, 30]] = [np.inf, -np.inf, np.nan]
            return x

        lo, hi = mc._cell_bounds(draw, mc._REL, mc._ABS)  # no RuntimeWarning: Tier-1 runs with them as errors
        # edge k is the upper edge of cell k and the lower edge of cell k + 1
        assert np.flatnonzero(hi == np.inf).tolist() == [10, 20, 30, mc._CELLS - 1]
        assert np.flatnonzero(lo == -np.inf).tolist() == [0, 11, 21, 31]
        assert not np.any(np.isnan(lo) | np.isnan(hi))
        # against a rival below every finite bound, group 1 wins in every cell with a finite lower bound
        rival = (np.full(mc._CELLS, -np.inf), np.full(mc._CELLS, -1e300))
        cell = _every_cell_pair([(lo, hi), rival])
        won = mc._won(cell, mc._thresholds([(lo, hi), rival]))
        assert np.array_equal(won[0], ~np.isin(cell[0], [0, 11, 21, 31])) and not np.any(won[1])

    def test_chunk_memory_within_twice_its_words(self):
        ((samplers, tables),) = mc._max_jobs([[GroupSpec(1e4, 1.0), GroupSpec(100, 1.5)]])
        stream, trials = RngStream(37), 50_000
        mc._chunk_counts(stream, samplers, tables, 0, trials)
        tracemalloc.start()
        try:
            mc._chunk_counts(stream, samplers, tables, 0, trials)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * trials * 2 * 8  # twice the 0.8 MB word matrix

    def test_tables_built_once_per_job(self, monkeypatch, recording_pool):
        real, calls = mc._cell_bounds, []

        def counted(draw, rel, err):
            calls.append((rel, np.ravel(err).tolist()))
            return real(draw, rel, err)

        monkeypatch.setattr(mc, "_cell_bounds", counted)
        g1, g2 = GroupSpec(50, 1.0), GroupSpec(20, 1.5)
        trials = 3 * (mc._CHUNK_DRAWS // 2) + 1  # 4 chunks of at most _CHUNK_DRAWS draws
        mc_two_group(g1, g2, trials, RngStream(4), workers=2)
        assert len(recording_pool[0].tasks) == 4
        assert calls == [(mc._REL, [mc._ABS, 1.5 * mc._ABS])]  # one call, one table per group
        calls.clear()
        monkeypatch.setattr(mc, "_CHUNK_DRAWS", 1 << 12)  # 10 chunks of 2,000 trials a row
        convergence_study(1.5, [0.5, 2.0], [100.0, 1e4, 1e6], GRID_TRIALS, RngStream(31), workers=2)
        assert len(recording_pool[1].tasks) == 60
        assert calls == [(mc._REL, [mc._ABS, 1.5 * mc._ABS] * 6)]  # one call for the two tables of all six rows

    def test_bootstrap_job_builds_no_tables(self, monkeypatch, exact_draws):
        def no_tables(draw, rel, err):
            raise AssertionError("a bootstrap job built a cell table")

        monkeypatch.setattr(mc, "_cell_bounds", no_tables)
        g = np.random.default_rng(30)
        p1 = InnovationPool(g.standard_normal(500), 1.0)
        p2 = InnovationPool(1.5 * g.standard_normal(400), 1.5)
        est = bootstrap_winner(p1, p2, 40, 10, 3_000, RngStream(36))
        assert exact_draws == [3_000]  # every trial drawn exactly
        monkeypatch.setattr(mc, "_CHUNK_DRAWS", 1 << 10)  # 6 chunks of at most 512 trials
        assert bootstrap_winner(p1, p2, 40, 10, 3_000, RngStream(36), workers=2) == est
        assert sum(exact_draws) == 6_000 and len(exact_draws) == 7


class TestMcArgmaxIdentity:
    def test_two_group_identity(self):
        checks = mc_argmax_identity(
            [GroupSpec(5, 1.0), GroupSpec(3, 1.5)], 100_000, RngStream(11)
        )
        for c in checks:
            combined = math.hypot(c.lhs_std_err, c.rhs_std_err)
            assert abs(c.lhs - c.rhs) <= 4.0 * combined, f"group {c.group}"

    def test_group_of_one_is_exact(self):
        checks = mc_argmax_identity(
            [GroupSpec(1, 1.0), GroupSpec(4, 1.5)], 20_000, RngStream(12)
        )
        assert checks[0].lhs == checks[0].rhs

    def test_three_group_identity(self):
        checks = mc_argmax_identity(
            [GroupSpec(4, 1.0), GroupSpec(3, 1.5), GroupSpec(2, 2.0)], 100_000, RngStream(13)
        )
        for c in checks:
            combined = math.hypot(c.lhs_std_err, c.rhs_std_err)
            assert abs(c.lhs - c.rhs) <= 4.0 * combined, f"group {c.group}"

    def test_rejects_non_integer_and_huge_sizes(self):
        with pytest.raises(ValueError):
            mc_argmax_identity([GroupSpec(2.5, 1.0), GroupSpec(3, 1.5)], 10, RngStream(0))
        with pytest.raises(ValueError):
            mc_argmax_identity([GroupSpec(2000, 1.0), GroupSpec(3, 1.5)], 10, RngStream(0))


class TestMcLimitPair:
    def test_symmetric_boundary(self):
        est = mc_limit_pair(1.0, 1.0 + 1e-9, 100_000, RngStream(14))
        assert abs(est.p_hat - 0.5) <= 4.0 * est.std_err

    def test_against_quadrature(self):
        est = mc_limit_pair(1.0, 1.5, 200_000, RngStream(15))
        exact = two_group_limit(1.0, 1.5).value
        assert abs(est.p_hat - exact) <= 4.0 * est.std_err

    def test_pinned_successes(self):
        # no CLI path reaches this estimator, so no golden digest covers its draws
        assert mc_limit_pair(1.0, 1.5, 200_000, RngStream(15)).p_hat == 121_517 / 200_000

    def test_large_c_near_one(self):
        est = mc_limit_pair(1e5, 1.5, 50_000, RngStream(16))
        assert est.p_hat > 0.99

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            mc_limit_pair(0.0, 1.5, 100, RngStream(0))


@pytest.mark.parametrize("trials", [0, 2.5, 1e3, math.nan, True, np.float64(10.0)])
def test_trials_must_be_an_integer_from_one(trials):
    pools = InnovationPool(np.array([0.0, 1.0]), 1.0), InnovationPool(np.array([0.5, 2.0]), 1.0)
    for run in (
        lambda t: mc_two_group(GroupSpec(5, 1.0), GroupSpec(3, 1.5), t, RngStream(0)),
        lambda t: mc_limit_pair(1.0, 1.5, t, RngStream(0)),
        lambda t: bootstrap_winner(*pools, 4, 3, t, RngStream(0)),
    ):
        with pytest.raises(ValueError, match=re.escape(f"trials must be an integer >= 1, got {trials!r}")):
            run(trials)
        assert run(np.int64(50)) == run(50)


class TestConvergenceStudy:
    def test_single_point_reduces_to_mc_two_group(self):
        rows = convergence_study(1.5, [1.0], [100.0], 20_000, RngStream(17))
        assert len(rows) == 1
        row = rows[0]
        from gausswinner.scaling import critical_n1

        n1 = float(critical_n1(100.0, 1.5, 1.0).floor_value)
        est = mc_two_group(
            GroupSpec(n1, 1.0), GroupSpec(100.0, 1.5), 20_000, RngStream(17).substream(0)
        )
        assert row.p_hat == est.p_hat
        assert row.n1 == n1
        assert row.p_limit == pytest.approx(two_group_limit(1.0, 1.5).value, abs=1e-12)

    def test_row_order_and_exact_column(self):
        rows = convergence_study(
            1.5, [0.5, 2.0], [100.0, 1000.0], 2_000, RngStream(18), exact=True
        )
        assert [(r.c, r.n2) for r in rows] == [
            (0.5, 100.0),
            (0.5, 1000.0),
            (2.0, 100.0),
            (2.0, 1000.0),
        ]
        for r in rows:
            assert r.p_exact is not None
            assert abs(r.p_hat - r.p_exact) <= 5.0 * max(r.std_err, 1e-3)

    def test_gap_shrinks_toward_limit(self):
        # (sigma, C) = (1.5, 0.1): true finite-n gap 0.0205 at n2=1e2 vs
        # 0.0088 at 1e6, resolvable at 400k trials
        rows = convergence_study(1.5, [0.1], [1e2, 1e6], 400_000, RngStream(19))
        gap_small = abs(rows[0].p_hat - rows[0].p_limit)
        gap_big = abs(rows[1].p_hat - rows[1].p_limit)
        assert gap_big < gap_small

    def test_overflowing_floor_uses_real_size(self):
        rows = convergence_study(2.0, [5.0], [1e6], 1_000, RngStream(20))
        assert rows[0].n1 > 2**53
        assert 0.0 <= rows[0].p_hat <= 1.0

    def test_empty_grids_rejected(self):
        with pytest.raises(ValueError):
            convergence_study(1.5, [], [100.0], 10, RngStream(0))


GRID_TRIALS = 20_000


def _studies(workers):
    """A 6-row exact convergence study and a 4-row bootstrap study at one worker count."""
    g = np.random.default_rng(30)
    p1 = InnovationPool(g.standard_normal(500), 1.0)
    p2 = InnovationPool(1.5 * g.standard_normal(400), 1.5)
    return (
        convergence_study(
            1.5, [0.5, 2.0], [100.0, 1e4, 1e6], GRID_TRIALS, RngStream(31), exact=True, workers=workers
        ),
        empirical_study(p1, p2, [0.6, 3.0], [10, 40], GRID_TRIALS, RngStream(32), workers=workers),
    )


class TestGridScheduling:
    """All rows of a study share one pool; the rows match the serial rows bit for bit."""

    @pytest.mark.parametrize("chunk_draws", [None, 1 << 12])
    def test_rows_identical_at_any_worker_count(self, monkeypatch, chunk_draws):
        base = _studies(1)
        before = threading.active_count()
        if chunk_draws is not None:  # 10 chunks a row, so rows interleave in the pool
            monkeypatch.setattr(mc, "_CHUNK_DRAWS", chunk_draws)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so tasks finish out of order
        try:
            for workers in (1, 2, 3, 8):
                assert _studies(workers) == base, workers
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == before

    def test_one_worker_starts_no_pool(self, monkeypatch):
        def no_pool(max_workers):
            raise AssertionError("workers=1 started a pool")

        monkeypatch.setattr(mc, "ThreadPoolExecutor", no_pool)
        _studies(1)

    def test_chunks_keep_their_own_floating_point_state(self):
        # the caller's errstate reaches only its own thread; a chunk counts the same on any thread
        groups = [GroupSpec(10, 1.0), GroupSpec(10, 1e308)]  # group 2's maxima overflow to inf above x = 1.8
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("error", RuntimeWarning)
            estimates = [mc_multi(groups, 300_000, RngStream(5), workers=w) for w in (1, 2, 3)]
        assert estimates[0] == estimates[1] == estimates[2]

    @pytest.mark.parametrize("workers", [2, 3, 64])
    @pytest.mark.parametrize("chunk_draws", [1 << 21, 1 << 12])
    def test_one_pool_per_study_with_bounded_tasks(self, monkeypatch, recording_pool, workers, chunk_draws):
        base = _studies(1)
        pools_at_quadrature = []
        real = mc.finite_n_winner

        def counted(g1, g2):
            pools_at_quadrature.append(len(recording_pool))
            return real(g1, g2)

        monkeypatch.setattr(mc, "_CHUNK_DRAWS", chunk_draws)
        monkeypatch.setattr(mc, "finite_n_winner", counted)
        assert _studies(workers) == base
        assert len(recording_pool) == 2  # one per study call
        assert pools_at_quadrature == [0] * 6  # every exact quadrature ran before the first pool was built
        # each row is cut by trials and K alone: one chunk, or ten of 2,000 trials at 2,048 a chunk
        row = {1 << 21: [(0, GRID_TRIALS)], 1 << 12: [(2_000 * j, 2_000) for j in range(10)]}[chunk_draws]
        for pool, n_rows in zip(recording_pool, (6, 4)):
            assert pool.max_workers == min(workers, len(pool.tasks))
            assert all(fn is mc._chunk_counts for fn, _ in pool.tasks)  # every task is a trial chunk
            assert [args[3:] for _, args in pool.tasks] == row * n_rows  # rows in order

    def test_study_sets_up_its_rows_in_one_pass(self, monkeypatch):
        # one edge transform builds every row's tables, and each row's exact value is its
        # own quadrature, in row order
        base = convergence_study(1.5, [0.5, 2.0], [100.0, 1e4, 1e6], 2_000, RngStream(31), exact=True)
        transforms, quadratures = [], []
        real_sample, real_finite_n = mc.sample_group_max, mc.finite_n_winner

        def sample(n, sigma, u):
            if np.ndim(n):
                transforms.append(np.shape(n))
            return real_sample(n, sigma, u)

        def finite_n(g1, g2):
            quadratures.append((g1.size, g2.size))
            return real_finite_n(g1, g2)

        monkeypatch.setattr(mc, "sample_group_max", sample)
        monkeypatch.setattr(mc, "finite_n_winner", finite_n)
        rows = convergence_study(1.5, [0.5, 2.0], [100.0, 1e4, 1e6], 2_000, RngStream(31), exact=True)
        assert rows == base
        assert transforms == [(12, 1)]  # 6 rows of 2 groups
        assert quadratures == [(r.n1, r.n2) for r in rows]  # one call a row, in row order

    def test_row_setup_error_matches_serial(self):
        g = np.random.default_rng(30)
        p1 = InnovationPool(g.standard_normal(500), 1.0)
        p2 = InnovationPool(2.0 * g.standard_normal(400), 2.0)
        before = threading.active_count()
        errors = []
        for workers in (1, 2):
            with pytest.raises(ValueError) as excinfo:
                empirical_study(p1, p2, [1e300], [100, 1_000_000], 1_000, RngStream(33), workers=workers)
            errors.append(str(excinfo.value))
        assert errors == ["critical size C*f(n2) overflows a float at sigma=2.0, c=1e+300, n2=1e+06"] * 2
        assert threading.active_count() == before

    def test_infinite_critical_size_fails_at_row_setup(self):
        for workers in (1, 2):
            with pytest.raises(ValueError) as excinfo:
                convergence_study(1.5, [1.0], [100.0, 1e300], 1_000, RngStream(34), workers=workers)
            assert str(excinfo.value) == "critical size C*f(n2) overflows a float at sigma=1.5, c=1.0, n2=1e+300"

    def test_quadrature_error_raises_before_any_trial(self, monkeypatch):
        real, real_chunk = mc.finite_n_winner, mc._chunk_counts
        chunks = []

        def stalls_at_n2_1e4(g1, g2):
            if g2.size == 1e4:
                raise QuadratureError(f"refinement stalled at n1={g1.size}")
            return real(g1, g2)

        def recorded(stream, samplers, bounds, t0, n):
            chunks.append((t0, n))
            return real_chunk(stream, samplers, bounds, t0, n)

        monkeypatch.setattr(mc, "finite_n_winner", stalls_at_n2_1e4)
        monkeypatch.setattr(mc, "_chunk_counts", recorded)
        before = threading.active_count()
        errors = []
        for workers in (1, 2, 8):
            with pytest.raises(QuadratureError) as excinfo:
                _studies(workers)
            errors.append(str(excinfo.value))
        assert errors == ["refinement stalled at n1=124823887"] * 3  # row 1 (C=0.5) fails first
        assert chunks == []
        assert threading.active_count() == before

