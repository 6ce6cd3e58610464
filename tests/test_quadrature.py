"""The log-concave trapezoid engine on integrals with known values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausswinner import limits, quadrature
from gausswinner.quadrature import BATCH, MAX_EXPANSIONS, N_START, QuadratureError, _nodes, concave_log_quad
from gausswinner.scaling import GroupSpec


def test_standard_gaussian_mass():
    res = concave_log_quad(lambda x: -0.5 * x * x, -3.0, 3.0, tol=1e-12)
    assert res.value == pytest.approx(math.sqrt(2.0 * math.pi), abs=1e-12)
    assert res.abs_err <= 1e-12
    assert res.evaluations > 0


def test_exponential_mass_in_u_space():
    # int_0^inf e^-y dy = 1 after y = e^u
    res = concave_log_quad(lambda u: u - np.exp(u), -10.0, 5.0, tol=1e-11)
    assert res.value == pytest.approx(1.0, abs=1e-11)


def test_integrable_singularity_gamma_half():
    # int_0^inf y^{-1/2} e^-y dy = sqrt(pi); singular endpoint absorbed by y = e^u
    res = concave_log_quad(lambda u: 0.5 * u - np.exp(u), -60.0, 5.0, tol=1e-11)
    assert res.value == pytest.approx(math.sqrt(math.pi), abs=1e-10)


def test_peak_far_outside_seed_window():
    # narrow Gaussian at x = 50; seed window misses it entirely
    res = concave_log_quad(lambda x: -0.5 * ((x - 50.0) / 0.01) ** 2, -1.0, 1.0, tol=1e-12)
    assert res.value == pytest.approx(0.01 * math.sqrt(2.0 * math.pi), rel=1e-9)


def test_tiny_total_mass_absolute_tolerance():
    # integrand peak ~ e^-80: value ~ 4e-35 but still resolved in relative terms
    res = concave_log_quad(lambda x: -0.5 * x * x - 80.0, -5.0, 5.0, tol=1e-10)
    assert res.value == pytest.approx(math.exp(-80.0) * math.sqrt(2.0 * math.pi), rel=1e-10)


def test_note_passthrough():
    res = concave_log_quad(lambda x: -0.5 * x * x, -5.0, 5.0, tol=1e-10, note="flagged")
    assert res.note == "flagged"


def test_failure_carries_partial_estimate(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_LEVELS", 2)
    with pytest.raises(QuadratureError) as excinfo:
        concave_log_quad(lambda x: -0.5 * x * x, -5.0, 5.0, tol=1e-13)
    partial = excinfo.value.partial
    assert partial is not None
    assert partial.value == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-3)


def test_rejects_nan_integrand():
    with pytest.raises(QuadratureError, match="NaN"):
        concave_log_quad(lambda x: np.where(x > 0, np.nan, -x * x), -5.0, 5.0, tol=1e-9)


def test_rejects_bad_window():
    with pytest.raises(ValueError):
        concave_log_quad(lambda x: -x * x, 1.0, 1.0, tol=1e-9)


def test_window_candidates_past_the_kept_endpoint_may_overflow():
    # Gamma(1) = 1 in u-space; a later candidate of the right-hand batch
    # sits where exp(u) overflows, which must not warn
    res = concave_log_quad(lambda u: u - np.exp(u), -10.0, -9.0)
    assert res.value == pytest.approx(1.0, abs=1e-10)


# float.hex of (value, abs_err).  Speed work on the engine or on the limits
# integrands must keep these bits; a change to their arithmetic shows here.
PINNED = {
    "two_group_limit(1, 1.5)": (
        lambda: [limits.two_group_limit(1.0, 1.5)],
        [("0x1.37d9a47bb5307p-1", "0x1.ad060e1b27784p-64")],
    ),
    "two_group_limit_from_kappa(0, sqrt 2)": (
        lambda: [limits.two_group_limit_from_kappa(0.0, math.sqrt(2.0))],
        [("0x1.d1436420ad3efp-2", "0x1.0052bb982b0fep-54")],
    ),
    "finite_n_winner(1e6 x 1, 100 x 1.5)": (
        lambda: [limits.finite_n_winner(GroupSpec(1e6, 1.0), GroupSpec(100, 1.5))],
        [("0x1.deb0e916114aap-1", "0x1.002a1755ddcdap-53")],
    ),
    "multi_group_limits K=3": (
        lambda: limits.multi_group_limits(limits.LimitSpecK(groups=((1.0, 1.0), (0.5, 1.3), (2.0, 1.8)))),
        [
            ("0x1.5639eb7770066p-2", "0x1.80000742d6ccap-53"),
            ("0x1.c0f2af83f945dp-2", "0x1.000000ecaabacp-53"),
            ("0x1.d1a6ca092d680p-3", "0x1.554462156b863p-63"),
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_library_bits_pinned(name):
    call, expected = PINNED[name]
    assert [(r.value.hex(), r.abs_err.hex()) for r in call()] == expected


def test_solve_c_for_target_bits_pinned():
    assert limits.solve_c_for_target(0.3, 1.5).hex() == "0x1.c4abf38577bb2p-4"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    lo=st.floats(-1e6, 1e6),
    width=st.floats(1e-9, 1e6),
    n=st.sampled_from([3, 65, 129, 257, 261, 513]),
)
def test_nodes_match_linspace_bit_for_bit(lo, width, n):
    hi = lo + width
    if not lo < hi:
        return
    ref = np.linspace(lo, hi, n)
    assert np.array_equal(_nodes(lo, hi, n), ref)
    assert np.array_equal(_nodes(lo, hi, n, odd=True), ref[1::2])


def test_nodes_subnormal_width_takes_linspace_path():
    ref = np.linspace(0.0, 5e-324, 65)
    assert np.array_equal(_nodes(0.0, 5e-324, 65), ref)
    assert np.array_equal(_nodes(0.0, 5e-324, 65, odd=True), ref[1::2])


def test_window_that_never_decays_raises():
    with pytest.raises(QuadratureError, match="window expansion did not resolve"):
        concave_log_quad(lambda x: np.zeros_like(x), -3.0, 3.0)


def test_nan_beyond_accepted_endpoint_is_ignored():
    # -x^2 on [-1, 1] resolves its window at -11.39 and 11.2; the batches
    # also reach -17.1 and 18.4, where this integrand is NaN
    plain = concave_log_quad(lambda x: -x * x, -1.0, 1.0)
    res = concave_log_quad(lambda x: np.where(np.abs(x) > 15.0, np.nan, -x * x), -1.0, 1.0)
    assert (res.value.hex(), res.abs_err.hex()) == ("0x1.c5bf891b4ef6cp+0", "0x1.16ec4c3031e11p-62")
    assert (res.value, res.abs_err) == (plain.value, plain.abs_err)


def _bad_at(stage, rows, bad=np.nan):
    """-x^2/2 (and a second row) with one ``bad`` node in the call of ``stage`` nodes, or at x == stage."""

    def log_f(x):
        y = -0.5 * x * x
        y = np.vstack([y, y - 1.0]) if rows else y.copy()
        hit = (x == stage) if isinstance(stage, float) else (np.arange(len(x)) == len(x) // 2) & (len(x) == stage)
        y[..., hit] = bad
        return y

    return log_f


# the seed scan, a window candidate before the accepted one (-3.375 on the
# left of [-1, 1]), the accepted candidate, the trim grid, the first
# refinement level and two levels of midpoints
STAGES = [65, -3.375, -11.390625, 261, N_START, N_START - 1, 2 * (N_START - 1)]


@pytest.mark.parametrize("stage", STAGES)
@pytest.mark.parametrize("rows", [False, True])
def test_nan_raises_at_every_stage(stage, rows):
    with pytest.raises(QuadratureError, match="log integrand returned NaN"):
        concave_log_quad(_bad_at(stage, rows), -1.0, 1.0)


@pytest.mark.parametrize("stage", STAGES)
@pytest.mark.parametrize("rows", [False, True])
def test_inf_raises_at_every_stage(stage, rows):
    # +inf used to end in "zero everywhere", an IndexError on the trim grid,
    # or an invalid-value warning and "did not reach tol" in refinement
    with pytest.raises(QuadratureError, match=r"log integrand returned \+inf"):
        concave_log_quad(_bad_at(stage, rows, bad=np.inf), -1.0, 1.0)


def _indicator_resolving_at(k):
    """0 on [-1, T] and -inf elsewhere, T between right-hand window candidates k - 1 and k on [-1, 1].

    The left side resolves at its first candidate, -1.5, so the right side
    starts from hi = 1 with step (1 - -1.5) / 4 and grows it by 1.5.
    """
    end, step, ends = 1.0, 0.625, []
    for _ in range(k):
        end += step
        step *= 1.5
        ends.append(end)
    t = 0.5 * (ends[-2] + ends[-1])
    return lambda x: np.where((x >= -1.0) & (x <= t), 0.0, -np.inf)


def test_expansion_limit_counts_candidates(monkeypatch):
    # candidate MAX_EXPANSIONS resolves the window; refinement then runs
    # (and, with one level, stops short)
    monkeypatch.setattr(quadrature, "MAX_LEVELS", 1)
    with pytest.raises(QuadratureError, match="trapezoid refinement"):
        concave_log_quad(_indicator_resolving_at(MAX_EXPANSIONS), -1.0, 1.0)
    with pytest.raises(QuadratureError, match="window expansion did not resolve"):
        concave_log_quad(_indicator_resolving_at(MAX_EXPANSIONS + 1), -1.0, 1.0)


@pytest.mark.parametrize("rows", [False, True])
def test_evaluations_count_every_node(rows):
    seen = []

    def log_f(x):
        seen.append(len(x))
        y = -0.5 * x * x
        return np.vstack([y, y - 1.0]) if rows else y

    res = concave_log_quad(log_f, -1.0, 1.0)
    assert res.evaluations == sum(seen)
    assert BATCH in seen  # the unused window candidates are counted too
