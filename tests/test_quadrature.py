"""The log-concave trapezoid engine on integrals with known values."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import log_ndtr

from gausswinner import limits, quadrature, scaling
from gausswinner.quadrature import (
    BATCH,
    DROP,
    MAX_EXPANSIONS,
    N_SCAN,
    N_START,
    QuadratureError,
    _batch_quad,
    _nodes,
    concave_log_quad,
)
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


def test_stalled_refinement_raises(monkeypatch):
    # a Gaussian settles at the second level, so only one level is allowed
    monkeypatch.setattr(quadrature, "MAX_LEVELS", 1)
    with pytest.raises(QuadratureError) as excinfo:
        concave_log_quad(lambda x: -0.5 * x * x, -5.0, 5.0, tol=1e-13)
    assert str(excinfo.value) == "trapezoid refinement did not reach tol=1e-13 (last diff inf)"


def test_rejects_nan_integrand():
    with pytest.raises(QuadratureError, match="NaN"):
        concave_log_quad(lambda x: np.where(x > 0, np.nan, -x * x), -5.0, 5.0, tol=1e-9)


def test_integrand_zero_everywhere_raises():
    with pytest.raises(QuadratureError, match="^integrand is zero everywhere in the resolved window$"):
        concave_log_quad(lambda x: np.full_like(x, -np.inf), -5.0, 5.0, tol=1e-9)


def test_seed_where_drop_is_below_rounding():
    # u - e^u on [49, 51] is about -2e21, where ymax - DROP rounds to ymax:
    # the window stage once took the seed as resolved and the trim found no node
    res = concave_log_quad(lambda u: u - np.exp(u), 49.0, 51.0)
    assert res.value == pytest.approx(1.0, abs=1e-10)


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
        [("0x1.37d9a47bb5306p-1", "0x1.000c64455a1eep-51")],
    ),
    "two_group_limit_from_kappa(0, sqrt 2)": (
        lambda: [limits.two_group_limit_from_kappa(0.0, math.sqrt(2.0))],
        [("0x1.d1436420ad3eep-2", "0x1.c3264010b45e3p-36")],
    ),
    "finite_n_winner(1e6 x 1, 100 x 1.5)": (
        lambda: [limits.finite_n_winner(GroupSpec(1e6, 1.0), GroupSpec(100, 1.5))],
        [("0x1.deb0e916114adp-1", "0x1.0e13817b56d4ap-66")],
    ),
    "finite_n_winner K=3 (10 x 1 vs 5 x 1.5, 3 x 2)": (
        lambda: [limits.finite_n_winner(GroupSpec(10, 1.0), GroupSpec(5, 1.5), GroupSpec(3, 2.0))],
        [("0x1.e46063eae7715p-3", "0x1.48d742f55fd31p-69")],
    ),
    "multi_group_limits K=3": (
        lambda: limits.multi_group_limits(limits.LimitSpecK(groups=((1.0, 1.0), (0.5, 1.3), (2.0, 1.8)))),
        [
            ("0x1.5639eb7770065p-2", "0x1.600892e0b61c8p-50"),
            ("0x1.c0f2af83f945dp-2", "0x1.c002532e2eecdp-51"),
            ("0x1.d1a6ca092d680p-3", "0x1.0014391b0ea6cp-54"),
        ],
    ),
    # two K=3 specs drawn like the benchmark's: each walks a window side, and
    # they settle at levels 3 (1,359 evaluations) and 4 (2,383 evaluations)
    "multi_group_limits K=3, walked, level 3": (
        lambda: limits.multi_group_limits(
            limits.LimitSpecK(
                groups=((1, 1), (0.22819626092295814, 1.4777013992694186), (0.2109281961583722, 1.9917463622500362))
            )
        ),
        [
            ("0x1.dd1676e732daap-3", "0x1.30032daa54069p-50"),
            ("0x1.b2f5ac5fe441ep-2", "0x1.0f0000e0172c2p-44"),
            ("0x1.5e7f182c8250ap-2", "0x1.dc016e8bc9e6cp-47"),
        ],
    ),
    "multi_group_limits K=3, walked, level 4": (
        lambda: limits.multi_group_limits(
            limits.LimitSpecK(
                groups=((1, 1), (1.4095173216084038, 2.2385783348803816), (2.093256384295341, 2.3778578081888107))
            )
        ),
        [
            ("0x1.0164e12b66de0p-1", "0x1.8005e16c13c36p-51"),
            ("0x1.072fe67f6380cp-2", "0x1.00024f6f4169fp-54"),
            ("0x1.ec0cae539d866p-3", "0x1.165e11f38d486p-61"),
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_library_bits_pinned(name):
    call, expected = PINNED[name]
    assert [(r.value.hex(), r.abs_err.hex()) for r in call()] == expected


def test_solve_c_for_target_bits_pinned():
    assert limits.solve_c_for_target(0.3, 1.5).hex() == "0x1.c4abf38577baep-4"


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


def _bent(x):
    """-x^2/2 - sqrt(0.01 + x^2)/2: concave, and its bend at 0 keeps refinement going to level 3."""
    return -0.5 * x * x - 0.5 * np.sqrt(0.01 + x * x)


def test_nan_beyond_accepted_endpoint_is_ignored():
    # from [2, 4], beside the peak at 0, the left side rises outward and walks:
    # its batch ends at -8.390625, -14.0859375 and -22.62890625, and -14.0859375
    # is the first endpoint deep enough.  The right side ends at its bound.
    plain = concave_log_quad(_bent, 2.0, 4.0)
    res = concave_log_quad(lambda x: np.where(x < -20.0, np.nan, _bent(x)), 2.0, 4.0)
    assert (res.value.hex(), res.abs_err.hex()) == (plain.value.hex(), plain.abs_err.hex()) == (
        "0x1.bcd029cb9f09cp+0",
        "0x1.6620021538de9p-39",
    )


# stage -> (nodes in the log_f call, index of the bad node) for the seed scan,
# the trim grid, a node of level 0 (129 nodes) and of level 1 (128 midpoints)
# in the first refinement call, and a node of the 256 level-2 midpoints
_CALL_NODE = {
    N_SCAN: (N_SCAN, N_SCAN // 2),
    4 * N_SCAN + 1: (4 * N_SCAN + 1, 2 * N_SCAN),
    N_START: (2 * N_START - 1, N_START - 1),
    N_START - 1: (2 * N_START - 1, N_START),
    2 * (N_START - 1): (2 * (N_START - 1), N_START - 1),
}


def _bad_at(stage, rows, bad=np.nan):
    """``_bent`` (and a second row) with one ``bad`` node: at x == stage, or the node ``_CALL_NODE[stage]``."""

    def log_f(x):
        y = _bent(x)
        y = np.vstack([y, y - 1.0]) if rows else y.copy()
        if isinstance(stage, float):
            y[..., x == stage] = bad
        elif len(x) == _CALL_NODE[stage][0]:
            y[..., _CALL_NODE[stage][1]] = bad
        return y

    return log_f


# the seed scan, a window candidate before the accepted one (-3.375 on the
# left of [-1, 1], whose secant bound lies past the first batch), the accepted
# candidate, the trim grid, levels 0 and 1 (both in the first refinement call)
# and the level-2 midpoints
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


@pytest.mark.parametrize("rows", [False, True])
def test_stage_calls_and_window(rows):
    # the calls STAGES is keyed to: scan, one left batch, trim grid from the
    # accepted -11.390625, the first refinement call and two midpoint levels
    seen = []

    def log_f(x):
        seen.append(x)
        return _bad_at(0.5, rows, bad=-1.0)(x)

    concave_log_quad(log_f, -1.0, 1.0)
    assert [len(x) for x in seen] == [N_SCAN, BATCH, 4 * N_SCAN + 1, 2 * N_START - 1, 2 * (N_START - 1),
                                      4 * (N_START - 1)]
    assert seen[1][2] == -3.375 and seen[2][0] == -11.390625


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


def _traced(log_f, lo, hi, tol):
    """concave_log_quad's result, the window of its first refinement call and each call's node count."""
    calls = []

    def traced(x):
        calls.append(x)
        return log_f(x)

    res = concave_log_quad(traced, lo, hi, tol=tol)
    first = next(x for x in calls if len(x) == 2 * N_START - 1)
    return res, float(first[0]), float(first[-1]), [len(x) for x in calls]


def _assert_window_holds_mass(log_f, lo, hi):
    """Nothing outside [lo, hi], within ten widths of it, comes within DROP of the peak inside."""
    span = 10.0 * (hi - lo)
    inside = np.linspace(lo, hi, 20001)
    outside = np.concatenate([np.linspace(lo - span, lo, 2001)[:-1], np.linspace(hi, hi + span, 2001)[1:]])
    with np.errstate(over="ignore"):
        top = float(log_f(inside).max())
        assert float(log_f(outside).max()) <= top - DROP + 1e-6


def _gauss_case(mu, s):
    return (lambda x: -0.5 * ((x - mu) / s) ** 2), mu, s, s * math.sqrt(2.0 * math.pi)


def _gamma_case(a):
    return (lambda u: a * u - np.exp(u)), math.log(a), 1.0 / math.sqrt(a), math.gamma(a)


def _ndtr_case(w, s):
    def log_f(x):
        return w * log_ndtr(x / s) - 0.5 * x * x

    # dense trapezoid reference around the peak; the integrand is analytic
    xs = np.linspace(-15.0, 25.0, 40001)
    ys = log_f(xs)
    peak = float(xs[np.argmax(ys)])
    xs = np.linspace(peak - 15.0, peak + 15.0, 30001)
    ys = log_f(xs)
    return log_f, peak, 1.0, float(np.exp(ys - ys.max()).sum() * (xs[1] - xs[0]) * np.exp(ys.max()))


@st.composite
def _concave_cases(draw):
    """(log_f, peak, width, exact) for a Gaussian, a u-space gamma or a log_ndtr sum."""
    kind = draw(st.sampled_from(["gauss", "gamma", "ndtr"]))
    if kind == "gauss":
        return _gauss_case(draw(st.floats(-50.0, 50.0)), draw(st.floats(0.01, 20.0)))
    if kind == "gamma":
        return _gamma_case(draw(st.floats(0.2, 8.0)))
    return _ndtr_case(draw(st.floats(1.0, 1e4)), draw(st.floats(0.3, 3.0)))


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(
    case=_concave_cases(),
    offset=st.sampled_from([0.0, 3.0, -3.0, 50.0, -50.0]),
    half=st.floats(0.5, 4.0),
)
# each family seeded on its peak, where the window is trimmed on the scan
# nodes, and 50 widths away, where a side walks and the trim grid runs
@example(case=_gauss_case(0.0, 1.0), offset=0.0, half=4.0)
@example(case=_gauss_case(0.0, 1.0), offset=50.0, half=4.0)
@example(case=_gamma_case(2.0), offset=0.0, half=4.0)
@example(case=_gamma_case(2.0), offset=50.0, half=4.0)
@example(case=_ndtr_case(100.0, 1.0), offset=0.0, half=4.0)
@example(case=_ndtr_case(100.0, 1.0), offset=50.0, half=4.0)
# the gamma case at a = 1 seeded on [49, 51], where ymax - DROP once rounded
# to ymax; whether the strategy draws it depends on the tests collected
@example(case=(lambda u: u - np.exp(u), 0.0, 1.0, 1.0), offset=50.0, half=1.0)
def test_concave_family_value_and_window(case, offset, half):
    # seeds inside the peak, beside it and far from it, in widths
    log_f, peak, width, exact = case
    tol = 1e-10 * max(1.0, exact)
    center = peak + offset * width
    res, lo, hi, _ = _traced(log_f, center - half * width, center + half * width, tol)
    assert abs(res.value - exact) <= tol
    # nothing outside the window may come within DROP of the peak
    _assert_window_holds_mass(log_f, lo, hi)


def test_falling_side_ends_at_its_concavity_bound():
    # both scan ends of -x^2/2 on [-3, 3] fall outward; each bound lies within
    # the first batch, so no window endpoint is evaluated, and the window is
    # trimmed on the scan nodes, which run above the cutoff out to both ends
    res, lo, hi, sizes = _traced(lambda x: -0.5 * x * x, -3.0, 3.0, 1e-10)
    assert sizes == [N_SCAN, 2 * N_START - 1]
    # the secant through the two outer scan nodes meets 0 - DROP at the end
    x0, x1 = 3.0, 3.0 - 6.0 / (N_SCAN - 1)
    y0, y1 = -0.5 * x0 * x0, -0.5 * x1 * x1
    bound = x0 + (x0 - x1) * (y0 + DROP) / (y1 - y0)
    assert hi == pytest.approx(bound, rel=1e-12) and lo == pytest.approx(-bound, rel=1e-12)
    assert res.value == pytest.approx(math.sqrt(2.0 * math.pi), abs=1e-12)


def test_walking_side_runs_the_trim_grid():
    # the seed [-1, 1] misses the narrow peak at 50: the right side walks two
    # batches of geometric endpoints, too coarse to place the window, so the
    # window is trimmed on the finer grid across the whole walked span
    def log_f(x):
        return -0.5 * ((x - 50.0) / 0.01) ** 2

    res, lo, hi, sizes = _traced(log_f, -1.0, 1.0, 1e-12)
    assert sizes == [N_SCAN, BATCH, BATCH, 4 * N_SCAN + 1, 2 * N_START - 1]
    assert lo < 50.0 < hi and hi - lo < 1.0
    _assert_window_holds_mass(log_f, lo, hi)
    assert res.value == pytest.approx(0.01 * math.sqrt(2.0 * math.pi), rel=1e-12)


def _budget_points():
    """25 limit laws (sigma 1.1 to 3, C 0.01 to 100) and 27 finite-n points on the critical curve."""
    results = [
        limits.two_group_limit(float(c), float(s))
        for s in np.geomspace(1.1, 3.0, 5)
        for c in np.geomspace(0.01, 100.0, 5)
    ]
    for s in (1.2, 1.5, 2.0):
        for c in (0.1, 1.0, 5.0):
            for n2 in (10.0, 1e3, 1e5):
                n1 = scaling.critical_n1(n2, s, c).real_value
                results.append(limits.finite_n_winner(GroupSpec(n1, 1.0), GroupSpec(n2, s)))
    return results


def test_evaluation_budget_on_limits_and_critical_curve():
    evaluations = [r.evaluations for r in _budget_points()]
    assert len(evaluations) == 52
    assert sum(evaluations) / len(evaluations) <= 450


def test_call_budget_on_limits_and_critical_curve(monkeypatch):
    # a log_f call costs as much as hundreds of extra nodes, so the same 52
    # points may not trade nodes for calls: 123 calls, about 2.4 a quadrature
    calls = []

    def counted(log_f, lo, hi, **kwargs):
        def log_f_counted(x):
            calls.append(len(x))
            return log_f(x)

        return concave_log_quad(log_f_counted, lo, hi, **kwargs)

    monkeypatch.setattr(limits, "concave_log_quad", counted)
    assert len(_budget_points()) == 52
    assert len(calls) <= 123


def test_bound_holds_for_every_row():
    # on the right the narrow row tops the envelope at both outer scan nodes,
    # but the wide row falls slowly: a bound from the envelope's secant would
    # end the window near 17 and drop 3% of the wide row's mass
    def log_f(x):
        return np.vstack([-0.5 * x * x, -0.5 * (x / 8.0) ** 2 - 20.0])

    narrow, wide = concave_log_quad(log_f, -3.0, 3.0)
    assert narrow.value == pytest.approx(math.sqrt(2.0 * math.pi), abs=1e-10)
    assert wide.value == pytest.approx(8.0 * math.sqrt(2.0 * math.pi) * math.exp(-20.0), rel=1e-10)


@pytest.mark.parametrize("peak, lo, hi", [(30.0, -3.0, 20.0), (60.0, -1.0, 1.0)])
def test_side_ends_only_where_every_row_falls(peak, lo, hi):
    # the envelope is deep below the peak at 0 at the right seed end (peak 30)
    # or at the first walked endpoint past 9.6 (peak 60), but the second row
    # still rises there, so the side walks on
    def log_f(x):
        return np.vstack([-0.5 * x * x, -0.5 * (x - peak) ** 2])

    for res in concave_log_quad(log_f, lo, hi):
        assert res.value == pytest.approx(math.sqrt(2.0 * math.pi), abs=1e-12)


def _bits(result):
    """A QuadResult as the exact bits of its value and abs_err, and its evaluations."""
    return result.value.hex(), result.abs_err.hex(), result.evaluations


@st.composite
def _batch_rows(draw):
    """A log-integrand and seed window: a limit law, a finite-n law, either one off its peak, or one that fails."""
    kind = draw(st.sampled_from(["limit", "finite_n"] * 4 + ["nan", "inf"]))
    if kind == "limit":
        alpha = 1.0 / draw(st.floats(1.05, 20.0)) ** 2
        k = draw(st.floats(-30.0, 30.0))
        # the library's seed window rarely ends its left side at the scan; 45 more to the left does
        lo, hi = min(0.0, k / alpha) - draw(st.sampled_from([8.0, 53.0])), 8.0

        def log_f(u):
            return 0.0 + u - (np.exp(u) + np.exp(alpha * u - k))
    else:
        n1 = draw(st.sampled_from([1.0, 1.5]) | st.floats(0.0, 30.0).map(lambda e: 10.0**e))
        n2 = draw(st.floats(0.0, 12.0).map(lambda e: 10.0**e))
        log_pref, s_k, terms, lo, hi = limits._finite_n_parts(GroupSpec(n1, 1.0), (GroupSpec(n2, draw(st.floats(1.1, 3.0))),))
        log_f = limits._finite_n_log_f(log_pref, s_k, [(w, s) for w, s in terms if w != 0.0])
        if kind != "finite_n":  # fails on the right half of the scan, or on a sliver between two scan nodes
            a, b = (lo + (hi - lo) * t / (N_SCAN - 1) for t in draw(st.sampled_from([(32.0, 1e9), (32.25, 32.75)])))
            bad = math.nan if kind == "nan" else math.inf
            log_f = (lambda f: lambda x: np.where((x > a) & (x < b), bad, f(x)))(log_f)
    # a seed window shifted a little may end a side at its secant bound; shifted far, it walks
    shift = draw(st.sampled_from([0.0] * 4 + [-4.0, 3.0, 6.0, -40.0, 25.0, 300.0]))
    return log_f, lo + shift, hi + shift


def _scan_leaves(ys):
    """Whether a row whose seed scan gave ``ys`` leaves the batch: a finite peak, and a side the scan does not end."""
    top = ys.max()
    if not np.isfinite(top):
        return False
    return not all(ys[e] - top <= -DROP and (ys[e] < ys[i] or ys[e] == -math.inf) for e, i in ((0, 1), (-1, -2)))


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(rows=st.lists(_batch_rows(), min_size=1, max_size=6))
def test_batch_rows_equal_their_own_calls(rows):
    with np.errstate(over="ignore", under="ignore"):  # as the limit laws' own calls run
        own = []
        for log_f, lo, hi in rows:
            scans = []

            def recorded(x, log_f=log_f):
                scans.append(np.asarray(log_f(x)))
                return scans[-1]

            try:
                result = _bits(concave_log_quad(recorded, lo, hi))
            except QuadratureError as exc:
                result = exc
            own.append((result, _scan_leaves(scans[0])))

        def batch_log_f(index, x):
            assert len(index) == len(x)
            return np.array([rows[i][0](nodes) for i, nodes in zip(index.tolist(), x)])

        try:
            batch = _batch_quad(batch_log_f, [r[1] for r in rows], [r[2] for r in rows])
        except (QuadratureError, FloatingPointError):
            # a row that fails in its own call before it would leave the batch fails the batch
            assert any(isinstance(r, QuadratureError) and not left for r, left in own)
            return
    assert not any(isinstance(r, QuadratureError) and not left for r, left in own)
    # a row whose scan does not end its window (it ends a side at its secant bound, or walks)
    # is left for its own call; every other row is its own call's result
    assert [None if left else r for r, left in own] == [None if b is None else _bits(b) for b in batch]
