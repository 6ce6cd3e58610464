"""The log-concave trapezoid engine on integrals with known values."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import log_ndtr

from gausswinner import limits, quadrature, scaling
from gausswinner.quadrature import (
    DROP,
    MAX_EXPANSIONS,
    N_SCAN,
    N_START,
    REACH_STEPS,
    TOL,
    QuadratureError,
    _nodes,
    concave_log_quad,
)
from gausswinner.scaling import GroupSpec

import oracles


def test_standard_gaussian_mass(monkeypatch):
    monkeypatch.setattr(quadrature, "TOL", 1e-12)
    res = concave_log_quad(lambda x: -0.5 * x * x, -3.0, 3.0)
    assert res.value == pytest.approx(math.sqrt(2.0 * math.pi), abs=1e-12)
    assert res.abs_err <= 1e-12
    assert res.evaluations > 0


def test_exponential_mass_in_u_space(monkeypatch):
    # int_0^inf e^-y dy = 1 after y = e^u
    monkeypatch.setattr(quadrature, "TOL", 1e-11)
    res = concave_log_quad(lambda u: u - np.exp(u), -10.0, 5.0)
    assert res.value == pytest.approx(1.0, abs=1e-11)


def test_integrable_singularity_gamma_half(monkeypatch):
    # int_0^inf y^{-1/2} e^-y dy = sqrt(pi); singular endpoint absorbed by y = e^u
    monkeypatch.setattr(quadrature, "TOL", 1e-11)
    res = concave_log_quad(lambda u: 0.5 * u - np.exp(u), -60.0, 5.0)
    assert res.value == pytest.approx(math.sqrt(math.pi), abs=1e-10)


def test_peak_far_outside_seed_window(monkeypatch):
    # narrow Gaussian at x = 50; seed window misses it entirely
    monkeypatch.setattr(quadrature, "TOL", 1e-12)
    res = concave_log_quad(lambda x: -0.5 * ((x - 50.0) / 0.01) ** 2, -1.0, 1.0)
    assert res.value == pytest.approx(0.01 * math.sqrt(2.0 * math.pi), rel=1e-9)


def test_tiny_total_mass_absolute_tolerance():
    # integrand peak ~ e^-80: value ~ 4e-35 but still resolved in relative terms
    res = concave_log_quad(lambda x: -0.5 * x * x - 80.0, -5.0, 5.0)
    assert res.value == pytest.approx(math.exp(-80.0) * math.sqrt(2.0 * math.pi), rel=1e-10)


def test_stalled_refinement_raises(monkeypatch):
    # a Gaussian settles at the second level, so only one level is allowed
    monkeypatch.setattr(quadrature, "MAX_LEVELS", 1)
    monkeypatch.setattr(quadrature, "TOL", 1e-13)
    with pytest.raises(QuadratureError) as excinfo:
        concave_log_quad(lambda x: -0.5 * x * x, -5.0, 5.0)
    assert str(excinfo.value) == "trapezoid refinement did not reach tol=1e-13 (last diff inf)"


def test_rejects_nan_integrand():
    with pytest.raises(QuadratureError, match="NaN"):
        concave_log_quad(lambda x: np.where(x > 0, np.nan, -x * x), -5.0, 5.0)


def test_integrand_zero_everywhere_raises():
    with pytest.raises(QuadratureError, match="^integrand is zero everywhere in the resolved window$"):
        concave_log_quad(lambda x: np.full_like(x, -np.inf), -5.0, 5.0)


def test_seed_where_drop_is_below_rounding():
    # u - e^u on [49, 51] is about -2e21, where ymax - DROP rounds to ymax:
    # the window stage once took the seed as resolved and the trim found no node
    res = concave_log_quad(lambda u: u - np.exp(u), 49.0, 51.0)
    assert res.value == pytest.approx(1.0, abs=1e-10)


def test_rejects_bad_window():
    with pytest.raises(ValueError):
        concave_log_quad(lambda x: -x * x, 1.0, 1.0)


def test_rejects_log_f_of_any_other_shape():
    # two rows per node would otherwise be compared as lists, silently
    with pytest.raises(ValueError, match=r"^log_f returned shape \(2, 65\) for 65 nodes, not \(65,\)$"):
        concave_log_quad(lambda x: np.vstack([-x * x, -x * x - 1.0]), -1.0, 1.0)


def test_window_candidates_past_the_kept_endpoint_may_overflow():
    # Gamma(1) = 1 in u-space; the rescan of the grown window reaches where
    # exp(u) overflows, far past the trimmed end, which must not warn
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
            ("0x1.5639eb7770066p-2", "0x1.198a801499eadp-36"),
            ("0x1.c0f2af83f945cp-2", "0x1.1401b0f796a7fp-48"),
            ("0x1.d1a6ca092d682p-3", "0x1.008508d1ef987p-55"),
        ],
    ),
    # two K=3 specs drawn like the benchmark's, named for their run as rows of
    # one shared grid (where a window side walked, and the grid settled at
    # level 3 or 4).  One quadrature per group settles their groups at levels
    # 1 to 4, and no window grows
    "multi_group_limits K=3, walked, level 3": (
        lambda: limits.multi_group_limits(
            limits.LimitSpecK(
                groups=((1, 1), (0.22819626092295814, 1.4777013992694186), (0.2109281961583722, 1.9917463622500362))
            )
        ),
        [
            ("0x1.dd1676e732db0p-3", "0x1.db970006849dep-37"),
            ("0x1.b2f5ac5fe441cp-2", "0x1.a9b000afbeed4p-39"),
            ("0x1.5e7f182c82509p-2", "0x1.0000618571d4fp-46"),
        ],
    ),
    "multi_group_limits K=3, walked, level 4": (
        lambda: limits.multi_group_limits(
            limits.LimitSpecK(
                groups=((1, 1), (1.4095173216084038, 2.2385783348803816), (2.093256384295341, 2.3778578081888107))
            )
        ),
        [
            ("0x1.0164e12b66de0p-1", "0x1.0012522d3bfcbp-53"),
            ("0x1.072fe67f6380dp-2", "0x1.46b28027e6e3bp-37"),
            ("0x1.ec0cae539d86bp-3", "0x1.0099c543c2257p-55"),
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


# stage -> (nodes in the log_f call, index of the bad node) for the seed scan,
# a rescan, a node of level 0 (129 nodes) and of level 1 (128 midpoints) in
# the first refinement call, and a node of the 256 level-2 midpoints
_CALL_NODE = {
    N_SCAN: (N_SCAN, N_SCAN // 2),
    4 * N_SCAN + 1: (4 * N_SCAN + 1, 2 * N_SCAN),
    N_START: (2 * N_START - 1, N_START - 1),
    N_START - 1: (2 * N_START - 1, N_START),
    2 * (N_START - 1): (2 * (N_START - 1), N_START - 1),
}


def _bad_at(stage, bad=np.nan, base=_bent):
    """``base`` with ``bad`` at x == stage, inside a (lo, hi) stage, or at ``_CALL_NODE[stage]``."""

    def log_f(x):
        y = base(x)
        if isinstance(stage, tuple):
            y[(x > stage[0]) & (x < stage[1])] = bad
        elif isinstance(stage, float):
            y[x == stage] = bad
        elif len(x) == _CALL_NODE[stage][0]:
            y[_CALL_NODE[stage][1]] = bad
        return y

    return log_f


# the seed scan, the rescan of the window grown from [-1, 1] (the left side's
# secant bound lies past its reach), levels 0 and 1 (both in the first
# refinement call), the level-2 midpoints, and a sliver between the scan nodes
# 0 and 1/32 that no node reaches before the level-2 midpoints
STAGES = [65, 261, N_START, N_START - 1, 2 * (N_START - 1), (0.01, 0.02)]
# the ids keep the "False-" prefix these one-row cases had while two-row twins
# ran beside them, and the sliver the index it had among eight stages
STAGE_IDS = [f"False-{s}" for s in STAGES[:-1]] + ["False-stage7"]


@pytest.mark.parametrize("stage", STAGES, ids=STAGE_IDS)
def test_nan_raises_at_every_stage(stage):
    with pytest.raises(QuadratureError, match="log integrand returned NaN"):
        concave_log_quad(_bad_at(stage), -1.0, 1.0)


@pytest.mark.parametrize("stage", STAGES, ids=STAGE_IDS)
def test_inf_raises_at_every_stage(stage):
    # +inf used to end in "zero everywhere", an IndexError in the trim, or an
    # invalid-value warning and "did not reach tol" in refinement
    with pytest.raises(QuadratureError, match=r"log integrand returned \+inf"):
        concave_log_quad(_bad_at(stage, bad=np.inf), -1.0, 1.0)


def test_stage_calls_and_window():
    # the calls STAGES is keyed to: scan, one rescan of the window whose left
    # side moved out to its reach, the first refinement call and two midpoint
    # levels
    seen = []

    def log_f(x):
        seen.append(x)
        return _bad_at(0.5, bad=-1.0)(x)

    concave_log_quad(log_f, -1.0, 1.0)
    assert [len(x) for x in seen] == [N_SCAN, 4 * N_SCAN + 1, 2 * N_START - 1, 2 * (N_START - 1), 4 * (N_START - 1)]
    # eight geometric steps out from -1, of 0.5 growing by 1.5
    assert seen[1][0] == -25.62890625


def _indicator_resolving_at(k):
    """0 on [-1, T] and -inf elsewhere, T between the right ends of rescans k - 1 and k from [-1, 1].

    Both ends of the seed scan read 0, so both sides move out to their
    reach; the left end then reads -inf, and the right side moves out again
    after every rescan until its end passes T.
    """
    lo, hi, ends = -1.0, 1.0, [1.0]
    for rescan in range(k):
        for side in (-1, +1) if rescan == 0 else (+1,):
            step, end = (hi - lo) / 4.0, lo if side < 0 else hi
            for _ in range(REACH_STEPS):
                end += side * step
                step *= 1.5
            lo, hi = (end, hi) if side < 0 else (lo, end)
        ends.append(hi)
    t = 0.5 * (ends[-2] + ends[-1])
    return lambda x: np.where((x >= -1.0) & (x <= t), 0.0, -np.inf)


def test_expansion_limit_counts_rescans(monkeypatch):
    # rescan MAX_EXPANSIONS resolves the window; refinement then runs (and,
    # with one level, stops short)
    monkeypatch.setattr(quadrature, "MAX_LEVELS", 1)
    with pytest.raises(QuadratureError, match="trapezoid refinement"):
        concave_log_quad(_indicator_resolving_at(MAX_EXPANSIONS), -1.0, 1.0)
    with pytest.raises(QuadratureError, match="window expansion did not resolve"):
        concave_log_quad(_indicator_resolving_at(MAX_EXPANSIONS + 1), -1.0, 1.0)


def test_evaluations_count_every_node():
    seen = []

    def log_f(x):
        seen.append(len(x))
        return -0.5 * x * x

    res = concave_log_quad(log_f, -1.0, 1.0)
    assert res.evaluations == sum(seen)
    assert 4 * N_SCAN + 1 in seen  # the rescan of the grown window is counted too


def _traced(log_f, lo, hi, tol):
    """concave_log_quad's result at ``TOL = tol``, its first refinement call's window and each call's node count."""
    calls = []

    def traced(x):
        calls.append(x)
        return log_f(x)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quadrature, "TOL", tol)
        res = concave_log_quad(traced, lo, hi)
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
# each family seeded on its peak, where the window is trimmed on the seed
# scan, and 50 widths away, where a side grows and the window is rescanned
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
    # its side's reach, so no side grows and nothing is rescanned, and the
    # window is trimmed on the scan nodes, which run above the cutoff out to
    # both ends
    res, lo, hi, sizes = _traced(lambda x: -0.5 * x * x, -3.0, 3.0, 1e-10)
    assert sizes == [N_SCAN, 2 * N_START - 1]
    # the secant through the two outer scan nodes meets 0 - DROP at the end
    x0, x1 = 3.0, 3.0 - 6.0 / (N_SCAN - 1)
    y0, y1 = -0.5 * x0 * x0, -0.5 * x1 * x1
    bound = x0 + (x0 - x1) * (y0 + DROP) / (y1 - y0)
    assert hi == pytest.approx(bound, rel=1e-12) and lo == pytest.approx(-bound, rel=1e-12)
    assert res.value == pytest.approx(math.sqrt(2.0 * math.pi), abs=1e-12)


def test_growing_side_rescans_the_window():
    # the seed [-1, 1] misses the narrow peak at 50: the right side moves out
    # to its reach twice, and each grown window is rescanned; the second
    # rescan puts a single node within DROP of the peak, so the window trimmed
    # around it is zoomed, scanned again, and trimmed to the peak
    def log_f(x):
        return -0.5 * ((x - 50.0) / 0.01) ** 2

    res, lo, hi, sizes = _traced(log_f, -1.0, 1.0, 1e-12)
    assert sizes == [N_SCAN, 4 * N_SCAN + 1, 4 * N_SCAN + 1, 4 * N_SCAN + 1, 2 * N_START - 1]
    assert lo < 50.0 < hi and hi - lo < 1.0
    _assert_window_holds_mass(log_f, lo, hi)
    assert res.value == pytest.approx(0.01 * math.sqrt(2.0 * math.pi), rel=1e-12)


def _narrow(x):
    """A Gaussian of width 1e-3 at 0.3: on [-1, 1] one seed-scan node lies within DROP of its peak."""
    return -0.5 * ((x - 0.3) / 1e-3) ** 2


def test_narrow_run_is_zoomed():
    # both sides of the seed scan already end, so the window is trimmed to the
    # two scan nodes around the single node above the cutoff and scanned again
    res, lo, hi, sizes = _traced(_narrow, -1.0, 1.0, 1e-10)
    assert sizes == [N_SCAN, 4 * N_SCAN + 1, 2 * N_START - 1]
    assert 0.28125 < lo < 0.3 < hi < 0.34375
    _assert_window_holds_mass(_narrow, lo, hi)
    assert res.value == pytest.approx(1e-3 * math.sqrt(2.0 * math.pi), rel=1e-12)


@pytest.mark.parametrize("bad, message", [(np.nan, "NaN"), (np.inf, r"\+inf")], ids=["nan", "inf"])
def test_bad_value_in_a_zoom_rescan_raises(bad, message):
    with pytest.raises(QuadratureError, match=f"log integrand returned {message}"):
        concave_log_quad(_bad_at(4 * N_SCAN + 1, bad=bad, base=_narrow), -1.0, 1.0)


@pytest.mark.parametrize("mu", [50.0, -50.0, 500.0, 5000.0])
@pytest.mark.parametrize("width", [1e-3, 1e-2, 1.0])
def test_far_or_narrow_peak(mu, width):
    # a seed far from the peak in widths: the window grows, and each run too
    # narrow to place the peak is zoomed, down to widths of 1e-3 at x = 5,000
    log_f, _, _, exact = _gauss_case(mu, width)
    res, lo, hi, _ = _traced(log_f, -1.0, 1.0, TOL)
    assert res.value == pytest.approx(exact, rel=1e-9)
    _assert_window_holds_mass(log_f, lo, hi)


def _walked_cases():
    """(id, log_f, lo, hi, reference) for integrands whose seed window grows."""
    cases = []
    for mu in (50.0, -50.0, 3.0, -3.0, 500.0):
        for width in (0.01, 1.0, 20.0):
            log_f, _, _, exact = _gauss_case(mu, width)
            cases.append((f"gauss-{mu:g}-{width:g}", log_f, -width, width, exact))
    for a in (0.2, 2.0, 8.0):
        log_f, peak, width, exact = _gamma_case(a)
        for offset in (50.0, -50.0):
            c = peak + offset * width
            cases.append((f"gamma-{a:g}-{offset:+g}", log_f, c - 1.0, c + 1.0, exact))
    for w in (10.0, 1e4):
        log_f, _, _, reference = _ndtr_case(w, 1.0)
        for c in (50.0, -50.0):
            cases.append((f"ndtr-{w:g}-{c:+g}", log_f, c - 2.0, c + 2.0, reference))
    return cases


@pytest.mark.parametrize("case", _walked_cases(), ids=lambda case: case[0])
def test_grown_window_values(case):
    _, log_f, lo, hi, reference = case
    assert abs(concave_log_quad(log_f, lo, hi).value - reference) <= 2.0 * TOL


@pytest.mark.parametrize("n2", [1e3, 1e6, 1e9, 1e12])
@pytest.mark.parametrize("sigma", [1.5, 3.0])
def test_grown_window_finite_n(n2, sigma):
    groups = GroupSpec(10, 1.0), GroupSpec(n2, sigma)
    assert abs(limits.finite_n_winner(*groups).value - oracles.mp_finite_n(*groups)) <= 2.0 * TOL


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

    def counted(log_f, lo, hi):
        def log_f_counted(x):
            calls.append(len(x))
            return log_f(x)

        return concave_log_quad(log_f_counted, lo, hi)

    monkeypatch.setattr(limits, "concave_log_quad", counted)
    assert len(_budget_points()) == 52
    assert len(calls) <= 123
