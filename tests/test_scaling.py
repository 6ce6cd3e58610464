"""Norming constants, critical scaling law, kappa, beta, centering gap."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gausswinner.scaling import (
    CriticalSize,
    GroupSpec,
    beta,
    centering_gap,
    critical_n1,
    critical_scale,
    kappa,
    log_critical_scale,
    norming_constants,
)

LOG_4PI = math.log(4.0 * math.pi)
LAST_FINITE_SQUARE = math.sqrt(np.finfo(float).max)  # 1.3407807929942596e154, the largest sigma whose square is finite


class TestNormingConstants:
    def test_n_e_to_e_closed_form(self):
        # log log n = 1 by construction, so both constants collapse
        n = math.exp(math.e)
        nc = norming_constants(n)
        assert nc.a == pytest.approx((2.0 * math.e) ** -0.5, rel=1e-14)
        expected_b = math.sqrt(2.0 * math.e) - (1.0 + LOG_4PI) / (2.0 * math.sqrt(2.0 * math.e))
        assert nc.b == pytest.approx(expected_b, rel=1e-14)

    def test_n_100_frozen(self):
        # 50-digit arithmetic oracle
        nc = norming_constants(100.0)
        assert nc.a == pytest.approx(0.3295051144911304, rel=1e-14)
        assert nc.b == pytest.approx(2.366254792906394, rel=1e-14)

    def test_leading_order_monotonicity(self):
        small, big = norming_constants(1e6), norming_constants(1e12)
        assert big.a < small.a
        assert big.b > small.b

    def test_b_tracks_sqrt_2_log_n(self):
        # exact relative correction at n is (log log n + log 4 pi)/(4 log n),
        # which is 0.0529 at n = 1e12 and shrinking
        dev12 = abs(norming_constants(1e12).b / math.sqrt(2.0 * math.log(1e12)) - 1.0)
        dev6 = abs(norming_constants(1e6).b / math.sqrt(2.0 * math.log(1e6)) - 1.0)
        assert dev12 < 0.06
        assert dev12 < dev6

    @pytest.mark.parametrize("bad", [1.0, 1.99, 0.0, -3.0, math.nan, math.inf])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            norming_constants(bad)


class TestKappa:
    def test_c_equals_sigma(self):
        for s in (1.3, 2.0, 2.7):
            assert kappa(s, s) == pytest.approx(0.5 * (1.0 - 1.0 / s**2) * LOG_4PI, rel=1e-14)

    def test_degenerate_conventions(self):
        assert kappa(0.0, 1.5) == -math.inf
        assert kappa(math.inf, 1.5) == math.inf

    def test_frozen_sigma2_c1(self):
        # 0.25 log(1/2) + 0.375 log(4 pi), 50-digit oracle
        assert kappa(1.0, 2.0) == pytest.approx(0.7758472974734977, rel=1e-14)

    def test_strictly_increasing_in_c(self):
        for s in (1.2, 1.5, 2.0):
            vals = [kappa(c, s) for c in np.geomspace(0.01, 100.0, 25)]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_continuity_at_sigma_one(self):
        for c in (0.1, 0.5, 1.0, 2.0, 10.0):
            assert kappa(c, 1.0 + 1e-6) == pytest.approx(math.log(c), abs=1e-4)
            assert kappa(c, 1.0) == pytest.approx(math.log(c), rel=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            kappa(-1.0, 1.5)
        with pytest.raises(ValueError):
            kappa(1.0, 0.9)


class TestCriticalScale:
    def test_sigma_to_one_collapse(self):
        # exponents collapse to f(n2) = n2
        assert critical_scale(100.0, 1.0 + 1e-12) == pytest.approx(100.0, rel=1e-9)

    def test_frozen_sigma2_2(self):
        # 10^4 / sqrt(log 100), 50-digit oracle
        assert critical_scale(100.0, math.sqrt(2.0)) == pytest.approx(
            4659.906017846561, rel=1e-10
        )

    def test_log_form_matches_direct_power(self):
        # independent route: direct powers, no log-space assembly
        for n2, s in [(1e4, 2.0), (300.0, 1.7), (50.0, 1.2)]:
            direct = n2**(s * s) * math.log(n2) ** (-(s * s - 1.0) / 2.0)
            assert log_critical_scale(n2, s) == pytest.approx(math.log(direct), rel=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            log_critical_scale(1.5, 2.0)
        with pytest.raises(ValueError):
            log_critical_scale(100.0, 1.0)

    @pytest.mark.parametrize("call", [log_critical_scale, critical_scale, lambda n2, s: critical_n1(n2, s, 1.0)])
    def test_sigma_with_an_infinite_square_is_named(self, call):
        # sigma^2 overflows, so log f would read inf - inf = nan
        with pytest.raises(ValueError, match=r"^sigma must be a real > 1 with a finite square, got 1e\+200$"):
            call(100.0, 1e200)

    def test_overflow_is_inf(self):
        # both terms overflow, and their difference alone would be inf - inf = nan
        assert log_critical_scale(1700.0, LAST_FINITE_SQUARE) == math.inf
        assert log_critical_scale(1e300, 1e154) == math.inf
        assert critical_n1(1e300, 1e154, 1.0) == CriticalSize(math.inf, math.inf, None)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(
    n2=st.floats(math.log(2.0), math.log(1e300)).map(math.exp),
    sigma=st.floats(1.0, LAST_FINITE_SQUARE, exclude_min=True),
)
@example(n2=1700.0, sigma=LAST_FINITE_SQUARE)
@example(n2=1e300, sigma=1e154)
def test_critical_size_is_never_nan(n2, sigma):
    assert not math.isnan(log_critical_scale(n2, sigma))
    size = critical_n1(n2, sigma, 1.0)
    assert not any(map(math.isnan, (size.real_value, size.log_value)))


class TestCriticalN1:
    def test_floor_example(self):
        size = critical_n1(100.0, math.sqrt(2.0), 1.0)
        assert size.floor_value == 4659
        assert size.real_value == pytest.approx(4659.906017846561, rel=1e-10)

    def test_sigma_near_one(self):
        size = critical_n1(100.0, 1.0 + 1e-9, 1.0)
        assert size.real_value == pytest.approx(100.0, rel=1e-6)

    def test_frozen_c5_n150_sigma2(self):
        # 5 * 150^4 * (log 150)^{-1.5}, 50-digit oracle
        size = critical_n1(150.0, 2.0, 5.0)
        assert size.real_value == pytest.approx(225681443.40003714, rel=1e-10)

    def test_overflow_marker(self):
        size = critical_n1(1e6, 2.0, 5.0)
        assert size.floor_value is None
        assert size.real_value > 2**53
        assert size.log_value == pytest.approx(
            math.log(5.0) + log_critical_scale(1e6, 2.0), rel=1e-14
        )

    def test_empty_group_error(self):
        with pytest.raises(ValueError, match="empty group"):
            critical_n1(2.0, 3.0, 1e-10)

    def test_domain(self):
        with pytest.raises(ValueError, match=r"^c must be a finite real > 0, got 0\.0$"):
            critical_n1(100.0, 1.5, 0.0)


class TestBeta:
    def test_inverse_of_critical_n1(self):
        for n2 in (10.0, 1e3, 1e8):
            for s in (1.2, 1.5, 2.0):
                for c in (0.1, 1.0, 7.5):
                    n1 = critical_n1(n2, s, c).real_value
                    if not math.isfinite(n1):
                        n1 = math.exp(critical_n1(n2, s, c).log_value)
                    assert beta(n1, n2, s) == pytest.approx(c, rel=1e-12)

    def test_polynomial_size_gives_log_power(self):
        for n2 in (1e2, 1e4):
            s = 1.5
            got = beta(n2 ** (s * s), n2, s)
            assert got == pytest.approx(math.log(n2) ** ((s * s - 1.0) / 2.0), rel=1e-10)

    def test_same_order_sizes_vanish(self):
        vals = [beta(n2, n2, 1.5) for n2 in (1e2, 1e4, 1e6, 1e8)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-6

    def test_domain(self):
        with pytest.raises(ValueError, match=r"^n1 must be a finite real >= 1, got 0\.5$"):
            beta(0.5, 100.0, 1.5)


class TestCenteringGap:
    def test_equal_sizes_sigma_one(self):
        assert centering_gap(1000.0, 1000.0, 1.0) == 0.0

    def test_converges_to_kappa_along_critical_law(self):
        c, s = 1.0, 1.5
        k = kappa(c, s)
        gap_small = centering_gap(critical_n1(1e4, s, c).real_value, 1e4, s)
        gap_big = centering_gap(critical_n1(1e8, s, c).real_value, 1e8, s)
        assert abs(gap_big - k) < 0.2
        assert abs(gap_big - k) < abs(gap_small - k)

    def test_monotone_approach_c1_sigma15(self):
        c, s = 1.0, 1.5
        k = kappa(c, s)
        gaps = [
            abs(centering_gap(critical_n1(n2, s, c).real_value, n2, s) - k)
            for n2 in (1e4, 1e6, 1e8, 1e10, 1e12)
        ]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_same_order_sizes_diverge(self):
        vals = [centering_gap(n2, n2, 1.5) for n2 in (1e4, 1e6, 1e8)]
        assert all(v < -1.0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError, match=r"^sigma must be a finite real >= 1, got 0\.5$"):
            centering_gap(100.0, 100.0, 0.5)


class TestTypes:
    def test_group_spec_validation(self):
        GroupSpec(1.0, 0.5)
        with pytest.raises(ValueError):
            GroupSpec(0.5, 1.0)
        with pytest.raises(ValueError):
            GroupSpec(10.0, 0.0)
        with pytest.raises(ValueError):
            GroupSpec(math.inf, 1.0)
