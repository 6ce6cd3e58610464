"""Special-function accuracy against independent oracles.

The distribution functions are scipy's ``ndtr`` and ``log_ndtr``, which
the package calls directly; they are held to the same oracles as the
package's own quantile kernels.

Frozen literals were produced by the oracles in oracles.py (continued
fraction, power series, bisection) and double-checked in 50-digit
arithmetic; each block states its source.
"""

import math

import numpy as np
import pytest
from scipy.special import log_ndtr, ndtr

from gausswinner.normal import LOG_HALF, std_normal_quantile, upper_tail_quantile

import oracles


def gumbel_cdf(x):
    return np.exp(-np.exp(-x))


class TestStdNormalCdf:
    def test_at_zero(self):
        assert ndtr(0.0) == 0.5

    def test_known_quantile_value(self):
        # root of Phi(x) = 0.975 found by bisection against the series/CF oracle
        assert ndtr(1.959963984540054) == pytest.approx(0.975, abs=1e-15)

    @pytest.mark.parametrize(
        "x, expected",
        [
            (1.0, 0.8413447460685429),   # central series oracle
            (3.0, 0.9986501019683699),
            (-5.0, 2.866515718791939e-07),   # Mills continued-fraction oracle
            (-20.0, 2.7536241186062337e-89),
            (-37.0, 5.725571222523926e-300),
        ],
    )
    def test_frozen_oracle_values(self, x, expected):
        assert ndtr(x) == pytest.approx(expected, rel=1e-14)

    def test_matches_oracle_central(self):
        for x in [-3.5, -2.0, -0.5, 0.7, 2.5, 3.5]:
            ref = oracles.oracle_cdf(x)
            assert ndtr(x) == pytest.approx(ref, rel=1e-14), f"x={x}"

    def test_matches_oracle_deep_tail_in_log_space(self):
        # the naive oracle loses ~|x^2/2| eps relative accuracy through exp,
        # so the deep-tail comparison happens on logs where it is exact
        for x in [-37.0, -30.0, -15.0, -8.0]:
            ref_log = oracles.log_upper_tail_cf(-x)
            assert math.log(ndtr(x)) == pytest.approx(ref_log, abs=1e-12), f"x={x}"

    def test_saturates_at_40(self):
        # upper tail below double-precision resolution: 1 - q with log q ~ -804.6
        assert ndtr(40.0) == 1.0

    def test_symmetry(self):
        xs = np.linspace(-8.0, 8.0, 321)
        assert np.max(np.abs(ndtr(xs) + ndtr(-xs) - 1.0)) <= 1e-15

    def test_strictly_monotone(self):
        xs = np.linspace(-37.0, 8.0, 2001)
        vals = ndtr(xs)
        assert np.all(np.diff(vals) > 0)


class TestLogStdNormalCdf:
    def test_at_zero(self):
        assert log_ndtr(0.0) == pytest.approx(math.log(0.5), abs=1e-16)

    def test_deep_tail_frozen(self):
        # Mills asymptotic oracle: log phi(x) - log|x| + log(1 - 1/x^2 + 3/x^4 - ...)
        assert log_ndtr(-40.0) == pytest.approx(-804.6084420137538, rel=1e-12)
        assert oracles.log_upper_tail_asymptotic(40.0) == pytest.approx(
            -804.6084420137538, rel=1e-13
        )

    def test_moderate_value(self):
        # ln(0.99865...) from the series oracle
        assert log_ndtr(3.0) == pytest.approx(-0.0013508099647481938, abs=1e-12)

    def test_absolute_error_central(self):
        for x in np.linspace(-8.0, 8.0, 33):
            assert abs(log_ndtr(float(x)) - oracles.oracle_log_cdf(float(x))) <= 1e-12

    def test_relative_error_tail(self):
        for x in [-37.0, -50.0, -100.0, -300.0]:
            ref = oracles.log_upper_tail_cf(-x)
            got = log_ndtr(x)
            assert abs(got - ref) <= 1e-10 * abs(ref), f"x={x}"

    def test_positive_side_tracks_tiny_tail(self):
        # log Phi(x) = log1p(-q); q from the continued-fraction oracle
        for x in [6.0, 9.0, 12.0]:
            q = math.exp(oracles.log_upper_tail_cf(x))
            assert log_ndtr(x) == pytest.approx(math.log1p(-q), rel=1e-10)

    def test_monotone(self):
        xs = np.linspace(-300.0, 8.0, 3001)
        assert np.all(np.diff(log_ndtr(xs)) > 0)


class TestStdNormalQuantile:
    def test_median(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_frozen_bisection_values(self):
        # bisection on the oracle CDF
        assert std_normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-12)
        assert std_normal_quantile(math.exp(-1.0)) == pytest.approx(
            -0.33747496376420244, abs=1e-10
        )
        assert oracles.bisect_quantile(0.975) == pytest.approx(1.959963984540054, abs=5e-13)

    def test_round_trip(self):
        grid = np.geomspace(1e-12, 0.5, 100)
        ps = np.concatenate([grid, 1.0 - grid])
        back = ndtr(std_normal_quantile(ps))
        assert np.max(np.abs(back - ps)) <= 1e-12

    def test_tail_position_relative_error(self):
        # oracle in log-q space: the subtraction q = 1 - p is exact for
        # p in [0.5, 1], so the reference has full tail resolution there
        for p in [1e-10, 1e-6, 1e-3]:
            q = 1.0 - (1.0 - p)  # the exact tail mass of the rounded input
            ref = oracles.bisect_log_tail(math.log(q))
            assert std_normal_quantile(1.0 - p) == pytest.approx(ref, rel=1e-10)

    def test_monotone(self):
        ps = np.linspace(1e-9, 1 - 1e-9, 2001)
        assert np.all(np.diff(std_normal_quantile(ps)) > 0)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.1])
    def test_rejects_boundary(self, bad):
        with pytest.raises(ValueError):
            std_normal_quantile(bad)


class TestUpperTailQuantile:
    def test_boundary_is_zero(self):
        assert upper_tail_quantile(LOG_HALF) == 0.0

    def test_frozen_values(self):
        assert upper_tail_quantile(math.log(0.025)) == pytest.approx(
            1.959963984540054, rel=1e-12
        )
        # inverse of the x = 40 tail evaluation
        assert upper_tail_quantile(-804.6084420137538) == pytest.approx(40.0, rel=1e-10)

    def test_deep_tail_against_bisected_oracle(self):
        for log_q in [-50.0, -1000.0, -1e4]:
            ref = oracles.bisect_log_tail(log_q)
            assert upper_tail_quantile(log_q) == pytest.approx(ref, rel=1e-10)

    def test_dense_grid_against_bisected_oracle(self):
        log_qs = -np.geomspace(1e6, -LOG_HALF, 60)
        x = upper_tail_quantile(log_qs)
        for log_q, xi in zip(log_qs, x):
            assert xi == pytest.approx(oracles.bisect_log_tail(log_q), rel=1e-10), log_q

    def test_log_round_trip(self):
        log_qs = -np.geomspace(1e5, -LOG_HALF, 200)
        x = upper_tail_quantile(log_qs)
        back = log_ndtr(-x)
        assert np.max(np.abs(back - log_qs) / np.abs(log_qs)) <= 1e-8

    def test_extreme_round_trip(self):
        x = upper_tail_quantile(-1e6)
        assert log_ndtr(-x) == pytest.approx(-1e6, rel=1e-8)

    def test_monotone_decreasing_in_log_q(self):
        log_qs = np.linspace(-1e5, LOG_HALF, 2001)
        assert np.all(np.diff(upper_tail_quantile(log_qs)) < 0)

    def test_rejects_central_range(self):
        with pytest.raises(ValueError):
            upper_tail_quantile(math.log(0.6))


class TestGumbelCdf:
    def test_frozen_points(self):
        assert gumbel_cdf(0.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert gumbel_cdf(50.0) == 1.0  # 1 - e^-50 at double precision
        assert gumbel_cdf(-math.log(math.log(2.0))) == pytest.approx(0.5, rel=1e-15)

    def test_monotone(self):
        xs = np.linspace(-5.0, 20.0, 2001)
        assert np.all(np.diff(gumbel_cdf(xs)) >= 0)
        core = np.linspace(-3.0, 8.0, 500)
        assert np.all(np.diff(gumbel_cdf(core)) > 0)
