"""Limit-law and finite-n winner probability integrals.

The finite-n values are cross-checked against scipy's adaptive
Gauss-Kronrod integrator, which shares no code with the trapezoid
engine; the sigma^2 = 2 limit integral has a closed form via erfc that
doubles as the Simpson-oracle anchor.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad
from scipy.special import erfc, log_ndtr

import gausswinner.limits as limits_module
from gausswinner.limits import (
    LimitSpecK,
    finite_n_winner,
    multi_group_limits,
    solve_c_for_target,
    two_group_limit,
    two_group_limit_from_kappa,
)
from gausswinner.quadrature import QuadratureError
from gausswinner.scaling import GroupSpec, critical_n1, kappa

import oracles

# 1 - sqrt(pi)/2 * e^{1/4} * erfc(1/2), the kappa = 0, sigma^2 = 2 integral
CLOSED_FORM_K0_S2 = 0.45435863923495295


def scipy_finite_n(n1, s1, n2, s2):
    """Independent finite-n oracle: adaptive Gauss-Kronrod on the same law."""
    log_n1 = math.log(n1)

    def integrand(x):
        lf = (
            n2 * log_ndtr(x / s2)
            + (n1 - 1.0) * log_ndtr(x / s1)
            + log_n1
            - math.log(s1)
            - 0.5 * (x / s1) ** 2
            - 0.5 * math.log(2.0 * math.pi)
        )
        return math.exp(lf)

    value, _ = scipy_quad(integrand, -np.inf, np.inf, epsabs=1e-13, epsrel=1e-13, limit=400)
    return value


def each_wins(groups):
    """P(group k wins) for every k: ``finite_n_winner`` with group k first, the others in order."""
    return [finite_n_winner(g, *groups[:k], *groups[k + 1:]) for k, g in enumerate(groups)]


class TestTwoGroupFromKappa:
    def test_kappa_zero_sigma_one(self):
        res = two_group_limit_from_kappa(0.0, 1.0)
        assert res.value == pytest.approx(0.5, abs=1e-10)
        assert res.abs_err <= 1e-10

    def test_closed_form_sigma2_2(self):
        assert 1.0 - math.sqrt(math.pi) / 2.0 * math.exp(0.25) * erfc(0.5) == pytest.approx(
            CLOSED_FORM_K0_S2, rel=1e-15
        )
        res = two_group_limit_from_kappa(0.0, math.sqrt(2.0))
        assert res.value == pytest.approx(CLOSED_FORM_K0_S2, abs=1e-10)

    def test_simpson_oracle_agrees(self):
        # substitution u = sqrt(y) makes the integrand smooth for Simpson
        val = oracles.simpson(lambda u: 2.0 * u * math.exp(-u * u - u), 0.0, 12.0, 4000)
        assert val == pytest.approx(CLOSED_FORM_K0_S2, abs=1e-10)

    def test_degenerate_conventions(self):
        assert two_group_limit_from_kappa(-math.inf, 1.5).value == 0.0
        assert two_group_limit_from_kappa(math.inf, 1.5).value == 1.0

    def test_rejects_nan_and_bad_sigma(self):
        with pytest.raises(ValueError):
            two_group_limit_from_kappa(math.nan, 1.5)
        with pytest.raises(ValueError):
            two_group_limit_from_kappa(0.0, 0.99)


# the largest sigma whose square is finite; above it 1/sigma^2 underflows to 0
LAST_FINITE_SQUARE = math.sqrt(np.finfo(float).max)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda s: two_group_limit_from_kappa(0.0, s), "sigma must be a real >= 1 with a finite square"),
        (lambda s: two_group_limit(1.0, s), "sigma must be a real > 1 with a finite square"),
        (lambda s: solve_c_for_target(0.5, s), "sigma must be a real > 1 with a finite square"),
        (lambda s: LimitSpecK(groups=((1.0, 1.0), (1.0, s))), "group 1: sigma must be a real > 1 with a finite square"),
    ],
)
@pytest.mark.parametrize("sigma", [math.nextafter(LAST_FINITE_SQUARE, math.inf), 1e200])
def test_sigma_with_an_infinite_square_is_named(call, message, sigma):
    with pytest.raises(ValueError) as excinfo:
        call(sigma)
    assert str(excinfo.value) == f"{message}, got {sigma}"


def test_sigma_with_a_finite_square_is_accepted():
    # 1/sigma^2 is subnormal, and C no longer moves kappa; the second sigma is
    # the largest whose square is finite
    for sigma in (1e154, 1.3407807929942596e154):
        result = two_group_limit(1.0, sigma)
        assert 0.0 < result.value < 1.0 and result == two_group_limit(2.0, sigma)
        assert LimitSpecK(groups=((1.0, 1.0), (1.0, sigma))).kappas()[1] == kappa(1.0, sigma)


class TestTwoGroupLimit:
    def test_degenerate_endpoints_exact(self):
        zero = two_group_limit(0.0, 2.0)
        one = two_group_limit(math.inf, 2.0)
        assert zero.value == 0.0 and zero.abs_err == 0.0
        assert one.value == 1.0 and one.abs_err == 0.0

    def test_checks_sigma_then_c(self):
        for c, sigma, message in [
            (-1.0, 1.5, "c must lie in [0, +inf], got -1.0"),
            (math.nan, 1.5, "c must lie in [0, +inf], got nan"),
            (-1.0, 0.8, "sigma must be a real > 1 with a finite square, got 0.8"),
        ]:
            with pytest.raises(ValueError) as excinfo:
                two_group_limit(c, sigma)
            assert str(excinfo.value) == message

    def test_symmetric_boundary(self):
        assert two_group_limit(1.0, 1.0 + 1e-9).value == pytest.approx(0.5, abs=1e-6)

    def test_delegates_through_kappa(self):
        for c, s in [(0.3, 1.4), (2.0, 1.8)]:
            assert two_group_limit(c, s).value == two_group_limit_from_kappa(kappa(c, s), s).value

    def test_strictly_increasing_in_c(self):
        for s in (1.2, 1.5, 2.0):
            vals = [two_group_limit(c, s).value for c in (0.01, 0.1, 1.0, 10.0, 100.0)]
            assert all(a < b for a, b in zip(vals, vals[1:])), f"sigma={s}: {vals}"
            assert all(0.0 < v < 1.0 for v in vals)

    def test_gumbel_pair_probability_form(self):
        # numerically integrate P(L1 > s^2 (L2 - k)) over the Gumbel density of L2
        c, s = 1.0, 1.5
        k = kappa(c, s)
        s2 = s * s

        def integrand(x):
            # P(L1 > s2 (x - k)) * gumbel pdf at x
            surv = 1.0 - math.exp(-math.exp(-s2 * (x - k)))
            return surv * math.exp(-x - math.exp(-x))

        ref, _ = scipy_quad(integrand, -10.0, 30.0, epsabs=1e-12, epsrel=1e-12, limit=300)
        assert two_group_limit(c, s).value == pytest.approx(ref, abs=1e-9)


class TestLimitSpecK:
    def test_requires_single_baseline(self):
        with pytest.raises(ValueError, match="baseline"):
            LimitSpecK(groups=((1.0, 1.5), (2.0, 2.0)))
        with pytest.raises(ValueError, match="baseline"):
            LimitSpecK(groups=((1.0, 1.0), (1.0, 1.0)))

    def test_baseline_needs_unit_c(self):
        with pytest.raises(ValueError, match="c = 1"):
            LimitSpecK(groups=((2.0, 1.0), (1.0, 1.5)))

    def test_rejects_bad_groups(self):
        with pytest.raises(ValueError):
            LimitSpecK(groups=((1.0, 1.0), (1.0, 0.9)))
        with pytest.raises(ValueError):
            LimitSpecK(groups=((1.0, 1.0), (0.0, 1.5)))
        with pytest.raises(ValueError, match="^a limit spec needs at least 2 groups$"):
            LimitSpecK(groups=((1.0, 1.0),))

    def test_baseline_index_and_kappas(self):
        spec = LimitSpecK(groups=((0.5, 1.7), (1.0, 1.0)))
        ks = spec.kappas()
        assert ks[1] == 0.0
        assert ks[0] == pytest.approx(kappa(0.5, 1.7), rel=1e-15)


class TestMultiGroupLimits:
    def test_exchangeable_three_groups(self):
        eps = 1e-9
        spec = LimitSpecK(groups=((1.0, 1.0), (1.0, 1.0 + eps), (1.0, 1.0 + eps)))
        res = multi_group_limits(spec)
        for r in res:
            assert r.value == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_k2_reduces_to_two_group(self):
        for c in (0.2, 1.0, 3.0):
            for s in (1.3, 1.8):
                spec = LimitSpecK(groups=((1.0, 1.0), (c, s)))
                parts = multi_group_limits(spec)
                tg = two_group_limit(c, s).value
                assert parts[0].value == pytest.approx(tg, abs=1e-9)
                assert parts[1].value == pytest.approx(1.0 - tg, abs=1e-9)

    def test_sum_to_one_random_specs(self):
        rng = np.random.default_rng(20260808)
        for _ in range(10):
            k = int(rng.integers(2, 6))
            groups = [(1.0, 1.0)] + [
                (float(rng.uniform(0.05, 20.0)), float(rng.uniform(1.01, 3.0)))
                for _ in range(k - 1)
            ]
            res = multi_group_limits(LimitSpecK(groups=tuple(groups)))
            total = sum(r.value for r in res)
            assert total == pytest.approx(1.0, abs=1e-8)
            assert all(-1e-9 <= r.value <= 1.0 + 1e-9 for r in res)

    def test_rejects_infinite_kappa(self):
        # c = inf would make kappa infinite; the spec refuses it when built
        with pytest.raises(ValueError, match="group 1: c must be a finite real > 0, got inf"):
            LimitSpecK(groups=((1.0, 1.0), (math.inf, 1.5)))
        with pytest.raises(ValueError, match="group 2: c must be a finite real > 0, got nan"):
            LimitSpecK(groups=((1.0, 1.0), (2.0, 1.5), (math.nan, 2.0)))

    def test_repeated_sigma_sums_to_one(self):
        spec = LimitSpecK(groups=((1.0, 1.0), (1.0, 1.5), (2.0, 1.5)))
        res = multi_group_limits(spec)
        assert sum(r.value for r in res) == pytest.approx(1.0, abs=1e-8)

    def test_mixed_spec_against_gumbel_mc(self):
        spec = LimitSpecK(groups=((1.0, 1.0), (1.0, 1.5), (2.0, 2.0)))
        res = multi_group_limits(spec)
        kappas = spec.kappas()
        sigmas = [s for _, s in spec.groups]
        rng = np.random.default_rng(7)
        trials = 2_000_000
        z = np.empty((trials, 3))
        for j in range(3):
            u = rng.random(trials)
            u[u == 0.0] = 0.5**53
            z[:, j] = sigmas[j] ** 2 * (-np.log(-np.log(u)) - kappas[j])
        winners = np.argmax(z, axis=1)
        for j in range(3):
            p_hat = float(np.mean(winners == j))
            se = math.sqrt(p_hat * (1.0 - p_hat) / trials)
            assert abs(p_hat - res[j].value) <= 4.0 * se, f"component {j}"


class TestFiniteNWinner:
    def test_single_variables_symmetric(self):
        for s in (1.0, 1.5, 3.0):
            res = finite_n_winner(GroupSpec(1.0, 1.0), GroupSpec(1.0, s))
            assert res.value == pytest.approx(0.5, abs=1e-10)

    def test_exchangeable_closed_form(self):
        for n1, n2 in [(1, 1), (2, 1), (7, 13), (20, 3)]:
            res = finite_n_winner(GroupSpec(n1, 1.0), GroupSpec(n2, 1.0))
            assert res.value == pytest.approx(n1 / (n1 + n2), abs=1e-10)

    def test_against_scipy_quad_oracle(self):
        for n1, s1, n2, s2 in [
            (4659.0, 1.0, 100.0, math.sqrt(2.0)),
            (10.0, 1.0, 10.0, 1.5),
            (250.0, 1.0, 12.0, 2.0),
        ]:
            mine = finite_n_winner(GroupSpec(n1, s1), GroupSpec(n2, s2)).value
            ref = scipy_finite_n(n1, s1, n2, s2)
            assert mine == pytest.approx(ref, abs=1e-9)

    def test_value_clamped_to_unit_interval(self):
        # the unclamped quadrature sum reads 1.0000000000000453 here
        res = finite_n_winner(GroupSpec(1e300, 1.0), GroupSpec(10.0, 2.0))
        assert res.value == 1.0
        assert 0.0 < res.abs_err <= 1e-10

    def test_champion_sigma_far_below_rival(self):
        # the champion's peak is about its own sigma wide, whatever the rival's sigma
        for g1, g2 in [
            (GroupSpec(10, 1.0), GroupSpec(10, 1e8)),
            (GroupSpec(10, 1e-8), GroupSpec(10, 1.0)),
            (GroupSpec(10, 1e-300), GroupSpec(10, 1.0)),
        ]:
            assert finite_n_winner(g1, g2).value == pytest.approx(2.0**-10, abs=1e-6), (g1, g2)

    def test_rival_step_never_returns_a_value(self):
        # the rival's Phi(x/sigma)^10 is a step of width sigma: no value, rather than a wrong one
        for g1, g2 in [
            (GroupSpec(10, 1.0), GroupSpec(10, 1e-8)),
            (GroupSpec(10, 1e-8), GroupSpec(10, 1e-16)),
        ]:
            with pytest.raises(QuadratureError):
                finite_n_winner(g1, g2)

    def test_monotone_in_n1(self):
        vals = [
            finite_n_winner(GroupSpec(n1, 1.0), GroupSpec(50.0, 1.5)).value
            for n1 in (1.0, 10.0, 100.0, 1e4, 1e6)
        ]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_real_valued_sizes(self):
        a = finite_n_winner(GroupSpec(10.0, 1.0), GroupSpec(5.0, 1.5)).value
        b = finite_n_winner(GroupSpec(10.5, 1.0), GroupSpec(5.0, 1.5)).value
        c = finite_n_winner(GroupSpec(11.0, 1.0), GroupSpec(5.0, 1.5)).value
        assert a < b < c

    def test_degenerate_trends(self):
        s = 1.5
        grow = [
            finite_n_winner(GroupSpec(n2 ** (s * s), 1.0), GroupSpec(n2, s)).value
            for n2 in (1e2, 1e4, 1e6)
        ]
        assert all(a < b for a, b in zip(grow, grow[1:]))
        shrink = [
            finite_n_winner(GroupSpec(n2, 1.0), GroupSpec(n2, s)).value
            for n2 in (1e2, 1e4, 1e6)
        ]
        assert all(a > b for a, b in zip(shrink, shrink[1:]))
        assert shrink[-1] < 0.01

    def test_approaches_limit_on_critical_law(self):
        c, s = 1.0, 1.5
        lim = two_group_limit(c, s).value
        n1 = critical_n1(1e8, s, c).real_value
        val = finite_n_winner(GroupSpec(n1, 1.0), GroupSpec(1e8, s)).value
        assert abs(val - lim) < 0.01


class TestFiniteNWinnerMulti:
    def test_identical_groups_uniform(self):
        for res in each_wins([GroupSpec(7.0, 1.3)] * 4):
            assert res.value == pytest.approx(0.25, abs=1e-9)

    def test_components_sum_to_one(self):
        groups = [GroupSpec(10.0, 1.0), GroupSpec(5.0, 1.5), GroupSpec(3.0, 2.0)]
        total = sum(r.value for r in each_wins(groups))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_complement_identity(self):
        g1, g2 = GroupSpec(8.0, 1.0), GroupSpec(6.0, 1.4)
        p1 = finite_n_winner(g1, g2).value
        p2 = finite_n_winner(g2, g1).value
        assert p1 + p2 == pytest.approx(1.0, abs=1e-9)

    def test_needs_a_rival(self):
        with pytest.raises(ValueError, match="need at least 2 groups"):
            finite_n_winner(GroupSpec(2, 1.0))


class TestSolveCForTarget:
    def test_round_trip_at_c_one(self):
        for s in (1.3, 1.8):
            target = two_group_limit(1.0, s).value
            c = solve_c_for_target(target, s)
            assert c == pytest.approx(1.0, rel=1e-6)

    def test_monotone_in_target(self):
        assert solve_c_for_target(0.3, 1.5) < solve_c_for_target(0.7, 1.5)

    def test_hits_target(self):
        c = solve_c_for_target(0.5, 1.5)
        assert two_group_limit(c, 1.5).value == pytest.approx(0.5, abs=1e-8)

    def test_secant_quadrature_count(self, monkeypatch):
        calls = []
        real = limits_module.concave_log_quad
        monkeypatch.setattr(limits_module, "concave_log_quad", lambda *a, **k: calls.append(1) or real(*a, **k))
        targets = [(p, s) for s in (1.2, 1.5, 2.0) for p in (0.1, 0.3, 0.5, 0.7, 0.9)]
        for p, s in targets:
            solve_c_for_target(p, s)
        assert len(calls) <= 8 * len(targets)  # 80 with the secant; bisection took 34 per solve

    def test_unbracketed_target_message(self):
        message = (
            "p_target=0.999999 not bracketed by log C in [-60, 60] "
            "(p(8.76e-27)=2.64e-17, p(1.14e+26)=1)"
        )
        with pytest.raises(ValueError, match=re.escape(message)):
            solve_c_for_target(0.999999, 3.0)

    _LOWER, _UPPER = "0x1.5ae191a99585ap-87", "0x1.79dbc9dc53c66p+86"  # e^-60, e^60
    _NOT_BRACKETED = "not bracketed by log C in [-60, 60] (p(8.76e-27)=2.64e-17, p(1.14e+26)=1)"

    @pytest.mark.parametrize(
        "p, sigma, calls, outcome",
        [
            (0.3, 1.5, [
                "0x1.776db404a2bd5p-5", "0x1.7110d91a85b59p-3", "0x1.d0488cf34f90dp-4",
                "0x1.c458cd6326afdp-4", "0x1.c4ac133253d06p-4", "0x1.c4abf38577baep-4",
            ], "0x1.c4abf38577baep-4"),
            (1e-15, 1.5, [_LOWER], _LOWER),
            (0.999999, 3.0, [_UPPER, _LOWER, _UPPER], "p_target=0.999999 " + _NOT_BRACKETED),
            (1e-30, 3.0, [_LOWER, _LOWER, _UPPER], "p_target=1e-30 " + _NOT_BRACKETED),
            (5e-4, 3.0, [
                _LOWER, _UPPER, "0x1.b102aea31072dp+28", "0x1.120bf3129b699p-29",
                "0x1.c6245d4d8d860p-71", "0x1.2b9187201f8c4p-37", "0x1.fa0a5eee9ef33p-41",
                "0x1.670a0b43c2a65p-42", "0x1.97ce4d21f07a1p-42", "0x1.961554ef9fedbp-42",
                "0x1.9613596f1f79bp-42",
            ], "0x1.9613596f1f79bp-42"),
            (0.0005164590224658606, 2.988906794110941, [
                _LOWER, _UPPER, "0x1.0862e5ec8ee3fp+29", "0x1.2ed66e693085cp-29",
                "0x1.a281919769a5ep-70", "0x1.623a9db1b3dc6p-37", "0x1.3ac0ce3cf8f96p-40",
                "0x1.d1405871a45b2p-42", "0x1.06226306aaf24p-41", "0x1.0521373c437a1p-41",
                "0x1.05202071c6db3p-41",
            ], "0x1.05202071c6db3p-41"),
        ],
    )
    def test_evaluation_sequence_pinned(self, monkeypatch, p, sigma, calls, outcome):
        """Every C the solver evaluates, in order, and its result or error text, to the bit."""
        seen = []
        real = limits_module.two_group_limit
        monkeypatch.setattr(limits_module, "two_group_limit", lambda c, s: seen.append(c.hex()) or real(c, s))
        try:
            result = solve_c_for_target(p, sigma).hex()
        except ValueError as exc:
            result = str(exc)
        assert (seen, result) == (calls, outcome)

    def test_domain(self):
        with pytest.raises(ValueError):
            solve_c_for_target(0.0, 1.5)
        with pytest.raises(ValueError):
            solve_c_for_target(0.5, 1.0)


_PROPERTY = settings(max_examples=25, deadline=None, database=None, derandomize=True)
_SIGMA = st.floats(1.05, 3.0)


class TestHighPrecisionOracle:
    """Values against mpmath quadrature, which shares nothing with the trapezoid rule.

    ``oracles.mp_finite_n`` works at max(30, log10 max n + 25) digits and
    ``oracles.mp_limit_law`` at 30.  ``abs_err`` leaves out rounding, so the
    bound is on the value itself: the largest error measured on these points
    is 1.17e-14, at n1 = 6.3e30, where log Phi's own bias sets it (see the
    ``quadrature`` module docstring); elsewhere it is at most 1.8e-15.
    """

    def test_oracle_reproduces_closed_form(self):
        assert oracles.mp_limit_law(0.0, math.sqrt(2.0)) == pytest.approx(CLOSED_FORM_K0_S2, abs=1e-16)

    @pytest.mark.parametrize("c, sigma", [(1.0, 1.5), (5.0, 2.0)])
    def test_limit_law(self, c, sigma):
        ref = oracles.mp_limit_law(kappa(c, sigma), sigma)
        assert abs(two_group_limit(c, sigma).value - ref) <= 1e-13

    @pytest.mark.parametrize("n1, s1, n2, s2", [(1e6, 1.0, 100.0, 1.5), (3.0, 1.0, 7.0, 1.3)])
    def test_finite_n(self, n1, s1, n2, s2):
        ref = oracles.mp_finite_n(GroupSpec(n1, s1), GroupSpec(n2, s2))
        assert abs(finite_n_winner(GroupSpec(n1, s1), GroupSpec(n2, s2)).value - ref) <= 1e-13

    def test_finite_n_at_large_n1(self):
        # n1 = 6.3e30 on the critical curve at C = 5, sigma = 2, where 30 digits are 1.6e-8 off
        groups = GroupSpec(critical_n1(1e8, 2.0, 5.0).real_value, 1.0), GroupSpec(1e8, 2.0)
        ref = oracles.mp_finite_n(*groups)  # 56 digits; 45, 60 and 90 agree
        assert ref == pytest.approx(0.7577677369021163, abs=1e-16)
        assert abs(finite_n_winner(*groups).value - ref) <= 2e-14

    @pytest.mark.parametrize(
        "groups",
        [
            (GroupSpec(3, 2.0), GroupSpec(10, 1.0), GroupSpec(5, 1.5)),
            (GroupSpec(300, 2.0), GroupSpec(1e6, 1.0), GroupSpec(100, 1.5)),
            (GroupSpec(50, 1.5), GroupSpec(1e4, 1.0), GroupSpec(20, 2.0), GroupSpec(5, 3.0)),
        ],
        ids=["K3_small", "K3_large", "K4"],
    )
    def test_k_groups(self, groups):
        assert abs(finite_n_winner(*groups).value - oracles.mp_finite_n(*groups)) <= 2e-14

    def test_limit_grid_and_finite_n_to_rounding(self):
        # C x sigma over the table's range and two finite-n sizes, all at the rounding level
        errors = {
            ("limit", c, sigma): abs(two_group_limit(c, sigma).value - oracles.mp_limit_law(kappa(c, sigma), sigma))
            for c in (0.1, 1.0, 5.0, 20.0)
            for sigma in (1.1, 1.5, 2.0, 3.0)
        }
        for n1, s1, n2, s2 in [(1e4, 1.0, 100.0, 1.5), (50.0, 1.0, 20.0, 2.0)]:
            value = finite_n_winner(GroupSpec(n1, s1), GroupSpec(n2, s2)).value
            ref = oracles.mp_finite_n(GroupSpec(n1, s1), GroupSpec(n2, s2))
            errors["finite_n", n1, n2] = abs(value - ref)
        worst = max(errors, key=errors.get)
        assert errors[worst] <= 5e-15, (worst, errors[worst])


class TestProperties:
    """Each property over random inputs, and explicitly at corners of its input ranges."""

    @_PROPERTY
    @given(p=st.floats(0.02, 0.98), dp=st.floats(1e-4, 0.5), sigma=_SIGMA)
    @example(p=0.02, dp=0.5, sigma=3.0)
    @example(p=0.98, dp=1e-4, sigma=1.05)  # p_up is capped at 0.99
    def test_solve_round_trips_and_increases_in_p(self, p, dp, sigma):
        c = solve_c_for_target(p, sigma)
        assert abs(two_group_limit(c, sigma).value - p) <= 1e-9
        p_up = min(p + dp, 0.99)
        assert solve_c_for_target(p_up, sigma) > c

    @_PROPERTY
    @given(log_c=st.floats(-6.0, 6.0), step=st.floats(0.05, 3.0), sigma=_SIGMA)
    @example(log_c=-6.0, step=0.05, sigma=3.0)
    @example(log_c=6.0, step=3.0, sigma=1.05)
    def test_two_group_limit_increasing_in_c(self, log_c, step, sigma):
        low = two_group_limit(math.exp(log_c), sigma).value
        high = two_group_limit(math.exp(log_c + step), sigma).value
        assert 0.0 < low < high < 1.0

    @_PROPERTY
    @given(
        rest=st.lists(st.tuples(st.floats(0.05, 20.0), st.floats(1.01, 3.0)), min_size=1, max_size=4),
    )
    @example(rest=[(1.0, 1.5)])
    @example(rest=[(0.05, 1.01), (20.0, 3.0), (1.0, 2.0), (0.05, 3.0)])
    def test_k_group_sums_to_one_and_reduces_at_k2(self, rest):
        parts = multi_group_limits(LimitSpecK(groups=((1.0, 1.0), *rest)))
        assert sum(r.value for r in parts) == pytest.approx(1.0, abs=1e-9)
        if len(rest) == 1:
            (c, s), = rest
            assert parts[0].value == pytest.approx(two_group_limit(c, s).value, abs=1e-9)

    @_PROPERTY
    @given(n1=st.integers(1, 10_000), dn=st.integers(1, 1_000), n2=st.integers(1, 10_000), sigma=_SIGMA)
    @example(n1=1, dn=1, n2=10_000, sigma=3.0)
    @example(n1=10_000, dn=1_000, n2=1, sigma=1.05)
    def test_finite_n_increasing_in_n1(self, n1, dn, n2, sigma):
        low = finite_n_winner(GroupSpec(n1, 1.0), GroupSpec(n2, sigma)).value
        high = finite_n_winner(GroupSpec(n1 + dn, 1.0), GroupSpec(n2, sigma)).value
        assert 0.0 < low < high < 1.0

    @_PROPERTY
    @given(n1=st.integers(1, 10_000), n2=st.integers(1, 10_000), sigma=st.floats(0.1, 10.0))
    @example(n1=1, n2=1, sigma=0.1)
    @example(n1=10_000, n2=1, sigma=10.0)
    def test_finite_n_exchangeable(self, n1, n2, sigma):
        res = finite_n_winner(GroupSpec(n1, sigma), GroupSpec(n2, sigma))
        assert res.value == pytest.approx(n1 / (n1 + n2), abs=1e-10)

    @_PROPERTY
    @given(groups=st.lists(st.tuples(st.floats(1.0, 1e6), st.floats(0.1, 10.0)), min_size=2, max_size=5))
    @example(groups=[(7.0, 1.3), (20.0, 1.3)])  # exchangeable: 7/27 and 20/27
    @example(groups=[(10.0, 0.5), (5.0, 1.0), (3.0, 1.5), (50.0, 2.0), (2.0, 3.0)])
    @example(groups=[(1e6, 1.0), (3.0, 1e3), (40.0, 5.0)])  # sigma spread 1e3
    def test_finite_n_winners_sum_to_one(self, groups):
        parts = each_wins([GroupSpec(n, s) for n, s in groups])
        assert abs(sum(r.value for r in parts) - 1.0) <= len(groups) * 1e-10


def _bits(result):
    return None if result is None else (result.value.hex(), result.abs_err.hex(), result.evaluations)


class TestBatchedRows:
    """A study's batched finite-n values equal their own calls bit for bit."""

    @_PROPERTY
    @given(
        pairs=st.lists(
            st.tuples(st.sampled_from([1.0, 1.5]) | st.floats(0.0, 40.0).map(lambda e: 10.0**e),
                      st.floats(0.0, 12.0).map(lambda e: 10.0**e), _SIGMA),
            min_size=1, max_size=8,
        )
    )
    @example(pairs=[(1.0, 5.0, 1.5), (6.3e30, 1e8, 2.0), (2.0, 1.0, 1.05), (1.0, 1e6, 2.0), (1e4, 30.0, 1.2)])
    def test_finite_n_rows(self, pairs):
        # a champion below size 2 (size 1 has a zero power) is left to its own call, as its seed
        # scan ends no right side; the large champions stay in the batch
        groups = [(GroupSpec(n1, 1.0), GroupSpec(n2, s)) for n1, n2, s in pairs]
        batch = limits_module._finite_n_rows(groups)
        own = [finite_n_winner(*g) for g in groups]
        assert [_bits(b) for b in batch] == [None if b is None else _bits(r) for b, r in zip(batch, own)]

    def test_rows_of_a_failing_batch_are_left_to_their_own_calls(self, monkeypatch):
        def fails(log_f, lo, hi, *, tol):
            raise QuadratureError("a batch failed")

        monkeypatch.setattr(limits_module, "_batch_quad", fails)
        assert limits_module._finite_n_rows([(GroupSpec(10, 1.0), GroupSpec(5, 1.5))] * 2) == [None, None]
