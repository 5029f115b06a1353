"""Contract payoff, concave envelope, tangency point, generalized inverse.

The tangency point is checked against a brute-force construction of the
upper concave hull on a dense grid (the independent oracle), and the
envelope properties are exercised both at the baseline contract and over
random contracts via hypothesis.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from horizonopt import (
    ContractUtility,
    PowerUtility,
    envelope_value,
    inverse_marginal,
    payoff_value,
    subdifferential,
    tangency_point,
)

contract_params = st.tuples(
    st.floats(0.5, 8.0).filter(lambda g: abs(g - 1.0) > 0.05),  # gamma
    st.floats(0.05, 1.0),  # participation
    st.floats(1.0, 200.0),  # threshold
    st.floats(0.1, 20.0),  # guarantee
)


def make_contract(gamma, alpha, b, k) -> ContractUtility:
    return ContractUtility(
        base=PowerUtility(gamma=gamma), participation=alpha, threshold=b, guarantee=k
    )


def hull_tangency(c: ContractUtility, x_max: float = 1e4, n: int = 1_000_000) -> float:
    """Oracle: first strictly positive vertex of the upper concave hull.

    Builds the hull of (x, u(x)) on a dense grid with the monotone-chain
    sweep; the envelope leaves the chord from x = 0 at the tangency point,
    so the vertex after the origin approximates it to grid resolution.
    """
    x = np.linspace(0.0, x_max, n)
    y = payoff_value(c, x)
    hull_x = [x[0]]
    hull_y = [y[0]]
    for xi, yi in zip(x[1:], y[1:]):
        while len(hull_x) >= 2:
            cross = (hull_x[-1] - hull_x[-2]) * (yi - hull_y[-2]) - (
                xi - hull_x[-2]
            ) * (hull_y[-1] - hull_y[-2])
            if cross >= 0.0:  # middle point below the chord: not a hull vertex
                hull_x.pop()
                hull_y.pop()
            else:
                break
        hull_x.append(xi)
        hull_y.append(yi)
    return hull_x[1]


class TestPowerUtility:
    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            PowerUtility(gamma=1.0)
        with pytest.raises(ValueError):
            PowerUtility(gamma=0.0)

    def test_marginal_inverse_round_trip(self):
        u = PowerUtility(gamma=3.0)
        z = np.geomspace(0.01, 100, 25)
        np.testing.assert_allclose(u.inverse_marginal(u.marginal(z)), z, rtol=1e-12)
        np.testing.assert_allclose(u.inverse_value(u.value(z)), z, rtol=1e-12)


class TestPayoffValue:
    def test_baseline_at_threshold(self, contract):
        # participation inactive at x = B: value is U(K) = 1/(1-3) = -0.5
        assert payoff_value(contract, 50.0) == pytest.approx(-0.5, abs=1e-15)

    def test_at_zero_wealth(self, contract):
        assert payoff_value(contract, 0.0) == pytest.approx(-0.5, abs=1e-15)

    def test_negative_wealth_sentinel(self, contract):
        assert payoff_value(contract, -1.0) == float("-inf")
        assert not math.isnan(payoff_value(contract, -1.0))

    def test_flat_then_strictly_increasing(self, contract):
        x = np.linspace(0.0, 50.0, 11)
        np.testing.assert_array_equal(payoff_value(contract, x), np.full(11, -0.5))
        above = payoff_value(contract, np.linspace(50.0, 500.0, 50))
        assert np.all(np.diff(above) > 0)


class TestTangencyPoint:
    def test_against_hull_oracle(self, contract):
        x_hat = tangency_point(contract)
        grid_step = 1e4 / 1_000_000
        assert abs(x_hat - hull_tangency(contract)) <= 2 * grid_step
        assert x_hat > contract.threshold

    def test_tangency_residual(self, contract):
        x_hat = tangency_point(contract)
        z = contract.participation * (x_hat - contract.threshold) + contract.guarantee
        lhs = float(contract.base.value(z) - contract.base.value(contract.guarantee))
        rhs = float(contract.participation * contract.base.marginal(z) * x_hat)
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    def test_degenerate_contract_tangency_vanishes(self):
        for eps in (1e-4, 1e-6, 1e-8):
            c = make_contract(3.0, 1.0, eps, eps)
            assert tangency_point(c) < 20 * eps

    @settings(max_examples=60, deadline=None)
    @given(params=contract_params)
    def test_residual_for_random_contracts(self, params):
        c = make_contract(*params)
        x_hat = tangency_point(c)
        z = c.participation * (x_hat - c.threshold) + c.guarantee
        lhs = float(c.base.value(z) - c.base.value(c.guarantee))
        rhs = float(c.participation * c.base.marginal(z) * x_hat)
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs))


class TestEnvelope:
    def test_boundary_equality(self, contract):
        assert envelope_value(contract, 0.0) == payoff_value(contract, 0.0)

    def test_branches_agree_at_tangency(self, contract):
        x_hat = contract.x_hat
        chord = envelope_value(contract, x_hat)
        direct = payoff_value(contract, x_hat)
        assert abs(chord - direct) <= 1e-10 * abs(direct)

    def test_coincides_with_payoff_above_tangency(self, contract):
        x = 2.0 * contract.x_hat
        assert envelope_value(contract, x) == payoff_value(contract, x)

    def test_negative_wealth_sentinel(self, contract):
        assert envelope_value(contract, -0.5) == float("-inf")

    def test_dominance_and_equality_set(self, contract):
        x = np.linspace(0.0, 4.0 * contract.x_hat, 4001)
        env = envelope_value(contract, x)
        pay = payoff_value(contract, x)
        assert np.all(env >= pay - 1e-12 * np.abs(pay))
        gap = env - pay
        inside = (x > 1e-9) & (x < contract.x_hat * (1 - 1e-9))
        assert np.all(gap[inside] > 0)
        outside = (x < 1e-12) | (x > contract.x_hat * (1 + 1e-9))
        assert np.all(np.abs(gap[outside]) <= 1e-10 * np.maximum(np.abs(pay[outside]), 1))

    def test_linear_on_gap(self, contract):
        x = np.linspace(contract.x_hat * 1e-3, contract.x_hat * 0.999, 1000)
        env = envelope_value(contract, x)
        second = np.diff(env, 2)
        assert np.max(np.abs(second)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(params=contract_params, frac=st.floats(0.0, 4.0))
    # a tangency root on the wrong side of the rounding noise put the chord below u at x_hat
    @example(params=(5.0, 1.0, 1.0, 0.109375), frac=1.0)
    def test_dominance_random(self, params, frac):
        c = make_contract(*params)
        x = frac * c.x_hat
        assert envelope_value(c, x) >= payoff_value(c, x) - 1e-12


class TestSubdifferential:
    def test_singleton_on_gap(self, contract):
        for x in (1e-6, 0.3 * contract.x_hat, contract.x_hat):
            interval = subdifferential(contract, x)
            assert interval.lower == interval.upper == contract.gap_slope

    def test_half_line_at_zero(self, contract):
        interval = subdifferential(contract, 0.0)
        assert interval.lower == contract.gap_slope
        assert interval.upper == math.inf

    def test_positive_and_nonincreasing(self, contract):
        xs = np.linspace(0.0, 6.0 * contract.x_hat, 200)
        lowers = [subdifferential(contract, float(x)).lower for x in xs]
        assert all(m > 0 for m in lowers)
        assert all(a >= b - 1e-15 for a, b in zip(lowers, lowers[1:]))

    def test_subgradient_inequality(self, contract):
        # envelope(y) - envelope(x) <= m (y - x) for every subgradient m
        rng = np.random.default_rng(42)
        xs = rng.uniform(0.0, 4.0 * contract.x_hat, 1000)
        ys = rng.uniform(0.0, 4.0 * contract.x_hat, 1000)
        for x, y in zip(xs, ys):
            m = subdifferential(contract, float(x)).lower
            lhs = envelope_value(contract, y) - envelope_value(contract, x)
            assert lhs <= m * (y - x) + 1e-9

    def test_rejects_negative_wealth(self, contract):
        with pytest.raises(ValueError):
            subdifferential(contract, -1.0)


class TestInverseMarginal:
    def test_at_the_jump_returns_tangency(self, contract):
        # substituting the tangency slope collapses the bracket to x_hat
        got = inverse_marginal(contract, contract.gap_slope)
        assert abs(got - contract.x_hat) <= 1e-10 * contract.x_hat

    def test_just_above_the_jump_returns_zero(self, contract):
        assert inverse_marginal(contract, contract.gap_slope * (1 + 1e-12)) == 0.0

    def test_membership_in_subdifferential(self, contract):
        rng = np.random.default_rng(7)
        ys = contract.gap_slope * np.exp(rng.uniform(-8, 8, 1000))
        for y in ys:
            wealth = inverse_marginal(contract, float(y))
            interval = subdifferential(contract, wealth)
            slack = 1e-12 * y  # power round trip costs a few ulps
            assert interval.lower - slack <= y <= interval.upper + slack

    def test_nonincreasing_and_range(self, contract):
        ys = np.geomspace(contract.gap_slope * 1e-4, contract.gap_slope * 1e4, 500)
        wealth = inverse_marginal(contract, ys)
        assert np.all(np.diff(wealth) <= 0)
        assert np.all((wealth == 0.0) | (wealth >= contract.x_hat))

    def test_rejects_nonpositive_level(self, contract):
        with pytest.raises(ValueError):
            inverse_marginal(contract, 0.0)

    def test_infinite_level_maps_to_zero(self, contract):
        assert inverse_marginal(contract, np.inf) == 0.0


class TestDegenerateLimit:
    def test_converges_to_power_utility(self):
        base = PowerUtility(gamma=3.0)
        xs = np.array([0.5, 1.0, 2.0, 10.0])
        for eps in (1e-3, 1e-5, 1e-7):
            c = make_contract(3.0, 1.0, eps, eps)
            gap = np.abs(payoff_value(c, xs) - base.value(xs))
            assert np.max(gap) < 10 * eps
        assert tangency_point(make_contract(3.0, 1.0, 1e-7, 1e-7)) < 1e-5
