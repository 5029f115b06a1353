"""Market primitives: kernel closed form, exact sampling, moment factors.

The f and g factors are checked against brute-force Monte-Carlo
conditional expectations (the independent oracle); agreement is required
within 3 standard errors. The truncation direction inside g is pinned by
an oracle state where the alternative (wrong) threshold reading is
hundreds of standard errors off.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horizonopt import (
    MarketParams,
    PathState,
    f_factor,
    g_factor,
    simulate_paths,
    state_price_density,
)
from horizonopt.market import bridge_insert

N_ORACLE = 100_000


class TestMarketParams:
    def test_theta_is_derived(self, market):
        assert market.theta == (0.08 - 0.03) / 0.2

    def test_rejects_bad_volatility(self):
        with pytest.raises(ValueError):
            MarketParams(mu=0.08, r=0.03, sigma=0.0)
        with pytest.raises(ValueError):
            MarketParams(mu=float("nan"), r=0.03, sigma=0.2)


class TestHorizonDistribution:
    def test_moments(self, horizon):
        assert horizon.terminal_prob == 0.5
        assert horizon.expected_stop == 10.0
        assert horizon.stop_variance == 4.0
        assert horizon.grid == (8.0, 12.0)

    def test_degenerate_is_allowed(self):
        from horizonopt import HorizonDistribution

        degenerate = HorizonDistribution(dates=[], probs=[], terminal=12.0)
        assert degenerate.terminal_prob == 1.0
        assert degenerate.expected_stop == 12.0

    @pytest.mark.parametrize(
        "dates, probs", [([], []), ([4.0, 8.0], [0.2, 0.3])], ids=["no-date", "two-dates"]
    )
    def test_single_stop_needs_one_interior_date(self, horizon, dates, probs):
        from horizonopt import HorizonDistribution

        assert horizon.single_stop() == (8.0, 0.5)
        with pytest.raises(ValueError, match="one interior"):
            HorizonDistribution(dates, probs, 12.0).single_stop()

    def test_rejects_invalid_distributions(self):
        from horizonopt import HorizonDistribution

        with pytest.raises(ValueError):
            HorizonDistribution(dates=[13.0], probs=[0.5], terminal=12.0)
        with pytest.raises(ValueError):
            HorizonDistribution(dates=[8.0, 5.0], probs=[0.2, 0.2], terminal=12.0)
        with pytest.raises(ValueError):
            HorizonDistribution(dates=[8.0], probs=[1.0], terminal=12.0)
        with pytest.raises(ValueError):
            HorizonDistribution(dates=[4.0, 8.0], probs=[0.6, 0.6], terminal=12.0)


class TestStatePriceDensity:
    def test_unit_at_time_zero(self, market):
        assert state_price_density(market, 0.0, 0.0) == 1.0

    def test_baseline_value(self, market):
        # theta=.25 so the drift is (0.03 + 0.03125) and H_10 = exp(-0.6125)
        got = float(state_price_density(market, 10.0, 0.0))
        assert got == pytest.approx(math.exp(-0.6125), rel=1e-15)

    def test_riskless_market_ignores_brownian(self):
        flat = MarketParams(mu=0.03, r=0.03, sigma=0.2)
        for w in (-3.0, 0.0, 5.0):
            assert float(state_price_density(flat, 7.0, w)) == pytest.approx(
                math.exp(-0.03 * 7.0), rel=1e-15
            )

    def test_decreasing_in_w_for_positive_theta(self, market):
        values = state_price_density(market, 4.0, np.linspace(-2, 2, 9))
        assert np.all(np.diff(values) < 0)

    def test_path_state_invariant(self, market):
        state = PathState.from_brownian(market, 3.0, 0.7)
        state.check(market)
        with pytest.raises(ValueError, match="inconsistent"):
            PathState(t=3.0, w=0.7, h=state.h * (1 + 1e-9)).check(market)


class TestSimulatePaths:
    def test_terminal_kernel_mean_is_discount_factor(self, market):
        paths = simulate_paths(market, [12.0], N_ORACLE, seed=101)
        h = paths.h[:, 0]
        se = h.std(ddof=1) / math.sqrt(N_ORACLE)
        assert abs(h.mean() - math.exp(-0.03 * 12.0)) < 3 * se

    def test_brownian_moments(self, market):
        paths = simulate_paths(market, [8.0, 12.0], N_ORACLE, seed=102)
        for j, t in enumerate(paths.dates):
            w = paths.w[:, j]
            se_mean = w.std(ddof=1) / math.sqrt(N_ORACLE)
            assert abs(w.mean()) < 3 * se_mean
            centered = w - w.mean()
            se_var = np.sqrt(
                (np.mean(centered**4) - w.var(ddof=1) ** 2) / N_ORACLE
            )
            assert abs(w.var(ddof=1) - t) < 3 * se_var

    def test_kernel_matches_closed_form_everywhere(self, market):
        paths = simulate_paths(market, [2.0, 8.0, 12.0], 5_000, seed=103)
        for j, t in enumerate(paths.dates):
            expected = state_price_density(market, t, paths.w[:, j])
            np.testing.assert_allclose(paths.h[:, j], expected, rtol=1e-12)
        paths.path_state(17, 1).check(market)

    def test_rejects_bad_input(self, market):
        with pytest.raises(ValueError):
            simulate_paths(market, [], 10, seed=1)
        with pytest.raises(ValueError):
            simulate_paths(market, [1.0], 0, seed=1)
        with pytest.raises(ValueError):
            simulate_paths(market, [2.0, 1.0], 10, seed=1)

    def test_deterministic_and_worker_invariant(self, market):
        a = simulate_paths(market, [8.0, 12.0], 30_000, seed=7, n_workers=1)
        b = simulate_paths(market, [8.0, 12.0], 30_000, seed=7, n_workers=4)
        assert np.array_equal(a.w, b.w) and np.array_equal(a.h, b.h)
        c = simulate_paths(market, [8.0, 12.0], 30_000, seed=8)
        assert not np.array_equal(a.w, c.w)


class TestFFactor:
    def test_zero_exponent(self, market):
        assert float(f_factor(0.0, 3.0, 9.0, market)) == 1.0

    def test_unit_exponent_is_discounting(self, market):
        assert float(f_factor(1.0, 3.0, 9.0, market)) == pytest.approx(
            math.exp(-0.03 * 6.0), rel=1e-12
        )

    @settings(max_examples=200, deadline=None)
    @given(
        q=st.floats(-2.0, 2.0),
        t=st.floats(0.01, 11.99),
    )
    def test_semigroup_identity(self, market, q, t):
        whole = float(f_factor(q, 0.0, 12.0, market))
        split = float(f_factor(q, 0.0, t, market)) * float(f_factor(q, t, 12.0, market))
        assert abs(whole - split) <= 1e-12 * whole

    @pytest.mark.parametrize("q", [-1.0 / 3.0, 2.0 / 3.0])
    def test_monte_carlo_oracle(self, market, q):
        paths = simulate_paths(market, [10.0], N_ORACLE, seed=104)
        moments = paths.h[:, 0] ** q
        se = moments.std(ddof=1) / math.sqrt(N_ORACLE)
        assert abs(float(f_factor(q, 0.0, 10.0, market)) - moments.mean()) < 3 * se

    def test_rejects_reversed_times(self, market):
        with pytest.raises(ValueError):
            f_factor(1.0, 5.0, 3.0, market)


def _mc_truncated_moment(market, q, t, T, nu, threshold, w_t, n, seed):
    """Brute-force conditional expectation given W_t = w_t."""
    rng = np.random.default_rng(seed)
    w_T = w_t + math.sqrt(T - t) * rng.standard_normal(n)
    h_T = state_price_density(market, T, w_T)
    h_t = float(state_price_density(market, t, w_t))
    sample = (h_T / h_t) ** q * (nu * h_T <= threshold)
    return sample.mean(), sample.std(ddof=1) / math.sqrt(n)


class TestGFactor:
    THRESHOLD = 7.673000090755257e-3  # envelope slope of the baseline contract

    def test_vanishing_multiplier_recovers_f(self, market):
        g = float(g_factor(2 / 3, 2.0, 9.0, market, 1e-290, self.THRESHOLD, 0.3))
        assert g == pytest.approx(float(f_factor(2 / 3, 2.0, 9.0, market)), rel=1e-12)

    def test_huge_multiplier_kills_event(self, market):
        assert float(g_factor(2 / 3, 2.0, 9.0, market, 1e200, self.THRESHOLD, 0.3)) == 0.0
        assert float(g_factor(2 / 3, 2.0, 9.0, market, np.inf, self.THRESHOLD, 0.3)) == 0.0

    def test_bounded_by_f_and_monotone_in_nu(self, market):
        nus = np.geomspace(1e-8, 1e-2, 40)
        g = g_factor(2 / 3, 8.0, 12.0, market, nus, self.THRESHOLD, -25.0)
        f = float(f_factor(2 / 3, 8.0, 12.0, market))
        assert np.all(g >= 0.0) and np.all(g <= f)
        assert np.all(np.diff(g) <= 0.0)

    def test_indicator_convention_at_final_time(self, market):
        w = 0.4
        h = float(state_price_density(market, 12.0, w))
        nu_in = 0.5 * self.THRESHOLD / h
        nu_out = 2.0 * self.THRESHOLD / h
        assert float(g_factor(2 / 3, 12.0, 12.0, market, nu_in, self.THRESHOLD, w)) == 1.0
        assert float(g_factor(2 / 3, 12.0, 12.0, market, nu_out, self.THRESHOLD, w)) == 0.0

    def test_rejects_reversed_times(self, market):
        with pytest.raises(ValueError):
            g_factor(1.0, 9.0, 8.0, market, 1e-5, self.THRESHOLD, 0.0)

    @pytest.mark.parametrize(
        "q,w_t,seed",
        [
            (2.0 / 3.0, 0.0, 201),  # solved-instance state
            (1.0, 0.0, 202),
            (2.0 / 3.0, -26.0, 203),  # mid-CDF state: discriminates the threshold form
            (1.0, -26.0, 204),
            (-1.0 / 3.0, -26.0, 205),
        ],
    )
    def test_monte_carlo_oracle(self, market, q, w_t, seed):
        nu = 1.936925117829079e-05  # fixed-horizon multiplier of the baseline contract
        closed = float(g_factor(q, 8.0, 12.0, market, nu, self.THRESHOLD, w_t))
        mc, se = _mc_truncated_moment(
            market, q, 8.0, 12.0, nu, self.THRESHOLD, w_t, 400_000, seed=seed
        )
        assert abs(closed - mc) < 3 * se

    @pytest.mark.parametrize("w_t,seed", [(0.0, 206), (20.0, 207)])
    def test_monte_carlo_oracle_negative_theta(self, w_t, seed):
        bear = MarketParams(mu=-0.02, r=0.03, sigma=0.2)
        assert bear.theta < 0
        nu = 2e-5
        closed = float(g_factor(2 / 3, 8.0, 12.0, bear, nu, self.THRESHOLD, w_t))
        mc, se = _mc_truncated_moment(
            bear, 2 / 3, 8.0, 12.0, nu, self.THRESHOLD, w_t, 400_000, seed=seed
        )
        assert abs(closed - mc) < 3 * se

    def test_zero_theta_market(self):
        flat = MarketParams(mu=0.03, r=0.03, sigma=0.2)
        f = float(f_factor(0.5, 1.0, 4.0, flat))
        h4 = math.exp(-0.03 * 4.0)
        inside = float(g_factor(0.5, 1.0, 4.0, flat, 0.5 / h4, 1.0, 0.0))
        outside = float(g_factor(0.5, 1.0, 4.0, flat, 2.0 / h4, 1.0, 0.0))
        assert inside == pytest.approx(f, rel=1e-15)
        assert outside == 0.0


class TestBridgeInsert:
    def test_inserted_column_has_bridge_law(self, market):
        paths = simulate_paths(market, [8.0, 12.0], N_ORACLE, seed=107)
        refined = bridge_insert(paths, 10.0, seed=107)
        assert refined.dates == (8.0, 10.0, 12.0)
        w8, w10, w12 = refined.w[:, 0], refined.w[:, 1], refined.w[:, 2]
        np.testing.assert_array_equal(w8, paths.w[:, 0])
        np.testing.assert_array_equal(w12, paths.w[:, 1])
        # increments of the refined grid: var 2 each, independent
        d1, d2 = w10 - w8, w12 - w10
        for d in (d1, d2):
            se = d.std(ddof=1) / math.sqrt(N_ORACLE)
            assert abs(d.mean()) < 3 * se
            centered = d - d.mean()
            se_var = np.sqrt((np.mean(centered**4) - d.var(ddof=1) ** 2) / N_ORACLE)
            assert abs(d.var(ddof=1) - 2.0) < 3 * se_var
        corr = np.corrcoef(d1, d2)[0, 1]
        assert abs(corr) < 3.0 / math.sqrt(N_ORACLE)
        expected_h = state_price_density(market, 10.0, w10)
        np.testing.assert_allclose(refined.h[:, 1], expected_h, rtol=1e-12)

    def test_existing_date_is_noop_and_bad_date_rejected(self, market):
        paths = simulate_paths(market, [8.0, 12.0], 1_000, seed=108)
        assert bridge_insert(paths, 8.0, seed=1) is paths
        with pytest.raises(ValueError):
            bridge_insert(paths, 13.0, seed=1)
