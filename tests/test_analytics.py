"""Stopped-wealth statistics: expected utility, certainty equivalent,
variance, and the fixed-horizon comparison.

The expected-utility estimate is validated against an independent-seed
re-solve (same estimand, fresh draws); orderings are asserted only beyond
3 standard errors of paired differences.
"""

from __future__ import annotations

import csv
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horizonopt import (
    HorizonDistribution,
    ProblemSpec,
    SimulatedPaths,
    certainty_equivalent,
    compare_to_fixed,
    expected_utility,
    fixed_horizon_wealth,
    martingale_regression,
    mean_se,
    paired_ce_diff,
    payoff_value,
    solve_uncertain_horizon,
    stopped_samples,
    stopped_variance,
    stratified_dates,
)
from horizonopt.analytics import StoppedSampleSet
from horizonopt.cli import run

SEED = 909


def make_set(dates, wealth) -> StoppedSampleSet:
    return StoppedSampleSet(
        dates=np.asarray(dates, dtype=float), wealth=np.asarray(wealth, dtype=float)
    )


class TestStoppedSamples:
    def test_stratified_frequencies(self, spec, small_solution):
        sset = stopped_samples(spec, small_solution)
        early = float(np.mean(sset.dates == 8.0))
        # exact stratification: off only through integer rounding
        assert abs(early - 0.5) <= 1.0 / sset.n
        se = math.sqrt(0.5 * 0.5 / sset.n)
        assert abs(early - 0.5) < 3 * se

    def test_samples_align_with_solution_paths(self, spec, small_solution):
        sset = stopped_samples(spec, small_solution)
        k = int(round(0.5 * small_solution.n_paths))
        np.testing.assert_array_equal(sset.wealth[:k], small_solution.wealth_T1[:k])
        np.testing.assert_array_equal(sset.wealth[k:], small_solution.wealth_T[k:])


    @pytest.mark.parametrize(
        "other_horizon",
        [HorizonDistribution([], [], 12.0), HorizonDistribution([4.0, 8.0], [0.25, 0.25], 12.0)],
        ids=["no-date", "two-dates"],
    )
    def test_needs_one_interior_date(self, spec, small_solution, other_horizon):
        other = dataclasses.replace(spec, horizon=other_horizon)
        with pytest.raises(ValueError, match="one interior"):
            stopped_samples(other, dataclasses.replace(small_solution, spec=other))


class TestSolutionSpec:
    @pytest.mark.parametrize(
        "other_horizon",
        [HorizonDistribution([8.0], [0.9], 12.0), HorizonDistribution([4.0, 8.0], [0.2, 0.3], 12.0)],
        ids=["p=0.9", "three-dates"],
    )
    def test_foreign_spec_is_rejected(self, spec, small_solution, other_horizon):
        other = dataclasses.replace(spec, horizon=other_horizon)
        t_tilde = other_horizon.expected_stop
        calls = [
            lambda: stopped_samples(other, small_solution),
            lambda: compare_to_fixed(other, small_solution, t_tilde),
            lambda: fixed_horizon_wealth(other, small_solution, t_tilde),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="solution.spec"):
                call()

    def test_equal_spec_is_accepted(self, spec, small_solution):
        copy = ProblemSpec(spec.market, spec.contract, HorizonDistribution([8.0], [0.5], 12.0), 100)
        assert copy is not spec
        np.testing.assert_array_equal(
            stopped_samples(copy, small_solution).wealth, stopped_samples(spec, small_solution).wealth
        )


class TestStratifiedDates:
    THREE_DATES = HorizonDistribution([4.0, 8.0], [0.3, 0.25], 12.0)

    @pytest.mark.parametrize("n", [1, 2, 7, 19, 1000, 10_001])
    def test_exact_counts_over_three_dates(self, n):
        dates = stratified_dates(self.THREE_DATES, n)
        assert dates.size == n
        assert np.all(np.diff(dates) >= 0.0)
        counts = np.array([np.sum(dates == t) for t in self.THREE_DATES.grid])
        ideal = np.array(self.THREE_DATES.all_probs) * n
        assert np.all(np.abs(counts - ideal) < 1.0)

    def test_largest_remainder_wins(self):
        # 7 * (0.3, 0.25, 0.45) = (2.1, 1.75, 3.15): floors (2, 1, 3), one
        # path left, and it goes to the largest fractional part 0.75
        dates = stratified_dates(self.THREE_DATES, 7)
        assert [int(np.sum(dates == t)) for t in self.THREE_DATES.grid] == [2, 2, 3]

    def test_tie_goes_to_the_earlier_date(self):
        dates = stratified_dates(HorizonDistribution([8.0], [0.5], 12.0), 10_001)
        assert int(np.sum(dates == 8.0)) == 5_001

    def test_merton_csv_and_stopped_samples_agree(self, spec, small_solution, tmp_path):
        # p = 1/2 at odd n is the tie case of the rule
        n = 10_001
        paths = small_solution.paths
        sol = dataclasses.replace(
            small_solution,
            paths=SimulatedPaths(paths.params, paths.dates, paths.w[:n], paths.h[:n]),
            wealth_T1=small_solution.wealth_T1[:n],
            wealth_T=small_solution.wealth_T[:n],
        )
        sset = stopped_samples(spec, sol)
        out = tmp_path / "out"
        cfg = tmp_path / "merton.yaml"
        cfg.write_text("experiment: merton\n", encoding="utf-8")
        assert run(str(cfg), out_dir=str(out), n_paths=n, quiet=True) == 0
        with open(out / "solution.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        csv_dates = np.array([float(row["stop_date"]) for row in rows])
        np.testing.assert_array_equal(csv_dates, sset.dates)


class TestStandardErrors:
    def test_mean_se(self):
        x = np.array([1.0, 2.0, 4.0, 9.0])
        result = mean_se(x)
        assert result.value == 4.0
        assert result.se == pytest.approx(np.std(x, ddof=1) / 2.0, rel=1e-15)
        assert mean_se([3.0]) == (3.0, 0.0)

    def test_paired_ce_diff(self, contract, spec, small_solution):
        sset = stopped_samples(spec, small_solution)
        values = payoff_value(contract, sset.wealth)
        same = paired_ce_diff(values, values, contract)
        assert same.value == 0.0 and same.se == 0.0
        shifted = payoff_value(contract, sset.wealth * 1.1)
        diff = paired_ce_diff(shifted, values, contract)
        expected = certainty_equivalent(float(np.mean(shifted)), contract) - certainty_equivalent(
            float(np.mean(values)), contract
        )
        assert diff.value == expected
        assert diff.value > 3 * diff.se > 0.0


class TestExpectedUtility:
    def test_all_zero_wealth_gives_guarantee_utility(self, contract):
        sset = make_set([8.0] * 64, [0.0] * 64)
        eu = expected_utility(sset, contract)
        assert eu.value == -0.5 and eu.se == 0.0

    def test_wealth_at_threshold_gives_guarantee_utility(self, contract):
        sset = make_set([12.0] * 64, [50.0] * 64)
        assert expected_utility(sset, contract).value == -0.5

    def test_rejects_negative_wealth(self, contract):
        with pytest.raises(ValueError, match="negative"):
            expected_utility(make_set([8.0, 8.0], [1.0, -2.0]), contract)

    def test_independent_seed_oracle(self, market, contract):
        # fixed-horizon solve: the multiplier is closed-form calibrated, so
        # expected utility over disjoint draws is a pure iid mean and two
        # seeds must agree within 3 combined SE
        from horizonopt import inverse_marginal, simulate_paths, solve_fixed_horizon

        sp = ProblemSpec(market, contract, HorizonDistribution([], [], 10.0), 100.0)
        nu = solve_fixed_horizon(sp).nu
        estimates = []
        for seed in (SEED, SEED + 1):
            paths = simulate_paths(market, [10.0], 100_000, seed=seed)
            _, h = paths.column(10.0)
            wealth = np.asarray(inverse_marginal(contract, nu * h))
            sset = make_set([10.0] * len(wealth), wealth)
            estimates.append(expected_utility(sset, contract))
        (a, b) = estimates
        assert abs(a.value - b.value) < 3 * math.hypot(a.se, b.se)


class TestCertaintyEquivalent:
    def test_floor_maps_to_threshold(self, contract):
        assert certainty_equivalent(-0.5, contract) == 50.0

    def test_round_trip_at_tangency(self, contract):
        eu = float(payoff_value(contract, contract.x_hat))
        assert certainty_equivalent(eu, contract) == pytest.approx(
            contract.x_hat, rel=1e-10
        )

    def test_round_trip_random_levels(self, contract):
        rng = np.random.default_rng(5)
        floor = -0.5
        eus = floor * rng.uniform(1e-6, 0.999, 1000)  # utilities in (floor, 0)
        for eu in eus:
            ce = certainty_equivalent(float(eu), contract)
            back = float(payoff_value(contract, ce))
            assert abs(back - eu) <= 1e-10 * abs(eu)

    def test_below_floor_is_infeasible(self, contract):
        with pytest.raises(ValueError, match="floor"):
            certainty_equivalent(-0.6, contract)

    @settings(max_examples=100, deadline=None)
    @given(level=st.floats(1e-6, 0.999))
    def test_round_trip_holds_everywhere(self, contract, level):
        eu = -0.5 * level
        ce = certainty_equivalent(eu, contract)
        assert float(payoff_value(contract, ce)) == pytest.approx(eu, rel=1e-10)


class TestStoppedVariance:
    def test_degenerate_samples(self, contract):
        assert stopped_variance(make_set([8.0] * 10, [70.0] * 10)).value == 0.0

    def test_fixed_probability_reduction(self, spec, small_solution):
        # the early and late strata have the documented sizes
        sset = stopped_samples(spec, small_solution)
        var_direct = float(np.var(sset.wealth, ddof=1))
        assert stopped_variance(sset).value == var_direct

    def test_vanishing_probability_reduces_to_terminal_variance(self, market, contract):
        # with round(p n) = 0 early stops the stopped sample is the terminal one
        horizon = HorizonDistribution([8.0], [1e-9], 12.0)
        sp = ProblemSpec(market, contract, horizon, 100.0)
        sol = solve_uncertain_horizon(sp, 20_000, seed=SEED + 4, budget_tol=1e-3)
        sset = stopped_samples(sp, sol)
        assert stopped_variance(sset).value == float(np.var(sol.wealth_T, ddof=1))

    def test_mean_preserving_spread_increases_variance(self, market, contract):
        results = []
        for d in (1.0, 3.0):
            horizon = HorizonDistribution([10.0 - d], [0.5], 10.0 + d)
            sp = ProblemSpec(market, contract, horizon, 100.0)
            sol = solve_uncertain_horizon(sp, 20_000, seed=SEED + 2, budget_tol=1e-3)
            results.append(stopped_samples(sp, sol).wealth)
        narrow, wide = results
        diff = float(np.var(wide, ddof=1) - np.var(narrow, ddof=1))
        influence = (wide - wide.mean()) ** 2 - (narrow - narrow.mean()) ** 2
        se = influence.std(ddof=1) / math.sqrt(len(influence))
        assert diff > 3 * se


class TestCompareToFixed:
    def test_rejects_mismatched_expectation(self, spec, small_solution):
        with pytest.raises(ValueError, match="mean"):
            compare_to_fixed(spec, small_solution, 9.5)

    def test_baseline_orderings(self, spec, small_solution):
        comparison = compare_to_fixed(spec, small_solution, 10.0)
        assert comparison.ce_diff < -3 * comparison.ce_diff_se
        assert comparison.var_diff > 3 * comparison.var_diff_se

    def test_small_stop_probability_shrinks_differences(self, market, contract):
        horizon = HorizonDistribution([8.0], [0.01], 12.0)
        sp = ProblemSpec(market, contract, horizon, 100.0)
        sol = solve_uncertain_horizon(sp, 20_000, seed=SEED + 3, budget_tol=1e-3)
        comparison = compare_to_fixed(sp, sol, horizon.expected_stop)
        assert abs(comparison.ce_diff) < 0.35  # gap is ~1.3 at p = 0.5


class TestMartingaleRegression:
    def test_zero_for_true_martingale(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=50_000)
        increments = rng.normal(size=50_000) * (1.0 + 0.5 * np.abs(x))
        result = martingale_regression(increments, x)
        assert np.all(np.abs(result.tstats) < 3.0)

    def test_detects_conditional_drift(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=50_000)
        increments = 0.05 * x + rng.normal(size=50_000)
        result = martingale_regression(increments, x)
        assert abs(result.tstats[1]) > 3.0
