"""Two-date solver: inner implicit multiplier, outer budget calibration.

Oracles: Monte-Carlo budget checks, a nested simulation for mid-horizon
wealth, finite-difference deltas for the strategy, and the fixed-horizon
solver as the limit oracle for vanishing stopping probability.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from horizonopt import (
    ContractUtility,
    HorizonDistribution,
    MarketParams,
    PathState,
    PowerUtility,
    ProblemSpec,
    g_factor,
    inverse_marginal,
    martingale_regression,
    simulate_paths,
    solve_fixed_horizon,
    solve_inner_nu_T,
    solve_uncertain_horizon,
    state_price_density,
    strategy_at,
    wealth_at,
)
from horizonopt._roots import log_root
from horizonopt.nonconcave import (
    _ROOT_BLOCK,
    ConvergenceError,
    InnerRootError,
    _Continuation,
    _InnerKernel,
)

SEED = 606

# low capital: 6-89% of paths on the zero-wealth branch
ZERO_BRANCH_PROBLEMS = [(3.0, 5.0), (3.0, 20.0), (3.0, 40.0), (0.5, 5.0), (0.5, 20.0), (0.5, 60.0)]

# theta > 0 (baseline), theta = 0 (mu = r) and theta < 0
THETA_MARKETS = [
    MarketParams(mu=0.08, r=0.03, sigma=0.2),
    MarketParams(mu=0.03, r=0.03, sigma=0.2),
    MarketParams(mu=-0.02, r=0.03, sigma=0.2),
]

# two full blocks of _ROOT_BLOCK paths and a ragged one of 7,232
BLOCKED_PATHS = 40_000


def degenerate_contract(eps: float = 1e-8) -> ContractUtility:
    return ContractUtility(
        base=PowerUtility(gamma=3.0), participation=1.0, threshold=eps, guarantee=eps
    )


class TestFixedHorizon:
    def test_budget_residual(self, market, contract):
        spec = ProblemSpec(market, contract, HorizonDistribution([], [], 12.0), 100.0)
        sol = solve_fixed_horizon(spec)
        assert sol.budget_residual <= 1e-10

    def test_degenerate_contract_recovers_merton_multiplier(self, market):
        from horizonopt import f_factor

        spec = ProblemSpec(
            market, degenerate_contract(), HorizonDistribution([], [], 12.0), 100.0
        )
        sol = solve_fixed_horizon(spec)
        merton = (100.0 / float(f_factor(2.0 / 3.0, 0.0, 12.0, market))) ** -3.0
        assert sol.nu == pytest.approx(merton, rel=1e-7)

    def test_monte_carlo_budget(self, market, contract):
        spec = ProblemSpec(market, contract, HorizonDistribution([], [], 12.0), 100.0)
        sol = solve_fixed_horizon(spec)
        paths = simulate_paths(market, [12.0], 100_000, seed=SEED)
        _, h = paths.column(12.0)
        priced = h * np.asarray(inverse_marginal(contract, sol.nu * h))
        se = priced.std(ddof=1) / math.sqrt(len(priced))
        assert abs(priced.mean() - 100.0) < 3 * se

    def test_terminal_wealth_support(self, market, contract):
        spec = ProblemSpec(market, contract, HorizonDistribution([], [], 12.0), 100.0)
        sol = solve_fixed_horizon(spec)
        paths = simulate_paths(market, [12.0], 50_000, seed=SEED + 1)
        _, h = paths.column(12.0)
        wealth = np.asarray(inverse_marginal(contract, sol.nu * h))
        assert np.all((wealth == 0.0) | (wealth >= contract.x_hat))

    def test_interior_mass_rejected_without_explicit_date(self, spec):
        with pytest.raises(ValueError, match="degenerate"):
            solve_fixed_horizon(spec)
        assert solve_fixed_horizon(spec, horizon=12.0).nu > 0


class TestInnerSolve:
    def test_martingale_identity_residual(self, spec, small_solution):
        # the root is the martingale condition itself, rearranged
        sol = small_solution
        live = ~sol.zero_mask
        assert np.nanmax(np.abs(sol.inner_residuals[live])) <= 1e-10

    def test_closed_form_conditional_expectation_matches_wealth(self, spec, small_solution):
        # E[H_T wealth_T | state at T_1] = H_T1 wealth_T1, evaluated in closed form
        sol = small_solution
        live = ~sol.zero_mask
        c = spec.contract
        g_q = g_factor(
            2.0 / 3.0, 8.0, 12.0, spec.market, sol.nu_T[live], c.gap_slope, sol.w_T1[live]
        )
        g_1 = g_factor(1.0, 8.0, 12.0, spec.market, sol.nu_T[live], c.gap_slope, sol.w_T1[live])
        scale = c.participation ** (-2.0 / 3.0)
        shift = c.guarantee / c.participation - c.threshold
        continuation = (
            scale * sol.nu_T[live] ** (-1.0 / 3.0) * sol.h_T1[live] ** (-1.0 / 3.0) * g_q
            - shift * g_1
        )
        np.testing.assert_allclose(continuation, sol.wealth_T1[live], rtol=1e-10)

    def test_monotone_in_constant(self, spec):
        paths = simulate_paths(spec.market, [8.0, 12.0], 10_000, seed=SEED + 2)
        w1, h1 = paths.column(8.0)
        base = solve_inner_nu_T(h1, w1, 2.6e-5, spec)
        for factor in (1.1, 1.5, 2.0):
            bumped = solve_inner_nu_T(h1, w1, 2.6e-5 * factor, spec)
            both = np.isfinite(base) & np.isfinite(bumped)
            assert np.all(bumped[both] >= base[both])

    def test_scalar_interface_and_consistency_check(self, spec, small_solution):
        sol = small_solution
        i = 42
        nu = solve_inner_nu_T(float(sol.h_T1[i]), float(sol.w_T1[i]), sol.c_star, spec)
        assert nu == pytest.approx(float(sol.nu_T[i]), rel=0, abs=0)
        with pytest.raises(ValueError, match="inconsistent"):
            solve_inner_nu_T(float(sol.h_T1[i]) * 1.001, float(sol.w_T1[i]), sol.c_star, spec)

    def test_multiplier_agrees_with_wealth_implied_level(self, spec, small_solution):
        # two characterizations of the stop-date multiplier must coincide:
        # the constancy relation and the marginal utility of the wealth it buys
        sol = small_solution
        live = ~sol.zero_mask
        implied = np.asarray(spec.contract.marginal_above(sol.wealth_T1[live])) / sol.h_T1[live]
        np.testing.assert_allclose(implied, sol.nu_T1[live], rtol=1e-8)

    @pytest.mark.xfail(
        reason="the single-factor closed form for the stop-date multiplier "
        "presumes the stop-date and terminal multipliers coincide, which the "
        "implicit equation contradicts; the multiplier is validated via the "
        "wealth-implied marginal level instead",
        strict=True,
    )
    def test_literal_single_factor_multiplier_formula(self, spec, small_solution):
        sol = small_solution
        live = ~sol.zero_mask
        c = spec.contract
        g_q = g_factor(
            2.0 / 3.0, 8.0, 12.0, spec.market, sol.nu_T[live], c.gap_slope, sol.w_T1[live]
        )
        g_1 = g_factor(1.0, 8.0, 12.0, spec.market, sol.nu_T[live], c.gap_slope, sol.w_T1[live])
        alpha = c.participation
        shift = c.guarantee / alpha - c.threshold
        candidate = (
            -(alpha ** (2.0 / 3.0)) * shift * (1.0 - g_1)
            / (sol.h_T1[live] ** (-1.0 / 3.0) * (1.0 - g_q))
        ) ** -3.0
        np.testing.assert_allclose(candidate, sol.nu_T1[live], rtol=1e-8)


class TestUncertainHorizon:
    def test_budget_and_constancy(self, spec, small_solution):
        sol = small_solution
        assert sol.budget_residual <= 1e-3
        live = ~sol.zero_mask
        combo = 0.5 * sol.nu_T1[live] + 0.5 * sol.nu_T[live]
        assert np.max(np.abs(combo - sol.c_star)) <= 1e-9 * sol.c_star

    def test_wealth_support(self, spec, small_solution):
        sol = small_solution
        x_hat = spec.contract.x_hat
        for wealth in (sol.wealth_T1, sol.wealth_T):
            assert np.all((wealth == 0.0) | (wealth >= x_hat))

    def test_infinite_multiplier_exactly_on_zero_paths(self, spec, small_solution):
        sol = small_solution
        zero_wealth = sol.wealth_T1 == 0.0
        np.testing.assert_array_equal(zero_wealth, ~np.isfinite(sol.nu_T1))
        np.testing.assert_array_equal(zero_wealth, ~np.isfinite(sol.nu_T))

    def test_multiplier_measurable_in_stop_state(self, spec, small_solution):
        # recomputing from (W_T1, H_T1) alone reproduces the stored values
        sol = small_solution
        redo = solve_inner_nu_T(sol.h_T1, sol.w_T1, sol.c_star, spec)
        np.testing.assert_array_equal(redo, sol.nu_T)

    def test_budget_supermartingale_bound(self, spec, small_solution):
        sol = small_solution
        p = 0.5
        priced = p * sol.h_T1 * sol.wealth_T1 + (1 - p) * sol.h_T * sol.wealth_T
        se = priced.std(ddof=1) / math.sqrt(sol.n_paths)
        assert priced.mean() <= spec.x0 + 3 * se
        assert abs(priced.mean() - spec.x0) < 3 * se  # equality at the solution

    def test_outer_budget_monotone_decreasing(self, spec, small_solution):
        # larger multiplier constant always buys less wealth
        kernel = _InnerKernel(spec, small_solution.h_T1, small_solution.w_T1)
        cs = small_solution.c_star * np.array([0.5, 0.8, 1.0, 1.3, 2.0])
        budgets = [kernel.budget(float(c)) for c in cs]
        assert all(a > b for a, b in zip(budgets, budgets[1:]))

    def test_deterministic_given_seed(self, spec):
        a = solve_uncertain_horizon(spec, 10_000, seed=SEED + 3, budget_tol=1e-3)
        b = solve_uncertain_horizon(spec, 10_000, seed=SEED + 3, budget_tol=1e-3)
        assert a.c_star == b.c_star
        np.testing.assert_array_equal(a.nu_T, b.nu_T)
        np.testing.assert_array_equal(a.wealth_T1, b.wealth_T1)

    def test_zero_branch_instance(self, market, contract):
        # starting below the participation threshold forces default states
        poor = ProblemSpec(market, contract, HorizonDistribution([8.0], [0.5], 12.0), 40.0)
        sol = solve_uncertain_horizon(poor, 20_000, seed=SEED + 4, budget_tol=1e-3)
        zero = sol.zero_mask
        assert 0.0 < zero.mean() < 0.5
        assert np.all(sol.wealth_T1[zero] == 0.0)
        assert np.all(sol.wealth_T[zero] == 0.0)
        assert np.all(sol.wealth_T1[~zero] >= contract.x_hat)
        assert sol.budget_residual <= 1e-3
        assert np.nanmax(np.abs(sol.inner_residuals[~zero])) <= 1e-10

    def test_martingale_regression_surrogate(self, spec, small_solution):
        sol = small_solution
        increments = sol.h_T * sol.wealth_T - sol.h_T1 * sol.wealth_T1
        result = martingale_regression(
            increments, np.column_stack([sol.w_T1, sol.h_T1 * sol.wealth_T1])
        )
        assert np.all(np.abs(result.tstats) < 3.0)

    def test_vanishing_stop_probability_limit(self, market, contract):
        # oracle: the fixed-horizon solver. A rich initial capital keeps every
        # path above the tangency wealth at T_1, and the budget target is the
        # sampled price of the oracle claim so that the comparison is free of
        # first-stage Monte-Carlo noise.
        fixed = solve_fixed_horizon(
            ProblemSpec(market, contract, HorizonDistribution([], [], 12.0), 300.0)
        )
        paths = simulate_paths(market, [8.0, 12.0], 20_000, seed=SEED + 5)
        w1, h1 = paths.column(8.0)
        horizon = HorizonDistribution([8.0], [1e-9], 12.0)
        probe = ProblemSpec(market, contract, horizon, 300.0)
        kernel = _InnerKernel(probe, h1, w1)
        target = float(np.mean(h1 * kernel.continuation_value(np.full_like(h1, fixed.nu))))
        spec_limit = ProblemSpec(market, contract, horizon, target)
        sol = solve_uncertain_horizon(spec_limit, 20_000, seed=SEED + 5, budget_tol=1e-3, paths=paths)
        assert not sol.zero_mask.any()
        np.testing.assert_allclose(sol.nu_T, fixed.nu, rtol=1e-6)

    def test_input_validation(self, spec):
        with pytest.raises(ValueError, match="n_paths"):
            solve_uncertain_horizon(spec, 5_000, seed=1)
        with pytest.raises(ValueError, match="budget_tol"):
            solve_uncertain_horizon(spec, 10_000, seed=1, budget_tol=1e-5)
        two_dates = ProblemSpec(
            spec.market,
            spec.contract,
            HorizonDistribution([4.0, 8.0], [0.25, 0.25], 12.0),
            100.0,
        )
        with pytest.raises(ValueError, match="one interior"):
            solve_uncertain_horizon(two_dates, 10_000, seed=1)


class TestCalibration:
    """Checks of the calibrated C that hold for any bracketing root finder."""

    @pytest.mark.parametrize("x0, n_paths, seed", [(100.0, 10_000, 1), (40.0, 20_000, SEED + 4)])
    def test_budget_changes_sign_at_c_star(self, market, contract, horizon, x0, n_paths, seed):
        # baseline, and test_zero_branch_instance's problem
        spec = ProblemSpec(market, contract, horizon, x0)
        sol = solve_uncertain_horizon(spec, n_paths, seed=seed)
        kernel = _InnerKernel(spec, sol.h_T1, sol.w_T1)
        assert kernel.budget(sol.c_star * (1 - 1e-9)) >= x0 >= kernel.budget(sol.c_star * (1 + 1e-9))
        constants = [c for c, _ in sol.bracket_history]
        assert len(set(constants)) == len(constants) == sol.iterations

    @pytest.mark.parametrize("x0, n_paths, seed", [(100.0, 10_000, 1), (40.0, 20_000, SEED + 4)])
    def test_warm_budgets_match_cold_ones(self, market, contract, horizon, x0, n_paths, seed):
        # one kernel keeps roots between calls; a fresh kernel per C starts cold
        spec = ProblemSpec(market, contract, horizon, x0)
        sol = solve_uncertain_horizon(spec, n_paths, seed=seed)
        factors = [2.0, 0.5, 1.01, 0.99, 1.0 + 1e-9, 1.0 - 1e-9]
        np.random.default_rng(seed).shuffle(factors)
        warm = _InnerKernel(spec, sol.h_T1, sol.w_T1)
        for factor in factors:
            c = sol.c_star * factor
            cold = _InnerKernel(spec, sol.h_T1, sol.w_T1).budget(c)
            assert warm.budget(c) == pytest.approx(cold, rel=1e-13, abs=0.0)

    def test_newton_from_wrong_kept_roots_gives_cold_budget(self, spec, small_solution):
        sol = small_solution
        c = sol.c_star
        cold = _InnerKernel(spec, sol.h_T1, sol.w_T1).budget(c)
        kernel = _InnerKernel(spec, sol.h_T1, sol.w_T1)
        kernel.budget(0.5 * c)
        kernel.budget(2.0 * c)
        (c_low, _), (c_high, roots_high) = kernel._low, kernel._high
        assert c_low < c < c_high
        # both kept roots are those of 2c, above every root at c, so each Newton
        # start lies on the wrong side; the budget still equals the cold one bit for bit
        kernel._low = (c_low, roots_high)
        assert kernel.budget(c) == cold

    @pytest.mark.parametrize(
        "x0, n_paths, seed, most", [(100.0, 10_000, 1, 100), (40.0, 20_000, SEED + 4, 400)]
    )
    def test_warm_starts_bound_residual_evaluations(
        self, monkeypatch, market, contract, horizon, x0, n_paths, seed, most
    ):
        # a count, not a timing: Chandrupatla from the cold bracket at every budget
        # took 136 and 854. A call on some of the paths counts as its share of a
        # whole evaluation, and a residual with its slope as 1.5 residuals.
        calls = []

        def counted(name, weight):
            method = getattr(_InnerKernel, name)

            def call(self, log_x, C, claim=None):
                paths = self.h_T1.size if claim is None else claim.h_pow.size
                calls.append(weight * paths / n_paths)
                return method(self, log_x, C, claim)

            monkeypatch.setattr(_InnerKernel, name, call)

        counted("residual", 1.0)
        counted("residual_and_slope", 1.5)
        solve_uncertain_horizon(ProblemSpec(market, contract, horizon, x0), n_paths, seed=seed)
        assert 0 < sum(calls) <= most

    @pytest.fixture
    def newton_steps(self, monkeypatch):
        """The steps of each inner Newton solve, in call order."""
        steps = []
        newton, residual_and_slope = _InnerKernel._newton, _InnerKernel.residual_and_slope

        def counted_newton(self, *args):
            steps.append(0)
            return newton(self, *args)

        def counted_step(self, *args):
            steps[-1] += 1
            return residual_and_slope(self, *args)

        monkeypatch.setattr(_InnerKernel, "_newton", counted_newton)
        monkeypatch.setattr(_InnerKernel, "residual_and_slope", counted_step)
        return steps

    def test_every_newton_solve_takes_few_steps(self, newton_steps, market, contract, horizon):
        # x0 = 5: many roots at the first C lie above the cap of the next, smaller C;
        # started there, Newton in log x would creep away from the cap for 20-odd steps
        solve_uncertain_horizon(ProblemSpec(market, contract, horizon, 5.0), 10_000, seed=1)
        assert newton_steps and max(newton_steps) <= 8

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_tangent_starts_take_few_newton_steps(self, newton_steps, market, contract, p):
        # 10k paths, one block: one Newton solve per budget evaluation, then the
        # final solve from log C. Started from the kept roots alone, the second
        # evaluation took up to 11 steps (p = 0.9); along their tangents, 4.
        spec = ProblemSpec(market, contract, HorizonDistribution([8.0], [p], 12.0), 100.0)
        sol = solve_uncertain_horizon(spec, 10_000, seed=1)
        assert len(newton_steps) == sol.iterations + 1
        assert max(newton_steps[1:-1]) <= 4

    def test_baseline_needs_few_budget_evaluations(self, spec):
        # Newton on the exact slope: 5; the log-2 walk and Chandrupatla took 7
        sol = solve_uncertain_horizon(spec, 10_000, seed=1)
        assert len(sol.bracket_history) <= 5

    @pytest.mark.parametrize("factor", [0.8, 1.0, 1.25])
    def test_budget_slope_is_derivative_of_budget(self, spec, factor):
        # the baseline has no zero-branch path, so the budget is smooth in C
        sol = solve_uncertain_horizon(spec, 10_000, seed=1)
        assert not sol.zero_mask.any()
        c, step = sol.c_star * factor, 1e-5

        def budget(log_c):
            return _InnerKernel(spec, sol.h_T1, sol.w_T1).budget(math.exp(log_c))

        fd = (budget(math.log(c) + step) - budget(math.log(c) - step)) / (2.0 * step)
        value, slope = _InnerKernel(spec, sol.h_T1, sol.w_T1).budget_and_slope(c)
        assert value == _InnerKernel(spec, sol.h_T1, sol.w_T1).budget(c)
        assert slope == pytest.approx(fd, rel=1e-6, abs=0.0)

    @pytest.mark.parametrize(
        "gamma, x0, most",
        [(g, x, n) for (g, x), n in zip(ZERO_BRANCH_PROBLEMS, [43, 36, 25, 37, 36, 34])],
        ids=[f"gamma{g}-x0{x}" for g, x in ZERO_BRANCH_PROBLEMS],
    )
    def test_budget_jumps_cost_no_more_evaluations(self, market, horizon, gamma, x0, most):
        # the counts of the log-2 walk and Chandrupatla alone; Newton leaves the
        # bracket to Chandrupatla when a jump stops it halving the excess
        contract = ContractUtility(PowerUtility(gamma), 0.25, 50.0, 1.0)
        sol = solve_uncertain_horizon(ProblemSpec(market, contract, horizon, x0), 10_000, seed=1)
        assert sol.zero_mask.any()
        assert sol.iterations <= most

    def test_sweep_starts_from_the_previous_c_star(self, market, contract, horizon):
        # figure2-sweep's nine solves on one path set took 67 budget evaluations
        paths = simulate_paths(market, [8.0, 12.0], 10_000, seed=1)
        total, c_start = 0, None
        for p in np.linspace(0.1, 0.9, 9):
            spec = ProblemSpec(market, contract, HorizonDistribution([8.0], [p], 12.0), 100.0)
            swept = solve_uncertain_horizon(spec, 10_000, seed=1, paths=paths, c_start=c_start)
            alone = solve_uncertain_horizon(spec, 10_000, seed=1, paths=paths)
            assert swept.c_star == pytest.approx(alone.c_star, rel=1e-12, abs=0.0)
            total += swept.iterations
            c_start = swept.c_star
        assert total <= 40

    @pytest.mark.parametrize("c_start", [0.0, -1e-5, math.inf, math.nan])
    def test_c_start_must_be_positive_and_finite(self, spec, c_start):
        with pytest.raises(ValueError, match="c_start"):
            solve_uncertain_horizon(spec, 10_000, seed=1, c_start=c_start)

    def test_no_reference_cycle_keeps_the_inner_kernel(self, spec):
        # garbage in a cycle waits for the collector, and the kernel holds
        # per-path arrays; with the collector off none may be left behind
        def kernels():
            return sum(isinstance(o, _InnerKernel) for o in gc.get_objects())

        gc.collect()
        gc.disable()
        try:
            before = kernels()
            solve_uncertain_horizon(spec, 10_000, seed=1)
            after = kernels()
        finally:
            gc.enable()
        assert after == before

    def test_log_root_brackets_from_either_side(self):
        for u0 in (-20.0, 3.0, 40.0):
            u, _ = log_root(lambda u: 5.0 - u, u0, 2.0)
            assert abs(u - 3.0) <= 1e-12

    def test_log_root_without_sign_change_raises(self):
        calls = []

        def value(u):
            calls.append((math.exp(u), math.exp(-u)))
            return calls[-1][1]

        with pytest.raises(ConvergenceError, match="no sign change") as info:
            log_root(value, 0.0, 0.0)
        assert info.value.history == tuple(calls) and len(calls) > 1

    def test_low_capital_budget_step_raises_with_history(self, market, contract, horizon):
        # the budget's step at the marginal path is wider than budget_tol
        spec = ProblemSpec(market, contract, horizon, 5.0)
        with pytest.raises(ConvergenceError, match="budget residual") as info:
            solve_uncertain_horizon(spec, 10_000, seed=1, budget_tol=1e-4)
        history = info.value.history
        assert history and all(c > 0.0 and b >= 0.0 for c, b in history)

    def test_unresolved_inner_root_raises(self, contract, horizon):
        # theta = 4.7: the per-path root is not resolved near the cap C/p
        spec = ProblemSpec(MarketParams(mu=0.5, r=0.03, sigma=0.1), contract, horizon, 100.0)
        with pytest.raises(InnerRootError, match="inner residual"):
            solve_uncertain_horizon(spec, 10_000, seed=1)


class TestBlockedInnerSolve:
    @pytest.fixture(scope="class")
    def kernel(self, spec):
        paths = simulate_paths(spec.market, [8.0, 12.0], BLOCKED_PATHS, SEED)
        w_T1, h_T1 = paths.column(8.0)
        kernel = _InnerKernel(spec, h_T1, w_T1)
        assert [s.stop - s.start for s, _ in kernel._blocks] == [
            _ROOT_BLOCK, _ROOT_BLOCK, BLOCKED_PATHS - 2 * _ROOT_BLOCK
        ]
        return kernel

    def test_blocks_give_the_whole_array_roots(self, spec, kernel):
        whole = copy.copy(kernel)
        whole._blocks = [(slice(0, BLOCKED_PATHS), kernel.claim)]
        c_fixed = solve_fixed_horizon(spec, horizon=12.0).nu
        # every path live, and 2% of them on the zero branch
        for c in (c_fixed, 100.0 * c_fixed):
            cold = kernel._log_roots(c, math.log(c))
            assert cold.tobytes() == whole._log_roots(c, math.log(c)).tobytes()
            start = 0.5 * (kernel._log_roots(0.9 * c, 0.0) + kernel._log_roots(1.1 * c, 0.0))
            warm = kernel._log_roots(c, start)
            assert warm.tobytes() == whole._log_roots(c, start).tobytes()
            np.testing.assert_allclose(warm, cold, rtol=1e-14, atol=0.0)

    def test_slope_does_not_depend_on_workers(self, spec, kernel):
        # more workers than cores, switching threads often; each block sums its own paths
        c_fixed = solve_fixed_horizon(spec, horizon=12.0).nu
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for c in (c_fixed, 100.0 * c_fixed):
                start = kernel._log_roots(0.9 * c, math.log(c))
                results = []
                for n in (1, 2, 4):
                    with ThreadPoolExecutor(n) as pool:
                        pooled = copy.copy(kernel)
                        pooled._map = pool.map
                        results.append(pooled._roots(c, start, tangent=True))
                log_x, du, slope = results[0]
                assert slope < 0.0 and np.all(du[np.isfinite(log_x)] > 0.0)
                assert np.all(du[~np.isfinite(log_x)] == 0.0)
                assert log_x.tobytes() == kernel._log_roots(c, start).tobytes()
                for other in results[1:]:
                    assert other[0].tobytes() == log_x.tobytes()
                    assert other[1].tobytes() == du.tobytes()
                    assert other[2] == slope
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("x0", [100.0, 40.0], ids=["baseline", "zero-branch"])
    def test_solution_does_not_depend_on_workers(self, market, contract, horizon, x0):
        # more workers than cores, switching threads often: each block owns its slices
        spec = ProblemSpec(market, contract, horizon, x0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            solutions = [
                solve_uncertain_horizon(spec, BLOCKED_PATHS, seed=SEED, n_workers=n)
                for n in (1, 2, 4)
            ]
        finally:
            sys.setswitchinterval(interval)
        first = solutions[0]
        if x0 == 40.0:
            assert 0.0 < first.zero_mask.mean() < 1.0
        for sol in solutions[1:]:
            assert sol.c_star == first.c_star
            assert sol.bracket_history == first.bracket_history
            for name in ("nu_T1", "nu_T", "wealth_T1", "wealth_T", "inner_residuals"):
                assert getattr(sol, name).tobytes() == getattr(first, name).tobytes(), name

    def test_worker_solve_leaves_no_kernel_or_thread(self, spec):
        def kernels():
            return sum(isinstance(o, _InnerKernel) for o in gc.get_objects())

        gc.collect()
        gc.disable()
        try:
            before, threads = kernels(), threading.active_count()
            solve_uncertain_horizon(spec, BLOCKED_PATHS, seed=SEED, n_workers=2)
            after = kernels()
        finally:
            gc.enable()
        assert after == before
        assert threading.active_count() == threads

    def test_unresolved_inner_root_raises_with_workers(self, contract, horizon):
        spec = ProblemSpec(MarketParams(mu=0.5, r=0.03, sigma=0.1), contract, horizon, 100.0)
        with pytest.raises(InnerRootError, match="inner residual"):
            solve_uncertain_horizon(spec, BLOCKED_PATHS, seed=1, n_workers=2)


class TestInnerRootBracketing:
    @pytest.mark.parametrize(
        "gamma, x0", ZERO_BRANCH_PROBLEMS, ids=[f"gamma{g}-x0{x}" for g, x in ZERO_BRANCH_PROBLEMS]
    )
    def test_roots_bracket_and_zero_paths_lie_beyond_the_edge(self, market, horizon, gamma, x0):
        contract = ContractUtility(PowerUtility(gamma), 0.25, 50.0, 1.0)
        spec = ProblemSpec(market, contract, horizon, x0)
        sol = solve_uncertain_horizon(spec, 10_000, seed=1)
        kernel = _InnerKernel(spec, sol.h_T1, sol.w_T1)
        live, c = ~sol.zero_mask, sol.c_star
        assert 0 < live.sum() < live.size
        # a sign change within 1e-9 of every live root
        u = np.log(sol.nu_T1[live])
        d = 1e-9 * np.maximum(1.0, np.abs(u))
        claim = kernel.claim.part(np.flatnonzero(live))
        assert np.all(kernel.residual(u - d, c, claim) > 0.0)
        assert np.all(kernel.residual(u + d, c, claim) < 0.0)
        # every zero path still has F > 0 where x H_T1 reaches the envelope slope
        zero = np.flatnonzero(~live)
        assert np.all(kernel.residual(kernel.zero_edge[zero], c, kernel.claim.part(zero)) > 0.0)
        # Newton iterates on live paths only
        seen = []
        residual_and_slope = _InnerKernel.residual_and_slope

        def recorded(self, log_x, C, claim):
            seen.append(claim.h_pow)
            return residual_and_slope(self, log_x, C, claim)

        kernel.residual_and_slope = recorded.__get__(kernel)
        kernel.solve(c)
        assert seen and np.all(np.isin(np.concatenate(seen), kernel.claim.h_pow[live]))

    @pytest.mark.parametrize("market", THETA_MARKETS, ids=["theta>0", "theta=0", "theta<0"])
    @pytest.mark.parametrize("guarantee", [1.0, 20.0], ids=["shift<0", "shift>0"])
    def test_floor_bounds_the_residual(self, horizon, market, guarantee):
        # B = 50 and alpha = 0.25: shift = K/alpha - B changes sign between K = 1 and K = 20
        contract = ContractUtility(PowerUtility(3.0), 0.25, 50.0, guarantee)
        spec = ProblemSpec(market, contract, horizon, 100.0)
        paths = simulate_paths(market, [8.0, 12.0], 400, seed=SEED + 11)
        w, h = paths.column(8.0)
        kernel = _InnerKernel(spec, h, w)
        c = solve_fixed_horizon(spec, horizon=12.0).nu
        lo, hi = kernel._bracket(c)
        for log_x in np.linspace(lo, hi, 40):
            floor = [kernel._floor_at(log_x, c, kernel.claim.part([i])) for i in range(h.size)]
            # near lo both ndtr factors are 1 and the floor equals F up to rounding
            residual = kernel.residual(np.full(h.size, log_x), c)
            residual += 1e-12 * np.abs(residual)
            assert np.all(np.asarray(floor) <= residual)
            assert kernel._floor_at(log_x, c, kernel.claim) <= residual.min()
        # at lo the floor alone proves F > 0, so the residual is not evaluated there
        assert kernel._floor_at(lo, c, kernel.claim) > 0.0

    def test_roots_do_not_depend_on_the_floor(self, monkeypatch, spec):
        paths = simulate_paths(spec.market, [8.0, 12.0], BLOCKED_PATHS, SEED)
        w_T1, h_T1 = paths.column(8.0)
        kernel = _InnerKernel(spec, h_T1, w_T1)
        c_fixed = solve_fixed_horizon(spec, horizon=12.0).nu
        # every path live, and 2% of them on the zero branch
        proven = [kernel._log_roots(c, math.log(c)) for c in (c_fixed, 100.0 * c_fixed)]
        at_lo = []
        residual = _InnerKernel.residual

        def recorded(self, log_x, C, claim=None):
            at_lo.append(np.ndim(log_x) == 0)
            return residual(self, log_x, C, claim)

        monkeypatch.setattr(_InnerKernel, "_floor_at", lambda *args: -math.inf)
        monkeypatch.setattr(_InnerKernel, "residual", recorded)
        for c, roots in zip((c_fixed, 100.0 * c_fixed), proven):
            assert kernel._log_roots(c, math.log(c)).tobytes() == roots.tobytes()
        assert sum(at_lo) == 2 * len(kernel._blocks)


class TestContinuation:
    """The one priced-continuation kernel against the g_factor oracle."""

    @staticmethod
    def oracle(spec, t, nu, w, h):
        c = spec.contract
        q = 2.0 / 3.0
        scale = c.participation ** (-q)
        shift = c.guarantee / c.participation - c.threshold
        g_q = g_factor(q, t, 12.0, spec.market, nu, c.gap_slope, w)
        g_1 = g_factor(1.0, t, 12.0, spec.market, nu, c.gap_slope, w)
        return scale * nu ** (-1.0 / 3.0) * h ** (-1.0 / 3.0) * g_q - shift * g_1

    @staticmethod
    def states(contract, market, t, n=400):
        paths = simulate_paths(market, [t], n, seed=SEED + 9)
        w, h = paths.column(t)
        # nu h_t on both sides of the gap slope, never exactly on it (where
        # the indicator's tie is a matter of rounding)
        nu = contract.gap_slope / h * np.exp(np.linspace(-2.05, 0.95, n))
        return w, h, nu

    @pytest.mark.parametrize("market", THETA_MARKETS, ids=["theta>0", "theta=0", "theta<0"])
    def test_inner_kernel_matches_oracle(self, market, contract, horizon):
        spec = ProblemSpec(market, contract, horizon, 100.0)
        w, h, nu = self.states(contract, market, 8.0)
        got = _InnerKernel(spec, h, w).continuation_value(nu)
        np.testing.assert_allclose(got, self.oracle(spec, 8.0, nu, w, h), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("market", THETA_MARKETS, ids=["theta>0", "theta=0", "theta<0"])
    def test_wealth_at_matches_oracle(self, market, contract, horizon):
        spec = ProblemSpec(market, contract, horizon, 100.0)
        w, h, nu = self.states(contract, market, 10.5, n=25)
        for w_i, h_i, nu_i in zip(w, h, nu):
            state = PathState(t=10.5, w=float(w_i), h=float(h_i))
            # the solution is consulted only when nu_T is not given
            got = wealth_at(spec, None, 10.5, state, nu_T=float(nu_i))
            expected = float(self.oracle(spec, 10.5, nu_i, w_i, h_i))
            assert got == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("market", THETA_MARKETS, ids=["theta>0", "theta=0", "theta<0"])
    def test_terminal_value_is_inverse_marginal(self, market, contract, horizon):
        spec = ProblemSpec(market, contract, horizon, 100.0)
        w, h, nu = self.states(contract, market, 12.0)
        got = _Continuation(spec, 12.0, 12.0, w, h).value(np.log(nu))
        expected = inverse_marginal(contract, nu * h)
        assert np.any(expected == 0.0) and np.any(expected > 0.0)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("market", THETA_MARKETS, ids=["theta>0", "theta=0", "theta<0"])
    def test_delta_is_derivative_of_value(self, market, contract, horizon):
        # near the truncation edge, where the two density terms matter
        spec = ProblemSpec(market, contract, horizon, 100.0)
        w, h, nu = self.states(contract, market, 10.5)
        log_nu, step = np.log(nu), 1e-5

        def value(shift):
            h_w = state_price_density(market, 10.5, w + shift)
            return _Continuation(spec, 10.5, 12.0, w + shift, h_w).value(log_nu)

        fd = (value(step) - value(-step)) / (2.0 * step)
        delta = _Continuation(spec, 10.5, 12.0, w, h).delta(log_nu)
        np.testing.assert_allclose(delta, fd, rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize("market", THETA_MARKETS, ids=["theta>0", "theta=0", "theta<0"])
    def test_slope_is_derivative_of_value(self, market, contract, horizon):
        spec = ProblemSpec(market, contract, horizon, 100.0)
        w, h, nu = self.states(contract, market, 10.5)
        claim = _Continuation(spec, 10.5, 12.0, w, h)
        log_nu, step = np.log(nu), 1e-5
        fd = (claim.value(log_nu + step) - claim.value(log_nu - step)) / (2.0 * step)
        value, slope = claim.value_and_slope(log_nu)
        assert value.tobytes() == claim.value(log_nu).tobytes()
        np.testing.assert_allclose(slope, fd, rtol=1e-6, atol=0.0)

    def test_solver_at_zero_theta(self, contract, horizon):
        flat = ProblemSpec(THETA_MARKETS[1], contract, horizon, 100.0)
        sol = solve_uncertain_horizon(flat, 10_000, seed=SEED + 10, budget_tol=1e-3)
        live = ~sol.zero_mask
        assert sol.budget_residual <= 1e-3
        assert np.nanmax(np.abs(sol.inner_residuals[live])) <= 1e-10


class TestWealthAt:
    def test_matches_stored_wealth_at_stop_date(self, spec, small_solution):
        sol = small_solution
        for i in (0, 11, 4321):
            state = PathState(t=8.0, w=float(sol.w_T1[i]), h=float(sol.h_T1[i]))
            got = wealth_at(spec, sol, 8.0, state)
            assert got == pytest.approx(float(sol.wealth_T1[i]), rel=1e-10, abs=1e-10)

    def test_initial_budget(self, spec, small_solution):
        state = PathState.from_brownian(spec.market, 0.0, 0.0)
        assert abs(wealth_at(spec, small_solution, 0.0, state) - spec.x0) <= 1e-3 * spec.x0

    def test_terminal_date_reduces_to_inverse(self, spec, small_solution):
        sol = small_solution
        i = 99
        state = PathState(t=12.0, w=float(sol.w_T[i]), h=float(sol.h_T[i]))
        got = wealth_at(spec, sol, 12.0, state, nu_T=float(sol.nu_T[i]))
        expected = float(inverse_marginal(spec.contract, float(sol.nu_T[i]) * state.h))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_nested_monte_carlo_oracle_between_dates(self, spec, small_solution):
        sol = small_solution
        i = 123
        nu_T = float(sol.nu_T[i])
        s = 10.5
        w_s = float(sol.w_T1[i]) + math.sqrt(s - 8.0) * 0.37
        state = PathState.from_brownian(spec.market, s, w_s)
        closed = wealth_at(spec, sol, s, state, nu_T=nu_T)
        rng = np.random.default_rng(SEED + 6)
        w_T = w_s + math.sqrt(12.0 - s) * rng.standard_normal(400_000)
        h_T = state_price_density(spec.market, 12.0, w_T)
        sample = h_T * np.asarray(inverse_marginal(spec.contract, nu_T * h_T)) / state.h
        se = sample.std(ddof=1) / math.sqrt(len(sample))
        assert abs(closed - sample.mean()) < 3 * se

    def test_domain_errors(self, spec, small_solution):
        state = PathState.from_brownian(spec.market, 4.0, 0.0)
        with pytest.raises(ValueError):
            wealth_at(spec, small_solution, 13.0, PathState.from_brownian(spec.market, 13.0, 0.0))
        with pytest.raises(ValueError):
            wealth_at(spec, small_solution, 4.0, state)
        with pytest.raises(ValueError, match="path specific"):
            wealth_at(spec, small_solution, 10.0, PathState.from_brownian(spec.market, 10.0, 0.0))

    @pytest.mark.parametrize("s", [8.0, 0.0], ids=["stop-date", "time-zero"])
    def test_without_solution_or_nu_T(self, spec, s):
        # the solution is needed for C at the stop date and for the budget at 0
        state = PathState.from_brownian(spec.market, s, 0.0)
        with pytest.raises(ValueError, match="solution"):
            wealth_at(spec, None, s, state)


class TestStrategyAt:
    def _fd_delta(self, spec, sol, s, w, nu_T, step=1e-5):
        up = wealth_at(spec, sol, s, PathState.from_brownian(spec.market, s, w + step), nu_T=nu_T)
        dn = wealth_at(spec, sol, s, PathState.from_brownian(spec.market, s, w - step), nu_T=nu_T)
        return (up - dn) / (2.0 * step) / spec.market.sigma

    def test_bump_and_revalue_oracle(self, spec, small_solution):
        sol = small_solution
        s = 10.5
        for i in (5, 77, 1234):
            nu_T = float(sol.nu_T[i])
            w_s = float(sol.w_T1[i]) + 0.4
            state = PathState.from_brownian(spec.market, s, w_s)
            direct = strategy_at(spec, sol, s, state, nu_T=nu_T)
            fd = self._fd_delta(spec, sol, s, w_s, nu_T)
            assert direct == pytest.approx(fd, rel=1e-6)

    def test_oracle_at_stop_date_and_negative_theta(self, contract):
        bear = MarketParams(mu=-0.02, r=0.03, sigma=0.2)
        spec_bear = ProblemSpec(bear, contract, HorizonDistribution([8.0], [0.5], 12.0), 100.0)
        sol = solve_uncertain_horizon(spec_bear, 10_000, seed=SEED + 7, budget_tol=1e-3)
        live = np.flatnonzero(~sol.zero_mask)
        i = int(live[0])
        nu_T = float(sol.nu_T[i])
        state = PathState(t=8.0, w=float(sol.w_T1[i]), h=float(sol.h_T1[i]))
        direct = strategy_at(spec_bear, sol, 8.0, state, nu_T=nu_T)
        fd = self._fd_delta(spec_bear, sol, 8.0, float(sol.w_T1[i]), nu_T)
        assert direct == pytest.approx(fd, rel=1e-6)

    def test_deep_in_the_money_fraction(self, spec, small_solution):
        sol = small_solution
        nu_T = float(sol.nu_T[0])
        s = 10.5
        state = PathState.from_brownian(spec.market, s, 100.0)  # h ~ 1e-11
        wealth = wealth_at(spec, sol, s, state, nu_T=nu_T)
        cash = strategy_at(spec, sol, s, state, nu_T=nu_T)
        merton_fraction = (0.08 - 0.03) / (3.0 * 0.04)
        assert abs(cash / wealth - merton_fraction) <= 1e-4

    def test_degenerate_contract_recovers_merton_strategy(self, market):
        spec_d = ProblemSpec(
            market, degenerate_contract(), HorizonDistribution([8.0], [0.5], 12.0), 100.0
        )
        sol = solve_uncertain_horizon(spec_d, 10_000, seed=SEED + 8, budget_tol=1e-3)
        i = 17
        nu_T = float(sol.nu_T[i])
        state = PathState(t=8.0, w=float(sol.w_T1[i]), h=float(sol.h_T1[i]))
        wealth = wealth_at(spec_d, sol, 8.0, state, nu_T=nu_T)
        cash = strategy_at(spec_d, sol, 8.0, state, nu_T=nu_T)
        assert cash / wealth == pytest.approx((0.08 - 0.03) / (3.0 * 0.04), rel=1e-6)

    def test_domain_errors(self, spec, small_solution):
        sol = small_solution
        state = PathState.from_brownian(spec.market, 12.0, 0.0)
        with pytest.raises(ValueError):
            strategy_at(spec, sol, 12.0, state, nu_T=1e-5)
        with pytest.raises(ValueError):
            strategy_at(spec, sol, 5.0, PathState.from_brownian(spec.market, 5.0, 0.0), nu_T=1e-5)

    def test_without_solution_or_nu_T(self, spec):
        state = PathState.from_brownian(spec.market, 8.0, 0.0)
        with pytest.raises(ValueError, match="a solution or nu_T is needed"):
            strategy_at(spec, None, 8.0, state)


class TestSolutionSpec:
    """The two-date entry points check the horizon's shape and the solution's spec."""

    @pytest.mark.parametrize(
        "other_horizon",
        [HorizonDistribution([], [], 12.0), HorizonDistribution([4.0, 8.0], [0.25, 0.25], 12.0)],
        ids=["no-date", "two-dates"],
    )
    def test_every_entry_point_needs_one_interior_date(self, spec, small_solution, other_horizon):
        other = dataclasses.replace(spec, horizon=other_horizon)
        sol = dataclasses.replace(small_solution, spec=other)
        state = PathState(t=8.0, w=float(small_solution.w_T1[0]), h=float(small_solution.h_T1[0]))
        calls = [
            lambda: solve_uncertain_horizon(other, 10_000, seed=1),
            lambda: solve_inner_nu_T(state.h, state.w, sol.c_star, other),
            lambda: wealth_at(other, sol, 8.0, state),
            lambda: strategy_at(other, sol, 8.0, state),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="one interior"):
                call()

    @pytest.mark.parametrize(
        "change",
        [{"horizon": HorizonDistribution([8.0], [0.9], 12.0)}, {"x0": 120.0}],
        ids=["p=0.9", "x0=120"],
    )
    def test_foreign_spec_is_rejected(self, spec, small_solution, change):
        other = dataclasses.replace(spec, **change)
        i = int(np.flatnonzero(~small_solution.zero_mask)[0])
        state = PathState(t=8.0, w=float(small_solution.w_T1[i]), h=float(small_solution.h_T1[i]))
        start = PathState.from_brownian(spec.market, 0.0, 0.0)
        calls = [
            lambda: wealth_at(other, small_solution, 8.0, state),
            lambda: wealth_at(other, small_solution, 0.0, start),
            lambda: strategy_at(other, small_solution, 8.0, state),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="solution.spec"):
                call()
