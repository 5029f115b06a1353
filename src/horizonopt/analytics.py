"""Monte-Carlo statistics over stopped-wealth samples.

Expected utility, certainty equivalent, stopped-portfolio variance, and
the uncertain-versus-fixed-horizon comparison. Every point estimate
carries a standard error; comparisons are paired path by path (common
random numbers) so ordering statements can be tested against their own
standard errors.

Stopping dates are stratified: n paths are shared out over the mass dates
by the largest-remainder rule (``stratified_dates``), so each date gets the
floor of p n paths and the leftover paths go to the largest fractional
parts, a tie going to the earlier date. This removes stopping-date noise
from comparisons; the remaining randomness is in the market draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .market import HorizonDistribution, bridge_insert
from .nonconcave import ProblemSpec, SolverSolution, _solution_spec, solve_fixed_horizon
from .payoff import ContractUtility, inverse_marginal, payoff_value

__all__ = [
    "MeanWithError",
    "StoppedSampleSet",
    "HorizonComparison",
    "mean_se",
    "paired_ce_diff",
    "stratified_dates",
    "stopped_samples",
    "expected_utility",
    "certainty_equivalent",
    "stopped_variance",
    "fixed_horizon_wealth",
    "compare_to_fixed",
    "martingale_regression",
]


class MeanWithError(NamedTuple):
    value: float
    se: float


def mean_se(x) -> MeanWithError:
    """Sample mean with its standard error (0 for a single sample)."""
    x = np.asarray(x, dtype=float)
    n = x.size
    se = float(np.std(x, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return MeanWithError(float(np.mean(x)), se)


@dataclass(frozen=True)
class StoppedSampleSet:
    """Per-path (stopping date, stopped wealth) samples."""

    dates: NDArray[np.float64]
    wealth: NDArray[np.float64]

    def __post_init__(self) -> None:
        if self.dates.shape != self.wealth.shape or self.dates.ndim != 1:
            raise ValueError("dates and wealth must be equal-length vectors")
        if self.dates.size == 0:
            raise ValueError("empty sample set")

    @property
    def n(self) -> int:
        return int(self.dates.size)


def stratified_dates(horizon: HorizonDistribution, n: int) -> NDArray[np.float64]:
    """Per-path stopping dates with exact counts, in date order.

    Largest remainder: each mass date gets floor(p n) paths, and the
    n - sum of floors leftover paths go one each to the dates with the
    largest fractional parts of p n. A tie goes to the earlier date, so
    p = 1/2 at odd n stops (n + 1) / 2 paths early.
    """
    ideal = np.array(horizon.all_probs) * n
    counts = np.floor(ideal).astype(int)
    order = np.argsort(counts - ideal, kind="stable")
    counts[order[: n - counts.sum()]] += 1
    return np.repeat(np.array(horizon.grid), counts)


def stopped_samples(spec: ProblemSpec, solution: SolverSolution) -> StoppedSampleSet:
    """Stratified stopped-wealth samples of a two-date solution.

    The first paths, as many as ``stratified_dates`` gives T_1, stop there
    with their stop-date wealth; the rest run to the terminal date. Path
    order matches the solution arrays, so sample i of two coupled sets
    refers to the same draws. ``spec`` must be ``solution.spec``.
    """
    horizon = _solution_spec(spec, solution).horizon
    t1, _ = horizon.single_stop()
    dates = stratified_dates(horizon, solution.n_paths)
    wealth = np.where(dates == t1, solution.wealth_T1, solution.wealth_T)
    return StoppedSampleSet(dates=dates, wealth=wealth)


def expected_utility(sset: StoppedSampleSet, c: ContractUtility) -> MeanWithError:
    """Sample mean of the contract utility with its standard error."""
    if np.any(sset.wealth < 0.0):
        raise ValueError("negative wealth in sample set")
    return mean_se(payoff_value(c, sset.wealth))


def certainty_equivalent(eu: float, c: ContractUtility) -> float:
    """Deterministic wealth whose contract utility equals eu.

    Inverted on the strictly increasing branch above the participation
    threshold; the flat level U(K) maps to the threshold itself (smallest
    such wealth). Values below U(K) are unattainable.
    """
    floor = float(c.base.value(c.guarantee))
    if eu < floor:
        raise ValueError(f"expected utility {eu} below the attainable floor {floor}")
    if eu == floor:
        return c.threshold
    payout = float(c.base.inverse_value(eu))
    return c.threshold + (payout - c.guarantee) / c.participation


def _variance(x: NDArray[np.float64]) -> MeanWithError:
    """Unbiased sample variance with its standard error (0 for a single sample)."""
    n = x.size
    s2 = float(np.var(x, ddof=1))
    if n < 2:
        return MeanWithError(s2, 0.0)
    m4 = float(np.mean((x - x.mean()) ** 4))
    inner = m4 - (n - 3) / (n - 1) * s2**2
    return MeanWithError(s2, math.sqrt(max(inner, 0.0) / n))


def stopped_variance(sset: StoppedSampleSet) -> MeanWithError:
    """Unbiased sample variance of the stopped wealth with standard error."""
    return _variance(sset.wealth)


def _ce_slope(eu: float, c: ContractUtility) -> float:
    """d CE / d EU, from the inverse-function rule on the increasing branch."""
    ce = certainty_equivalent(eu, c)
    return 1.0 / float(c.marginal_above(max(ce, c.threshold * (1 + 1e-12))))


def paired_ce_diff(values_a, values_b, c: ContractUtility) -> MeanWithError:
    """CE(mean a) - CE(mean b) for paired utility samples, with its standard error.

    The error comes from the per-path influence values of the two
    certainty equivalents (delta method), which is valid for coupled as
    well as independent samples.
    """
    eu_a, eu_b = float(np.mean(values_a)), float(np.mean(values_b))
    influence = _ce_slope(eu_a, c) * (values_a - eu_a) - _ce_slope(eu_b, c) * (values_b - eu_b)
    diff = certainty_equivalent(eu_a, c) - certainty_equivalent(eu_b, c)
    return MeanWithError(diff, mean_se(influence).se)


@dataclass(frozen=True)
class HorizonComparison:
    """Uncertain-horizon performance against the matched fixed horizon."""

    t_tilde: float
    eu_uncertain: MeanWithError
    eu_fixed: MeanWithError
    ce_uncertain: float
    ce_fixed: float
    ce_diff: float
    ce_diff_se: float
    var_uncertain: MeanWithError
    var_fixed: MeanWithError
    var_diff: float
    var_diff_se: float
    nu_fixed: float


def fixed_horizon_wealth(
    spec: ProblemSpec, solution: SolverSolution, horizon: float
) -> tuple[float, NDArray[np.float64]]:
    """Terminal wealth of the fixed-horizon optimum on coupled draws.

    The kernel at the fixed horizon is sampled by conditional insertion
    between the solution's stored dates (a Brownian bridge), so the fixed
    and uncertain samples share their randomness path by path. ``spec``
    must be ``solution.spec``.
    """
    spec = _solution_spec(spec, solution)
    fixed = solve_fixed_horizon(spec, horizon=horizon)
    refined = bridge_insert(solution.paths, horizon, seed=solution.seed)
    _, h_mid = refined.column(horizon)
    wealth = inverse_marginal(spec.contract, fixed.nu * h_mid)
    return fixed.nu, np.asarray(wealth)


def compare_to_fixed(
    spec: ProblemSpec, solution: SolverSolution, t_tilde: float
) -> HorizonComparison:
    """Certainty-equivalent and variance comparison at matched mean horizon.

    Requires t_tilde = E[tau ^ T]. Differences carry paired standard
    errors computed from per-path influence values, which is valid for
    coupled as well as independent samples. ``spec`` must be
    ``solution.spec``.
    """
    spec = _solution_spec(spec, solution)
    expected = spec.horizon.expected_stop
    if not math.isclose(t_tilde, expected, rel_tol=0.0, abs_tol=1e-9):
        raise ValueError(
            f"t_tilde={t_tilde} does not match the stopped-clock mean {expected}"
        )
    c = spec.contract
    sset = stopped_samples(spec, solution)
    nu_fixed, wealth_fixed = fixed_horizon_wealth(spec, solution, t_tilde)

    values_u = payoff_value(c, sset.wealth)
    values_f = payoff_value(c, wealth_fixed)
    eu_u = mean_se(values_u)
    eu_f = mean_se(values_f)
    ce_diff = paired_ce_diff(values_u, values_f, c)

    var_u = stopped_variance(sset)
    var_f = _variance(wealth_fixed)
    infl_u = (sset.wealth - sset.wealth.mean()) ** 2
    infl_f = (wealth_fixed - wealth_fixed.mean()) ** 2

    return HorizonComparison(
        t_tilde=t_tilde,
        eu_uncertain=eu_u,
        eu_fixed=eu_f,
        ce_uncertain=certainty_equivalent(eu_u.value, c),
        ce_fixed=certainty_equivalent(eu_f.value, c),
        ce_diff=ce_diff.value,
        ce_diff_se=ce_diff.se,
        var_uncertain=var_u,
        var_fixed=var_f,
        var_diff=var_u.value - var_f.value,
        var_diff_se=mean_se(infl_u - infl_f).se,
        nu_fixed=nu_fixed,
    )


class RegressionResult(NamedTuple):
    coefficients: NDArray[np.float64]
    tstats: NDArray[np.float64]


def martingale_regression(residual, regressors) -> RegressionResult:
    """OLS of a martingale-increment residual on time-t information.

    Under the martingale property every coefficient (including the
    intercept, which is prepended) is zero in expectation; the returned
    t-statistics quantify deviations. This is the empirical surrogate for
    the representation property of stopped wealth.

    Covariance is heteroskedasticity-robust (White): the increments are
    strongly heteroskedastic in the conditioning state, and homoskedastic
    standard errors are visibly miscalibrated at usual sample sizes.
    """
    d = np.asarray(residual, dtype=float)
    x = np.asarray(regressors, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n = d.size
    design = np.column_stack([np.ones(n), x])
    beta, _, _, _ = np.linalg.lstsq(design, d, rcond=None)
    resid = d - design @ beta
    bread = np.linalg.inv(design.T @ design)
    meat = (design * (resid**2)[:, None]).T @ design
    cov = bread @ meat @ bread
    se = np.sqrt(np.diag(cov))
    return RegressionResult(beta, beta / se)
