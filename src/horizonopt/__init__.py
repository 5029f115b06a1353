"""Expected-utility portfolio optimization with an uncertain discrete horizon.

Closed-form concave (Merton-type) solutions, the concavified solver for
participating-contract payoffs with an uncertain stopping date, and the
Monte-Carlo analytics behind the horizon-risk comparisons.
"""

from .market import (
    HorizonDistribution,
    MarketParams,
    PathState,
    SimulatedPaths,
    bridge_insert,
    f_factor,
    g_factor,
    simulate_paths,
    state_price_density,
)
from .payoff import (
    ContractUtility,
    Interval,
    PowerUtility,
    envelope_value,
    inverse_marginal,
    payoff_value,
    subdifferential,
    tangency_point,
)
from .concave import MertonSolution, merton_wealth, solve_merton
from .nonconcave import (
    ConvergenceError,
    FixedHorizonSolution,
    InnerRootError,
    ProblemSpec,
    SolverSolution,
    solve_fixed_horizon,
    solve_inner_nu_T,
    solve_uncertain_horizon,
    strategy_at,
    wealth_at,
)
from .analytics import (
    HorizonComparison,
    MeanWithError,
    StoppedSampleSet,
    certainty_equivalent,
    compare_to_fixed,
    expected_utility,
    fixed_horizon_wealth,
    martingale_regression,
    mean_se,
    paired_ce_diff,
    stopped_samples,
    stopped_variance,
    stratified_dates,
)

__version__ = "0.1.0"

__all__ = [
    "MarketParams",
    "HorizonDistribution",
    "PathState",
    "SimulatedPaths",
    "simulate_paths",
    "bridge_insert",
    "state_price_density",
    "f_factor",
    "g_factor",
    "PowerUtility",
    "ContractUtility",
    "Interval",
    "payoff_value",
    "tangency_point",
    "envelope_value",
    "subdifferential",
    "inverse_marginal",
    "MertonSolution",
    "solve_merton",
    "merton_wealth",
    "ProblemSpec",
    "FixedHorizonSolution",
    "SolverSolution",
    "ConvergenceError",
    "InnerRootError",
    "solve_fixed_horizon",
    "solve_inner_nu_T",
    "solve_uncertain_horizon",
    "wealth_at",
    "strategy_at",
    "StoppedSampleSet",
    "MeanWithError",
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
    "__version__",
]
