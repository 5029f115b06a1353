"""Closed-form concave optimization with a discrete random horizon.

For power utility the optimal stopped wealth is (nu_s H_s)^(-1/gamma) with
a deterministic multiplier schedule

    nu_s = (x / f((gamma-1)/gamma, 0, s))^(-gamma),

and the optimal risky fraction is the constant (mu - r) / (gamma sigma^2),
unaffected by the horizon distribution. The horizon only enters the value
of the problem, not the strategy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .market import HorizonDistribution, MarketParams, PathState, f_factor

__all__ = ["MertonSolution", "solve_merton", "merton_wealth"]


@dataclass(frozen=True)
class MertonSolution:
    """Multiplier schedule and constant risky fraction for one problem."""

    params: MarketParams
    gamma: float
    horizon: HorizonDistribution
    initial_wealth: float
    fraction: float

    def multiplier(self, s: float) -> float:
        """Deterministic Lagrange multiplier nu_s, valid while the clock runs."""
        if not (0.0 <= s <= self.horizon.terminal):
            raise ValueError(f"time {s} outside [0, {self.horizon.terminal}]")
        q = (self.gamma - 1.0) / self.gamma
        return float(
            (self.initial_wealth / f_factor(q, 0.0, s, self.params)) ** (-self.gamma)
        )


def solve_merton(
    params: MarketParams, gamma: float, horizon: HorizonDistribution, x: float
) -> MertonSolution:
    """Solve the concave problem for power utility and initial capital x.

    The returned schedule satisfies the budget identity exactly: summing
    p_i nu_{T_i}^(-1/gamma) f(q, 0, T_i) over all mass dates gives x back,
    and nu_{T_j}^(-1/gamma) = f(q, T_j, T) nu_T^(-1/gamma) pairwise.
    """
    if not (x > 0.0):
        raise ValueError(f"initial capital must be positive, got {x}")
    if not (gamma > 0.0) or gamma == 1.0:
        raise ValueError(f"gamma must be positive and distinct from 1, got {gamma}")
    fraction = (params.mu - params.r) / (gamma * params.sigma**2)
    return MertonSolution(
        params=params, gamma=gamma, horizon=horizon, initial_wealth=x, fraction=fraction
    )


def merton_wealth(sol: MertonSolution, state: PathState) -> float:
    """Optimal wealth (nu_s h)^(-1/gamma) at the state's time.

    For a path stopped at an earlier date the wealth is frozen there; this
    evaluates the live portfolio, so the caller passes the stopping-date
    state for stopped paths.
    """
    nu = sol.multiplier(state.t)
    return float((nu * state.h) ** (-1.0 / sol.gamma))
