"""Participating-contract payoff utility and its concave envelope.

The contract pays a guarantee plus a participation in portfolio wealth
above a threshold, evaluated through a power utility:

    u(x) = U(alpha (x - B)^+ + K),   U(z) = z^(1-gamma) / (1 - gamma).

u is flat on [0, B] and strictly increasing above B, hence non-concave.
Its concave envelope is affine on [0, x_hat] and coincides with u at 0 and
from the tangency wealth x_hat upward. The generalized inverse of the
envelope's subdifferential maps a marginal-utility level either to 0 or to
a wealth at least x_hat; the open gap (0, x_hat) is never hit.

Negative wealth carries value -inf, represented by the float -inf sentinel
(never NaN) so that comparisons stay total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._roots import log_root

__all__ = [
    "PowerUtility",
    "ContractUtility",
    "Interval",
    "payoff_value",
    "tangency_point",
    "envelope_value",
    "subdifferential",
    "inverse_marginal",
]

NEG_INF = float("-inf")


@dataclass(frozen=True)
class PowerUtility:
    """Constant-relative-risk-aversion utility z^(1-gamma) / (1-gamma)."""

    gamma: float

    def __post_init__(self) -> None:
        if not (self.gamma > 0.0) or self.gamma == 1.0:
            raise ValueError(f"gamma must be positive and distinct from 1, got {self.gamma}")

    def value(self, z):
        z = np.asarray(z, dtype=float)
        return z ** (1.0 - self.gamma) / (1.0 - self.gamma)

    def marginal(self, z):
        """U'(z) = z^(-gamma)."""
        return np.asarray(z, dtype=float) ** (-self.gamma)

    def inverse_marginal(self, y):
        """(U')^(-1)(y) = y^(-1/gamma)."""
        return np.asarray(y, dtype=float) ** (-1.0 / self.gamma)

    def inverse_value(self, v):
        """U^(-1)(v) on the utility's range."""
        return ((1.0 - self.gamma) * np.asarray(v, dtype=float)) ** (1.0 / (1.0 - self.gamma))


class Interval(NamedTuple):
    """Closed interval [lower, upper]; upper may be inf."""

    lower: float
    upper: float


def _solve_tangency(base: PowerUtility, alpha: float, b: float, k: float) -> float:
    def residual(x: float) -> float:
        # u(x) - u(0) - u'(x) x with the right-branch derivative; vanishes at
        # the wealth where the chord from (0, u(0)) touches u.
        z = alpha * (x - b) + k
        return float(base.value(z) - base.value(k) - alpha * base.marginal(z) * x)

    lo = b * (1.0 + 1e-9) if b > 0 else 1e-12
    if residual(lo) >= 0.0:
        # Chord already touches at the kink; degenerate contract.
        return lo
    log_x, _ = log_root(lambda v: -residual(math.exp(v)), math.log(lo), 0.0)
    # The largest double with residual <= 0: the chord with slope u'(x_hat)
    # then lies on or above u at x_hat, and so on all of [0, x_hat].
    x = math.exp(log_x)
    while residual(x) > 0.0:
        x = math.nextafter(x, 0.0)
    while residual(up := math.nextafter(x, math.inf)) <= 0.0:
        x = up
    return x


@dataclass(frozen=True)
class ContractUtility:
    """Power utility of a participating payoff, with envelope data.

    Parameters
    ----------
    base : PowerUtility
    participation : participation rate alpha in (0, 1]
    threshold : wealth level B > 0 where participation starts
    guarantee : guaranteed payment K > 0

    The tangency wealth x_hat (> B) and the envelope slope u'(x_hat) are
    computed once at construction.
    """

    base: PowerUtility
    participation: float
    threshold: float
    guarantee: float
    x_hat: float = field(init=False)
    gap_slope: float = field(init=False)

    def __post_init__(self) -> None:
        if not (0.0 < self.participation <= 1.0):
            raise ValueError(f"participation rate must lie in (0, 1], got {self.participation}")
        if not (self.threshold > 0.0):
            raise ValueError(f"threshold must be positive, got {self.threshold}")
        if not (self.guarantee > 0.0):
            raise ValueError(f"guarantee must be positive, got {self.guarantee}")
        x_hat = _solve_tangency(self.base, self.participation, self.threshold, self.guarantee)
        object.__setattr__(self, "x_hat", x_hat)
        object.__setattr__(self, "gap_slope", self.marginal_above(x_hat))

    @property
    def gamma(self) -> float:
        return self.base.gamma

    def payout(self, x):
        """Contract payment alpha (x - B)^+ + K for wealth x >= 0."""
        x = np.asarray(x, dtype=float)
        return self.participation * np.maximum(x - self.threshold, 0.0) + self.guarantee

    def marginal_above(self, x):
        """u'(x) = alpha U'(alpha (x - B) + K) on the increasing branch x > B."""
        x = np.asarray(x, dtype=float)
        z = self.participation * (x - self.threshold) + self.guarantee
        return self.participation * self.base.marginal(z)


def payoff_value(c: ContractUtility, x):
    """Contract utility u(x); -inf below zero wealth, U(K) on [0, B]."""
    x = np.asarray(x, dtype=float)
    out = np.where(x >= 0.0, c.base.value(c.payout(np.maximum(x, 0.0))), NEG_INF)
    if out.ndim == 0:
        return float(out)
    return out


def tangency_point(c: ContractUtility) -> float:
    """Smallest positive wealth where the payoff meets its concave envelope."""
    return c.x_hat


def envelope_value(c: ContractUtility, x):
    """Concave envelope of the payoff: affine on [0, x_hat], u above."""
    x = np.asarray(x, dtype=float)
    chord = c.base.value(c.guarantee) + c.gap_slope * x
    out = np.where(x > c.x_hat, payoff_value(c, np.maximum(x, 0.0)), chord)
    out = np.where(x < 0.0, NEG_INF, out)
    if out.ndim == 0:
        return float(out)
    return out


def subdifferential(c: ContractUtility, x: float) -> Interval:
    """Set of envelope subgradients at wealth x >= 0.

    A half-line at zero wealth, the constant chord slope on (0, x_hat], and
    the payoff's own derivative above the tangency wealth.
    """
    if x < 0.0:
        raise ValueError(f"subdifferential is defined for x >= 0, got {x}")
    if x == 0.0:
        return Interval(c.gap_slope, math.inf)
    if x <= c.x_hat:
        return Interval(c.gap_slope, c.gap_slope)
    m = float(c.marginal_above(x))
    return Interval(m, m)


def inverse_marginal(c: ContractUtility, y):
    """Generalized inverse of the envelope subdifferential.

    Maps marginal-utility level y > 0 to the wealth demanded at that level:
    zero above the chord slope u'(x_hat) (ties go to the tangency wealth),
    otherwise B + (I(y / alpha) - K) / alpha >= x_hat. The range is exactly
    {0} union [x_hat, inf); the floor guards the jump against roundoff.
    """
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0.0):
        raise ValueError("marginal-utility level must be positive")
    alpha = c.participation
    bracket = (c.base.inverse_marginal(y / alpha) - c.guarantee) / alpha + c.threshold
    wealth = np.where(y <= c.gap_slope, np.maximum(bracket, c.x_hat), 0.0)
    if wealth.ndim == 0:
        return float(wealth)
    return wealth
