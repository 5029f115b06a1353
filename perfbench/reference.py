"""Reference formulas for checking horizonopt's outputs, written apart from it.

Nothing here imports horizonopt. Each formula is derived again from the
model: a Black-Scholes market with market price of risk
theta = (mu - r) / sigma, the pricing kernel

    H_t = exp(-(r + theta^2 / 2) t - theta W_t),

and the participating-contract utility u(x) = U(alpha (x - B)^+ + K) with
U(z) = z^(1 - gamma) / (1 - gamma). The tests in ``tests/test_reference.py``
check these formulas against quadrature and Monte Carlo, never against
horizonopt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

__all__ = [
    "Market",
    "Contract",
    "kernel",
    "tangency_wealth",
    "inverse_subdifferential",
    "truncated_moment",
    "priced_continuation",
    "merton_multiplier",
    "contract_utility",
]


@dataclass(frozen=True)
class Market:
    mu: float
    r: float
    sigma: float

    @property
    def theta(self) -> float:
        return (self.mu - self.r) / self.sigma

    @property
    def decay(self) -> float:
        """r + theta^2 / 2, the drift of -log H_t per unit time."""
        return self.r + 0.5 * self.theta**2


@dataclass(frozen=True)
class Contract:
    gamma: float
    alpha: float
    B: float
    K: float

    def utility(self, z):
        return np.asarray(z, dtype=float) ** (1.0 - self.gamma) / (1.0 - self.gamma)

    def slope_above(self, x):
        """u'(x) for x > B."""
        return self.alpha * (self.alpha * (np.asarray(x, dtype=float) - self.B) + self.K) ** (
            -self.gamma
        )


def kernel(m: Market, t, w):
    """Pricing kernel H_t at Brownian value w."""
    return np.exp(-m.decay * np.asarray(t, dtype=float) - m.theta * np.asarray(w, dtype=float))


def contract_utility(c: Contract, x):
    """u(x) for wealth x >= 0."""
    x = np.asarray(x, dtype=float)
    return c.utility(c.alpha * np.maximum(x - c.B, 0.0) + c.K)


def tangency_wealth(c: Contract) -> float:
    """Wealth x_hat > B where the chord from (0, u(0)) touches u.

    Root of u(x) - u(0) - x u'(x), found by bisection: the function is
    negative just above B and positive for large x when gamma != 1.
    """

    def gap(x: float) -> float:
        return float(contract_utility(c, x) - c.utility(c.K) - x * c.slope_above(x))

    lo = c.B
    hi = 2.0 * c.B + 1.0
    while gap(hi) <= 0.0:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        if gap(mid) > 0.0:
            hi = mid
        else:
            lo = mid


def inverse_subdifferential(c: Contract, x_hat: float, y):
    """Wealth demanded at marginal-utility level y under the concave envelope.

    Zero where y exceeds the chord slope u'(x_hat), otherwise the x >= x_hat
    with u'(x) = y. y = inf (the zero-wealth multiplier) maps to 0.
    """
    y = np.asarray(y, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        interior = c.B + ((y / c.alpha) ** (-1.0 / c.gamma) - c.K) / c.alpha
    return np.where(y <= c.slope_above(x_hat), interior, 0.0)


def truncated_moment(m: Market, q, dt: float, h_t, nu, level):
    """E[(H_T / H_t)^q 1{nu H_T <= level} | H_t = h_t] with T = t + dt.

    log(H_T / H_t) = -decay dt - theta sqrt(dt) Z with Z standard normal.
    Tilting by the q-th power shifts Z's mean to -q theta sqrt(dt); the
    event is a half-line in Z, so the answer is a lognormal moment times a
    normal CDF.
    """
    q = np.asarray(q, dtype=float)
    moment = np.exp(-q * m.decay * dt + 0.5 * q**2 * m.theta**2 * dt)
    s = abs(m.theta) * math.sqrt(dt)
    with np.errstate(divide="ignore"):
        log_room = np.log(level / (np.asarray(nu, dtype=float) * np.asarray(h_t, dtype=float)))
    if s == 0.0:
        return moment * (log_room + m.decay * dt >= 0.0)
    return moment * ndtr((log_room + m.decay * dt) / s - q * s)


def priced_continuation(m: Market, c: Contract, x_hat: float, dt: float, h_t, nu):
    """Time-t price of the optimal claim X_T = I(nu H_T) paid dt later.

    With I the envelope's inverse subdifferential, X_T equals
    alpha^(1/gamma - 1) (nu H_T)^(-1/gamma) + B - K / alpha on the event
    {nu H_T <= u'(x_hat)} and 0 elsewhere. Pricing each term with the
    kernel ratio H_T / H_t gives truncated moments of order
    q = 1 - 1/gamma and 1. nu = inf prices to 0.
    """
    h_t = np.asarray(h_t, dtype=float)
    nu = np.asarray(nu, dtype=float)
    level = float(c.slope_above(x_hat))
    q = 1.0 - 1.0 / c.gamma
    finite = np.isfinite(nu)
    nu_safe = np.where(finite, nu, 1.0)
    power = c.alpha ** (1.0 / c.gamma - 1.0) * (nu_safe * h_t) ** (-1.0 / c.gamma)
    value = power * truncated_moment(m, q, dt, h_t, nu_safe, level) + (
        c.B - c.K / c.alpha
    ) * truncated_moment(m, 1.0, dt, h_t, nu_safe, level)
    return np.where(finite, value, 0.0)


def merton_multiplier(m: Market, gamma: float, x0: float, s):
    """Multiplier nu_s of the concave power-utility problem stopped at s.

    Wealth at s is (nu_s H_s)^(-1/gamma); its price E[H_s X_s] equals x0
    when nu_s^(-1/gamma) E[H_s^(1 - 1/gamma)] = x0.
    """
    q = 1.0 - 1.0 / gamma
    s = np.asarray(s, dtype=float)
    moment = np.exp(-q * m.decay * s + 0.5 * q**2 * m.theta**2 * s)
    return (x0 / moment) ** (-gamma)
