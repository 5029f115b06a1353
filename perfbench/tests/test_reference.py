"""The reference formulas against quadrature and Monte Carlo.

Run with `python3 -m unittest discover -s perfbench/tests -t .` from the
repository root (pytest collects the same classes).
"""

from __future__ import annotations

import math
import unittest

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar

from perfbench import reference as ref

MARKETS = (ref.Market(0.08, 0.03, 0.2), ref.Market(0.01, 0.04, 0.25))
CONTRACTS = (ref.Contract(3.0, 0.25, 50.0, 1.0), ref.Contract(0.5, 0.25, 50.0, 1.0))


def _phi(z: float) -> float:
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _ratio(m: ref.Market, dt: float, z: float) -> float:
    """H_T / H_t for a standard normal draw z of the Brownian increment."""
    return math.exp(-m.decay * dt - m.theta * math.sqrt(dt) * z)


def _expect(m, dt, payoff, cut):
    """E[payoff(z)] for standard normal z, split at the payoff's jump."""
    total = 0.0
    for a, b in ((-14.0, cut), (cut, 14.0)):
        if b > a:
            total += quad(lambda z: _phi(z) * payoff(z), a, b, limit=200, epsabs=0.0)[0]
    return total


def _cut(m, dt, h_t, nu, level):
    """The z where nu h_t H_T / H_t crosses level (the truncation boundary)."""
    crossing = lambda z: nu * h_t * _ratio(m, dt, z) - level  # noqa: E731
    if crossing(-14.0) * crossing(14.0) > 0.0:
        return 14.0
    return brentq(crossing, -14.0, 14.0, xtol=1e-14)


class KernelTest(unittest.TestCase):
    def test_discounted_prices_are_martingales(self):
        rng = np.random.default_rng(7)
        for m in MARKETS:
            t = 6.0
            w = math.sqrt(t) * rng.standard_normal(400_000)
            h = ref.kernel(m, t, w)
            stock = np.exp((m.mu - 0.5 * m.sigma**2) * t + m.sigma * w)
            for sample, expected in ((h, math.exp(-m.r * t)), (h * stock, 1.0)):
                se = sample.std(ddof=1) / math.sqrt(sample.size)
                self.assertLess(abs(sample.mean() - expected), 4.0 * se)


class TangencyTest(unittest.TestCase):
    def test_tangency_maximises_the_chord_slope(self):
        # The envelope's chord from (0, u(0)) is the steepest one that still
        # touches u; its touching point is the tangency wealth.
        for c in CONTRACTS:
            x_hat = ref.tangency_wealth(c)
            chord = lambda x: -float(ref.contract_utility(c, x) - c.utility(c.K)) / x  # noqa: E731
            best = minimize_scalar(
                chord, bounds=(c.B, 20.0 * c.B), method="bounded", options={"xatol": 1e-10}
            )
            self.assertAlmostEqual(x_hat / best.x, 1.0, delta=1e-6)

    def test_chord_lies_above_the_utility(self):
        for c in CONTRACTS:
            x_hat = ref.tangency_wealth(c)
            slope = float(c.slope_above(x_hat))
            x = np.linspace(0.0, 40.0 * x_hat, 200_001)
            gap = c.utility(c.K) + slope * x - ref.contract_utility(c, x)
            self.assertGreater(gap.min(), -1e-12 * np.abs(ref.contract_utility(c, x)).max())


class InverseSubdifferentialTest(unittest.TestCase):
    def test_maximises_utility_minus_cost(self):
        # I(y) is the wealth that maximises u(x) - y x, which is either 0 or
        # a point of the increasing branch at or above the tangency wealth.
        for c in CONTRACTS:
            x_hat = ref.tangency_wealth(c)
            slope = float(c.slope_above(x_hat))
            for y in slope * np.array([0.05, 0.3, 0.9, 0.999, 1.001, 1.5, 4.0]):
                objective = lambda x: -(float(ref.contract_utility(c, x)) - y * x)  # noqa: E731
                best = minimize_scalar(
                    objective, bounds=(c.B, 1e4 * c.B), method="bounded",
                    options={"xatol": 1e-9},
                )
                at_zero = float(ref.contract_utility(c, 0.0))
                expected = best.x if -best.fun > at_zero else 0.0
                got = float(ref.inverse_subdifferential(c, x_hat, y))
                self.assertAlmostEqual(got, expected, delta=1e-5 * max(expected, 1.0))

    def test_zero_multiplier_sentinel(self):
        c = CONTRACTS[0]
        self.assertEqual(float(ref.inverse_subdifferential(c, ref.tangency_wealth(c), np.inf)), 0.0)


class TruncatedMomentTest(unittest.TestCase):
    def test_against_quadrature(self):
        dt, level = 4.0, 2e-3
        for m in MARKETS:
            for q in (2.0 / 3.0, -1.0, 1.0):
                for h_t, nu in ((0.6, 2.5e-3), (1.4, 1e-3), (0.3, 2e-2)):
                    cut = _cut(m, dt, h_t, nu, level)
                    expected = _expect(
                        m, dt,
                        lambda z: _ratio(m, dt, z) ** q
                        * (nu * h_t * _ratio(m, dt, z) <= level),
                        cut,
                    )
                    got = float(ref.truncated_moment(m, q, dt, h_t, nu, level))
                    self.assertAlmostEqual(got, expected, delta=1e-9 * max(abs(expected), 1e-3))


class PricedContinuationTest(unittest.TestCase):
    def test_against_quadrature(self):
        dt = 4.0
        for m in MARKETS:
            for c in CONTRACTS:
                x_hat = ref.tangency_wealth(c)
                level = float(c.slope_above(x_hat))
                for h_t in (0.4, 0.9, 1.7):
                    for nu in level / h_t * np.array([0.05, 0.5, 1.0, 2.0]):
                        claim = lambda z: _ratio(m, dt, z) * float(  # noqa: E731
                            ref.inverse_subdifferential(c, x_hat, nu * h_t * _ratio(m, dt, z))
                        )
                        expected = _expect(m, dt, claim, _cut(m, dt, h_t, nu, level))
                        got = float(ref.priced_continuation(m, c, x_hat, dt, h_t, nu))
                        self.assertAlmostEqual(got, expected, delta=1e-8 * max(expected, 1.0))

    def test_zero_branch_prices_to_zero(self):
        m, c = MARKETS[0], CONTRACTS[0]
        value = ref.priced_continuation(m, c, ref.tangency_wealth(c), 4.0, np.array([0.5]), np.inf)
        self.assertEqual(float(value[0]), 0.0)


class MertonMultiplierTest(unittest.TestCase):
    def test_budget_against_quadrature(self):
        for m in MARKETS:
            for gamma in (3.0, 0.5):
                for s in (5.0, 12.0):
                    nu = float(ref.merton_multiplier(m, gamma, 100.0, s))
                    price = quad(
                        lambda z: _phi(z) * _ratio(m, s, z) * (nu * _ratio(m, s, z)) ** (-1.0 / gamma),
                        -14.0, 14.0, epsabs=0.0, limit=200,
                    )[0]
                    self.assertAlmostEqual(price / 100.0, 1.0, delta=1e-9)


if __name__ == "__main__":
    unittest.main()
