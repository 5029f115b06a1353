"""The output checks reject outputs corrupted the way a broken solver would.

Each test starts from a real horizonopt solution, confirms the checks pass
on it, then corrupts one thing and requires the matching check to fail.
Run with `python3 -m unittest discover -s perfbench/tests -t .` from the
repository root.
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

import horizonopt as ho  # noqa: E402

from perfbench import checks  # noqa: E402
from perfbench import reference as ref  # noqa: E402
from perfbench import workloads as wl  # noqa: E402

N_PATHS = 10_000


def _csv_round(values):
    """What a value looks like after a round trip through '%.12g'."""
    return np.array([float("%.12g" % v) for v in values])


class CorruptionTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        market = ho.MarketParams(mu=wl.MU, r=wl.R, sigma=wl.SIGMA)
        contract = ho.ContractUtility(
            base=ho.PowerUtility(gamma=wl.GAMMA), participation=wl.ALPHA,
            threshold=wl.B, guarantee=wl.K,
        )
        # x0 = 60 puts some paths on the zero-wealth branch, so both
        # branches are present in the columns being corrupted.
        x0 = 60.0
        horizon = ho.HorizonDistribution(dates=[wl.T1], probs=[wl.P1], terminal=wl.T)
        spec = ho.ProblemSpec(market, contract, horizon, x0)
        sol = ho.solve_uncertain_horizon(spec, N_PATHS, seed=11)
        sset = ho.stopped_samples(spec, sol)
        cmp = ho.compare_to_fixed(spec, sol, horizon.expected_stop)
        cls.eu = ho.expected_utility(sset, contract).value
        cls.ce = ho.certainty_equivalent(cls.eu, contract)
        cls.c_star = sol.c_star
        cls.arrays = {
            "w_t1": sol.w_T1, "h_t1": sol.h_T1, "nu_t1": sol.nu_T1, "nu_t": sol.nu_T,
            "wealth_t1": sol.wealth_T1, "wealth_t": sol.wealth_T,
        }
        cls.csv = {k: _csv_round(v) for k, v in cls.arrays.items()}
        cls.csv["stop_date"] = sset.dates.astype(float)
        cls.csv["stopped_wealth"] = _csv_round(sset.wealth)
        cls.summary = {
            "c_star": "%.12g" % sol.c_star, "ce_diff": "%.12g" % cmp.ce_diff,
            "ce_diff_se": "%.12g" % cmp.ce_diff_se, "var_diff": "%.12g" % cmp.var_diff,
        }
        cls.prob = checks.TwoDateProblem(
            ref.Market(wl.MU, wl.R, wl.SIGMA), ref.Contract(wl.GAMMA, wl.ALPHA, wl.B, wl.K),
            wl.T1, wl.P1, wl.T, x0, wl.BUDGET_TOL,
        )
        zero = ~np.isfinite(sol.nu_T)
        assert 0 < zero.sum() < N_PATHS, "the fixture should have both branches"
        cls.interior = int(np.flatnonzero(~zero)[0])

    def run_checks(self, corrupt):
        """Failures of the CSV-level and the array-level checks after corrupt()."""
        csv_cols = {k: v.copy() for k, v in self.csv.items()}
        arrays = {k: v.copy() for k, v in self.arrays.items()}
        corrupt(csv_cols)
        corrupt(arrays)
        csv_cols["stopped_wealth"] = np.where(
            csv_cols["stop_date"] == wl.T1, csv_cols["wealth_t1"], csv_cols["wealth_t"]
        )
        return (
            checks.check_table1(self.prob, csv_cols, self.summary),
            checks.check_library_solution(self.prob, arrays, self.c_star, self.eu, self.ce),
        )

    def assertRejected(self, corrupt, check):
        for fails in self.run_checks(corrupt):
            self.assertTrue(any(f.startswith(check + ":") for f in fails), fails)

    def test_clean_output_passes(self):
        for fails in self.run_checks(lambda cols: None):
            self.assertEqual(fails, [])

    def test_wealth_inside_the_gap(self):
        def corrupt(cols):
            cols["wealth_t1"][self.interior] = 0.5 * self.prob.x_hat

        self.assertRejected(corrupt, "gap")

    def test_budget_off(self):
        def corrupt(cols):
            cols["wealth_t1"] *= 1.0 + 1e-2

        self.assertRejected(corrupt, "budget")

    def test_multiplier_constancy_broken(self):
        def corrupt(cols):
            cols["nu_t"][self.interior] *= 1.0 + 1e-6

        self.assertRejected(corrupt, "constancy")

    def test_kernel_inconsistent_with_brownian_value(self):
        def corrupt(cols):
            cols["h_t1"][self.interior] *= 1.0 + 1e-6

        self.assertRejected(corrupt, "kernel")


if __name__ == "__main__":
    unittest.main()
