"""Output checks for the benchmark workloads.

Every check recomputes what the program reports from the reference module
or tests a property the method must have; none compares against a saved
copy of earlier output. Each function returns a list of failures, one
string per failed check, starting with the check's name.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import reference as ref

# Numbers in the CSVs carry 12 significant digits, so each is off by up to
# 5e-12 relative. A value recomputed from two or three of them (exp(theta w),
# nu h, a sum of two multipliers) stays within a few 1e-11; 1e-10 leaves room.
CSV_RTOL = 1e-10
# The priced continuation depends on nu and h through powers of order
# 1/gamma and a normal CDF; with gamma >= 0.5 its elasticity in either stays
# below 10, so rounding both inputs moves it by less than 1e-10 relative.
CSV_CONTINUATION_RTOL = 1e-9
# Full-precision arrays: recomputations agree to double rounding, and the
# inner solve's per-path residual (about 1e-15 of wealth at the baseline) is
# bounded by INNER_EPS * max(wealth, 1), loose enough for any root finder
# that converges in log nu.
ARRAY_RTOL = 1e-12
INNER_EPS = 1e-10
# The paper's ordering claims are tested against their own standard errors.
T_STAT = 3.0
# A Monte-Carlo estimate of a known value (the Merton budget) is off by more
# than 3 s.e. on 0.27% of seeds with a correct program: 1 of seeds 1-200 at
# 100,000 paths (seed 4, z = -3.2; the z-scores had mean -0.10, sd 1.01).
# 4.5 s.e. keeps false alarms below 1e-5 per seed; a wrong multiplier is
# caught to 1e-10 by the closed-form check beside it.
NULL_T_STAT = 4.5


@dataclass(frozen=True)
class TwoDateProblem:
    market: ref.Market
    contract: ref.Contract
    t1: float
    p: float
    T: float
    x0: float
    budget_tol: float

    @property
    def x_hat(self) -> float:
        return ref.tangency_wealth(self.contract)


def read_table(path: Path) -> dict[str, np.ndarray]:
    """Numeric CSV columns by header name."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, j] for j, name in enumerate(header)}


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _rel_dev(got, expected) -> float:
    got = np.asarray(got, dtype=float)
    expected = np.asarray(expected, dtype=float)
    same = got == expected  # covers matching infinities and exact zeros
    with np.errstate(invalid="ignore", divide="ignore"):
        dev = np.abs(got - expected) / np.maximum(np.abs(expected), np.finfo(float).tiny)
    dev = np.where(same, 0.0, dev)
    return float(np.nan_to_num(dev, nan=np.inf).max(initial=0.0))


def _in_gap(wealth, x_hat: float, rtol: float) -> int:
    wealth = np.asarray(wealth, dtype=float)
    return int(np.count_nonzero((wealth > 0.0) & (wealth < x_hat * (1.0 - rtol))))


def check_two_date(
    prob: TwoDateProblem, cols: dict[str, np.ndarray], c_star: float, rtol: float, cont_rtol: float
) -> list[str]:
    """Invariants of a two-date solution, on columns w_t1 ... wealth_t.

    ``rtol`` bounds recomputations that rounding of the inputs can move;
    ``cont_rtol`` scales the inner residual bound cont_rtol * max(wealth, 1).
    """
    fails = []
    x_hat = prob.x_hat
    w1, h1 = cols["w_t1"], cols["h_t1"]
    nu1, nu = cols["nu_t1"], cols["nu_t"]
    x1, xT = cols["wealth_t1"], cols["wealth_t"]

    dev = _rel_dev(h1, ref.kernel(prob.market, prob.t1, w1))
    if dev > rtol:
        fails.append(f"kernel: h_t1 off the closed form at w_t1 by {dev:.2e} relative")

    budget = float(np.mean(h1 * x1))
    if not abs(budget - prob.x0) / prob.x0 <= prob.budget_tol:
        fails.append(f"budget: mean(h_t1 wealth_t1) = {budget!r}, x0 = {prob.x0}")

    finite = np.isfinite(nu1)
    if not np.array_equal(finite, np.isfinite(nu)):
        fails.append("constancy: nu_t1 and nu_t disagree on which paths are zero-wealth")
    else:
        mix = prob.p * nu1[finite] + (1.0 - prob.p) * nu[finite]
        dev = _rel_dev(mix, np.full(mix.shape, c_star))
        if dev > rtol:
            fails.append(f"constancy: p nu_t1 + (1 - p) nu_t off c_star by {dev:.2e} relative")

    for name, wealth in (("wealth_t1", x1), ("wealth_t", xT)):
        bad = _in_gap(wealth, x_hat, rtol)
        if bad:
            fails.append(f"gap: {bad} values of {name} inside (0, x_hat = {x_hat:.6g})")

    dev = _rel_dev(x1, ref.inverse_subdifferential(prob.contract, x_hat, nu1 * h1))
    if dev > rtol:
        fails.append(f"inverse: wealth_t1 off I(nu_t1 h_t1) by {dev:.2e} relative")

    priced = ref.priced_continuation(prob.market, prob.contract, x_hat, prob.T - prob.t1, h1, nu)
    resid = np.abs(x1 - priced) / np.maximum(x1, 1.0)
    if not resid.max(initial=0.0) <= cont_rtol:
        fails.append(
            f"continuation: wealth_t1 off the priced claim at nu_t on {int((resid > cont_rtol).sum())}"
            f" paths, worst {float(resid.max()):.2e} of max(wealth, 1)"
        )
    return fails


def check_stopping(prob: TwoDateProblem, cols: dict[str, np.ndarray]) -> list[str]:
    """Stratified stopping: the first round(p n) paths stop at t1."""
    n = cols["wealth_t1"].size
    early = np.arange(n) < round(prob.p * n)
    dates = np.where(early, prob.t1, prob.T)
    wealth = np.where(early, cols["wealth_t1"], cols["wealth_t"])
    if not (np.array_equal(cols["stop_date"], dates) and np.array_equal(cols["stopped_wealth"], wealth)):
        return ["stopping: stopped samples do not follow round(p n) early stops at t1"]
    return []


def check_table1(prob: TwoDateProblem, cols: dict[str, np.ndarray], summary: dict[str, str]) -> list[str]:
    """The uncertain-horizon CLI output: solution.csv and summary.csv."""
    fails = check_two_date(prob, cols, float(summary["c_star"]), CSV_RTOL, CSV_CONTINUATION_RTOL)
    fails += check_stopping(prob, cols)
    t = float(summary["ce_diff"]) / float(summary["ce_diff_se"])
    if not t < -T_STAT:
        fails.append(f"finding: ce_diff / ce_diff_se = {t:.2f}, not below -{T_STAT}")
    if not float(summary["var_diff"]) > 0.0:
        fails.append(f"finding: var_diff = {summary['var_diff']} is not positive")
    return fails


def check_prob_sweep(grid, budget_tol: float, rows: list[dict[str, str]]) -> list[str]:
    """figure2-sweep: budget at every point; CE falls strictly in p1."""
    fails = []
    p1 = [float(r["p1"]) for r in rows]
    if p1 != list(grid):
        return [f"grid: sweep rows {p1} do not match the grid {list(grid)}"]
    for r in rows:
        if not float(r["budget_residual"]) <= budget_tol:
            fails.append(f"budget: residual {r['budget_residual']} at p1 = {r['p1']}")
    ce = [float(r["ce"]) for r in rows]
    if not all(b < a for a, b in zip(ce, ce[1:])):
        fails.append(f"finding: ce does not fall strictly in p1: {ce}")
    for r in rows[1:]:
        t = float(r["ce_step"]) / float(r["ce_step_se"])
        if not t < -T_STAT:
            fails.append(f"finding: ce_step / ce_step_se = {t:.2f} at p1 = {r['p1']}")
    return fails


def check_merton(
    market: ref.Market, gamma: float, x0: float, cols: dict[str, np.ndarray], summary: dict[str, str]
) -> list[str]:
    """merton: constant fraction, closed-form wealth, MC budget."""
    fails = []
    fraction = (market.mu - market.r) / (gamma * market.sigma**2)
    dev = _rel_dev(float(summary["fraction"]), fraction)
    if dev > CSV_RTOL:
        fails.append(f"fraction: {summary['fraction']} is not (mu - r) / (gamma sigma^2) = {fraction!r}")
    s, h = cols["stop_date"], cols["h"]
    dev = _rel_dev(h, ref.kernel(market, s, cols["w"]))
    if dev > CSV_RTOL:
        fails.append(f"kernel: h off the closed form by {dev:.2e} relative")
    nu = ref.merton_multiplier(market, gamma, x0, s)
    dev = _rel_dev(cols["nu"], nu)
    if dev > CSV_RTOL:
        fails.append(f"multiplier: nu off the closed form by {dev:.2e} relative")
    dev = _rel_dev(cols["wealth"], (nu * h) ** (-1.0 / gamma))
    if dev > CSV_RTOL:
        fails.append(f"wealth: off (nu h)^(-1/gamma) by {dev:.2e} relative")
    budget, se = float(summary["mc_budget"]), float(summary["mc_budget_se"])
    if not abs(budget - x0) <= NULL_T_STAT * se:
        fails.append(f"budget: mc_budget {budget} is more than {NULL_T_STAT} s.e. ({se}) from x0")
    return fails


def check_fixed(
    market: ref.Market, contract: ref.Contract, x0: float, horizon: float,
    cols: dict[str, np.ndarray], summary: dict[str, str],
) -> list[str]:
    """fixed-horizon: the claim at the reported nu prices to x0."""
    fails = []
    x_hat = ref.tangency_wealth(contract)
    if float(summary["horizon"]) != horizon or not np.all(cols["stop_date"] == horizon):
        fails.append(f"horizon: not the matched mean horizon {horizon}")
    nu = float(summary["nu"])
    price = float(ref.priced_continuation(market, contract, x_hat, horizon, 1.0, nu))
    if not abs(price - x0) / x0 <= 1e-9:
        fails.append(f"budget: claim at nu = {nu!r} prices to {price!r}, not x0 = {x0}")
    h = cols["h"]
    dev = _rel_dev(h, ref.kernel(market, horizon, cols["w"]))
    if dev > CSV_RTOL:
        fails.append(f"kernel: h off the closed form by {dev:.2e} relative")
    dev = _rel_dev(cols["wealth"], ref.inverse_subdifferential(contract, x_hat, cols["nu"] * h))
    if dev > CSV_RTOL:
        fails.append(f"inverse: wealth off I(nu h) by {dev:.2e} relative")
    bad = _in_gap(cols["wealth"], x_hat, CSV_RTOL)
    if bad:
        fails.append(f"gap: {bad} wealth values inside (0, x_hat)")
    return fails


def check_library_solution(
    prob: TwoDateProblem, cols: dict[str, np.ndarray], c_star: float, eu: float, ce: float
) -> list[str]:
    """One zero-branch problem: invariants, EU and CE against the reference."""
    fails = check_two_date(prob, cols, c_star, ARRAY_RTOL, INNER_EPS)
    n = cols["wealth_t1"].size
    early = np.arange(n) < round(prob.p * n)
    stopped = np.where(early, cols["wealth_t1"], cols["wealth_t"])
    eu_ref = float(np.mean(ref.contract_utility(prob.contract, stopped)))
    if _rel_dev(eu, eu_ref) > 1e-12:
        fails.append(f"utility: expected utility {eu!r}, reference {eu_ref!r}")
    c = prob.contract
    # Invert U(alpha (x - B) + K) = eu on the increasing branch.
    ce_ref = c.B + (((1.0 - c.gamma) * eu_ref) ** (1.0 / (1.0 - c.gamma)) - c.K) / c.alpha
    if _rel_dev(ce, ce_ref) > 1e-10:
        fails.append(f"utility: certainty equivalent {ce!r}, reference {ce_ref!r}")
    return fails


def check_zero_shares(shares: list[tuple[float, float, float]]) -> list[str]:
    """(gamma, x0, zero share) triples: inside (0, 1), falling in x0 per gamma."""
    fails = []
    for gamma, x0, share in shares:
        if not 0.0 < share < 1.0:
            fails.append(f"zero-share: {share} at gamma={gamma}, x0={x0} is not inside (0, 1)")
    for gamma in sorted({g for g, _, _ in shares}):
        seq = [s for g, _, s in sorted(shares) if g == gamma]
        if not all(b < a for a, b in zip(seq, seq[1:])):
            fails.append(f"zero-share: does not fall as x0 rises at gamma={gamma}: {seq}")
    return fails
