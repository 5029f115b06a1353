"""The benchmark's workloads: what one operation runs and how it is checked.

This module imports only the standard library at load time, so that the
set-up probe can time ``import horizonopt`` on its own.
"""

from __future__ import annotations

import hashlib
import importlib
from dataclasses import dataclass
from pathlib import Path

# Baseline parameters as the CLI documents them: mu=0.08, r=0.03, sigma=0.2,
# gamma=3, alpha=0.25, B=50, K=1, x0=100, p1=0.5, T1=8, T=12, budget_tol=1e-3.
MU, R, SIGMA = 0.08, 0.03, 0.2
GAMMA, ALPHA, B, K = 3.0, 0.25, 50.0, 1.0
X0, P1, T1, T = 100.0, 0.5, 8.0, 12.0
BUDGET_TOL = 1e-3
DEFAULT_PATHS = 100_000
MEAN_HORIZON = P1 * T1 + (1.0 - P1) * T

PROB_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
# The solver's smallest accepted path count; nine calibrations at 10k paths
# take about as long as one at 100k.
SWEEP_PATHS = 10_000
# Low capital puts 6-89% of paths on the zero-wealth branch. At 10k paths the
# budget step of the marginal path stays below 7e-4 of x0 on every problem,
# inside the default tolerance, so every problem calibrates.
ZERO_BRANCH_GRID = ((3.0, (5.0, 20.0, 40.0)), (0.5, (5.0, 20.0, 60.0)))
ZERO_BRANCH_PATHS = 10_000


class OperationFailed(RuntimeError):
    pass


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


@dataclass(frozen=True)
class CliWorkload:
    """One operation runs the CLI once per config, each into its own directory."""

    name: str
    configs: tuple[dict, ...]
    paths_per_op: int  # paths times horizon problems solved on them
    min_ops: int

    program = "horizonopt.cli"
    round_ops = 1

    def build(self, seed: int):
        """The validated config objects, as the CLI builds them."""
        cli = importlib.import_module(self.program)
        return [cli.ExperimentConfig.from_mapping(dict(c, seed=seed)) for c in self.configs]

    def prepare(self, seed: int, workdir: Path) -> list[Path]:
        """Config files for the operations; imports the CLI before any is timed."""
        import yaml

        self.build(seed)
        files = []
        for c in self.configs:
            path = workdir / f"{c['experiment']}.yaml"
            path.write_text(yaml.safe_dump(dict(c, seed=seed)), encoding="utf-8")
            files.append(path)
        return files

    def run_op(self, config_files: list[Path], opdir: Path, index: int) -> dict:
        cli = importlib.import_module(self.program)
        outputs = []
        for path in config_files:
            out = opdir / path.stem
            status = cli.main(["--config", str(path), "--out-dir", str(out), "--quiet"])
            if status != 0:
                raise OperationFailed(f"{path.stem} exited with status {status}")
            outputs.extend(sorted(out.glob("*.csv")))
        return {"dir": opdir, "files": outputs}

    @staticmethod
    def fingerprint(result: dict) -> str:
        return _digest(result["files"])

    @staticmethod
    def bytes_written(result: dict) -> int:
        return sum(p.stat().st_size for p in result["files"])

    def check(self, round_results: list[dict]) -> list[str]:
        from . import checks
        from . import reference as ref

        market = ref.Market(MU, R, SIGMA)
        contract = ref.Contract(GAMMA, ALPHA, B, K)
        opdir = round_results[0]["dir"]
        fails = []
        for c in self.configs:
            out = opdir / c["experiment"]
            kind = c["experiment"]
            if kind == "uncertain-horizon":
                prob = checks.TwoDateProblem(market, contract, T1, P1, T, X0, BUDGET_TOL)
                fails += checks.check_table1(
                    prob, checks.read_table(out / "solution.csv"),
                    checks.read_rows(out / "summary.csv")[0],
                )
            elif kind == "figure2-sweep":
                fails += checks.check_prob_sweep(
                    PROB_GRID, BUDGET_TOL, checks.read_rows(out / "sweep.csv")
                )
            elif kind == "merton":
                fails += checks.check_merton(
                    market, GAMMA, X0, checks.read_table(out / "solution.csv"),
                    checks.read_rows(out / "summary.csv")[0],
                )
            elif kind == "fixed-horizon":
                fails += checks.check_fixed(
                    market, contract, X0, MEAN_HORIZON, checks.read_table(out / "solution.csv"),
                    checks.read_rows(out / "summary.csv")[0],
                )
        return fails


@dataclass(frozen=True)
class LibraryWorkload:
    """One operation solves one problem of the grid through the public API.

    A round solves every problem of the grid once.
    """

    name: str

    program = "horizonopt"
    paths_per_op = ZERO_BRANCH_PATHS
    round_ops = sum(len(x0s) for _, x0s in ZERO_BRANCH_GRID)
    min_ops = round_ops

    def build(self, seed: int):
        """One ProblemSpec per grid point; each builds its contract's tangency."""
        ho = importlib.import_module(self.program)
        market = ho.MarketParams(mu=MU, r=R, sigma=SIGMA)
        horizon = ho.HorizonDistribution(dates=[T1], probs=[P1], terminal=T)
        specs = []
        for gamma, x0s in ZERO_BRANCH_GRID:
            contract = ho.ContractUtility(
                base=ho.PowerUtility(gamma=gamma), participation=ALPHA, threshold=B, guarantee=K
            )
            specs.extend(ho.ProblemSpec(market, contract, horizon, x0) for x0 in x0s)
        return {"seed": seed, "specs": specs}

    def prepare(self, seed: int, workdir: Path):
        return self.build(seed)

    def run_op(self, state: dict, opdir: Path, index: int) -> dict:
        # Looked up on the package at call time, as a library user would.
        ho = importlib.import_module(self.program)
        spec = state["specs"][index % self.round_ops]
        sol = ho.solve_uncertain_horizon(spec, ZERO_BRANCH_PATHS, state["seed"])
        sset = ho.stopped_samples(spec, sol)
        eu = ho.expected_utility(sset, spec.contract)
        ce = ho.certainty_equivalent(eu.value, spec.contract)
        return {"spec": spec, "solution": sol, "eu": eu.value, "ce": ce}

    @staticmethod
    def fingerprint(result: dict) -> str:
        h = hashlib.sha256()
        sol = result["solution"]
        for arr in (sol.nu_T1, sol.nu_T, sol.wealth_T1, sol.wealth_T):
            h.update(arr.tobytes())
        h.update(repr((sol.c_star, result["eu"], result["ce"])).encode())
        return h.hexdigest()

    @staticmethod
    def bytes_written(result: dict) -> int:
        return 0

    def check(self, round_results: list[dict]) -> list[str]:
        from . import checks
        from . import reference as ref

        market = ref.Market(MU, R, SIGMA)
        fails, shares = [], []
        for result in round_results:
            spec, sol = result["spec"], result["solution"]
            contract = ref.Contract(spec.contract.gamma, ALPHA, B, K)
            prob = checks.TwoDateProblem(market, contract, T1, P1, T, spec.x0, BUDGET_TOL)
            cols = {
                "w_t1": sol.w_T1, "h_t1": sol.h_T1, "nu_t1": sol.nu_T1, "nu_t": sol.nu_T,
                "wealth_t1": sol.wealth_T1, "wealth_t": sol.wealth_T,
            }
            label = f"gamma={spec.contract.gamma} x0={spec.x0}: "
            fails += [
                label + f
                for f in checks.check_library_solution(prob, cols, sol.c_star, result["eu"], result["ce"])
            ]
            shares.append((spec.contract.gamma, spec.x0, float((sol.wealth_T1 == 0.0).mean())))
        return fails + checks.check_zero_shares(shares)


@dataclass(frozen=True)
class ClosedFormWorkload:
    """One operation computes both closed-form benchmarks through the public API.

    It is what the CLI's ``merton`` and ``fixed-horizon`` experiments compute,
    without their CSV output: the Merton solution and its wealth on every
    path at both stop dates, then the fixed-horizon claim at the matched
    mean horizon, its wealth, expected utility and certainty equivalent.
    """

    name: str

    program = "horizonopt"
    paths_per_op = 2 * DEFAULT_PATHS  # the random-horizon and the fixed-horizon problem
    round_ops = 1
    min_ops = 2  # so that every run compares repeated outputs

    def build(self, seed: int):
        """The market, horizon and contract objects (with the contract's tangency solve)."""
        ho = importlib.import_module(self.program)
        market = ho.MarketParams(mu=MU, r=R, sigma=SIGMA)
        horizon = ho.HorizonDistribution(dates=[T1], probs=[P1], terminal=T)
        contract = ho.ContractUtility(
            base=ho.PowerUtility(gamma=GAMMA), participation=ALPHA, threshold=B, guarantee=K
        )
        return {"seed": seed, "spec": ho.ProblemSpec(market, contract, horizon, X0)}

    def prepare(self, seed: int, workdir: Path):
        return self.build(seed)

    def run_op(self, state: dict, opdir: Path, index: int) -> dict:
        import numpy as np

        ho = importlib.import_module(self.program)
        spec, seed = state["spec"], state["seed"]
        market, horizon, contract = spec.market, spec.horizon, spec.contract
        merton = ho.solve_merton(market, GAMMA, horizon, X0)
        paths = ho.simulate_paths(market, horizon.grid, DEFAULT_PATHS, seed)
        nu = np.array([merton.multiplier(t) for t in horizon.grid])
        merton_wealth = (nu * paths.h) ** (-1.0 / GAMMA)

        fixed = ho.solve_fixed_horizon(spec, horizon=MEAN_HORIZON)
        fixed_paths = ho.simulate_paths(market, [MEAN_HORIZON], DEFAULT_PATHS, seed)
        w, h = fixed_paths.column(MEAN_HORIZON)
        fixed_wealth = np.asarray(ho.inverse_marginal(contract, fixed.nu * h))
        eu = float(np.mean(ho.payoff_value(contract, fixed_wealth)))
        ce = ho.certainty_equivalent(eu, contract)
        return {
            "grid": np.asarray(horizon.grid), "fraction": merton.fraction, "nu": nu,
            "merton_w": paths.w, "merton_h": paths.h, "merton_wealth": merton_wealth,
            "fixed_nu": fixed.nu, "fixed_w": w, "fixed_h": h, "fixed_wealth": fixed_wealth,
            "eu": eu, "ce": ce,
        }

    @staticmethod
    def fingerprint(result: dict) -> str:
        h = hashlib.sha256()
        for key in ("merton_wealth", "fixed_wealth"):
            h.update(result[key].tobytes())
        h.update(repr((result["fraction"], result["fixed_nu"], result["eu"], result["ce"])).encode())
        return h.hexdigest()

    @staticmethod
    def bytes_written(result: dict) -> int:
        return 0

    def check(self, round_results: list[dict]) -> list[str]:
        import numpy as np

        from . import checks
        from . import reference as ref

        market = ref.Market(MU, R, SIGMA)
        contract = ref.Contract(GAMMA, ALPHA, B, K)
        res = round_results[0]
        # Every path at both stop dates; the budget weighs each date by its probability.
        n = len(res["merton_wealth"])
        priced = (res["merton_h"] * res["merton_wealth"]) @ np.array([P1, 1.0 - P1])
        merton = {
            "stop_date": np.broadcast_to(res["grid"], (n, 2)).ravel(),
            "w": res["merton_w"].ravel(), "h": res["merton_h"].ravel(),
            "nu": np.broadcast_to(res["nu"], (n, 2)).ravel(), "wealth": res["merton_wealth"].ravel(),
        }
        summary = {
            "fraction": res["fraction"], "mc_budget": float(priced.mean()),
            "mc_budget_se": float(priced.std(ddof=1) / np.sqrt(n)),
        }
        fixed = {
            "stop_date": np.full(n, MEAN_HORIZON), "w": res["fixed_w"], "h": res["fixed_h"],
            "nu": np.full(n, res["fixed_nu"]), "wealth": res["fixed_wealth"],
        }
        return (
            checks.check_merton(market, GAMMA, X0, merton, summary)
            + checks.check_fixed(
                market, contract, X0, MEAN_HORIZON, fixed,
                {"horizon": MEAN_HORIZON, "nu": res["fixed_nu"]},
            )
        )


WORKLOADS = {
    w.name: w
    for w in (
        CliWorkload(
            "table1", ({"experiment": "uncertain-horizon", "workers": 2},),
            # the two-date problem and the matched fixed-horizon comparison;
            # one ~30 s operation per run, repeats are compared across runs
            paths_per_op=2 * DEFAULT_PATHS, min_ops=1,
        ),
        CliWorkload(
            "prob-sweep", ({"experiment": "figure2-sweep", "n_paths": SWEEP_PATHS},),
            paths_per_op=len(PROB_GRID) * SWEEP_PATHS, min_ops=1,
        ),
        ClosedFormWorkload("closed-form"),
        # The same two problems through the CLI, whose time is 99% CSV
        # formatting. Not in BENCHMARK.json: its run-to-run spread exceeds
        # the largest bound there (see README.md).
        CliWorkload(
            "closed-form-cli", ({"experiment": "merton"}, {"experiment": "fixed-horizon"}),
            # two operations, so every run compares repeated outputs byte for byte
            paths_per_op=2 * DEFAULT_PATHS, min_ops=2,
        ),
        LibraryWorkload("zero-branch"),
    )
}
