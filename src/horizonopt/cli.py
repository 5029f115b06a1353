"""Experiment runner: config in, CSV tables out.

Reads a YAML config (all keys optional; defaults reproduce the baseline
parameter set mu=0.08, r=0.03, sigma=0.2, gamma=3, x0=100, p1=0.5, T1=8,
T=12, alpha=0.25, B=50, K=1, mean horizon 10), dispatches one of the
experiments

    merton            closed-form concave solution, MC budget check
    fixed-horizon     contract payoff at the matched fixed horizon
    uncertain-horizon two-date solve plus fixed-horizon comparison
    figure1-sweep     mean-preserving horizon spreads at fixed E[tau]
    figure2-sweep     stopping-probability sweep at fixed dates

and writes solution.csv / summary.csv (sweep.csv for sweeps). Each column
has one format, chosen from its dtype: floats to 12 significant digits,
everything else (integers, the experiment name) as ``str``; nothing is
quoted. ``workers`` sets the threads of path simulation and the inner
solve, and the processes that format the rows of a ``solution.csv`` of at
least 32,768 rows. Identical config and seed give byte identical files for
any worker count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .analytics import (
    certainty_equivalent,
    compare_to_fixed,
    expected_utility,  # not called here: perfbench/trace.py wraps this name in this module
    mean_se,
    paired_ce_diff,
    stopped_samples,
    stopped_variance,
    stratified_dates,
)
from .concave import solve_merton
from .market import HorizonDistribution, MarketParams, simulate_paths
from .nonconcave import (
    ConvergenceError,
    InnerRootError,
    ProblemSpec,
    solve_fixed_horizon,
    solve_uncertain_horizon,
)
from .payoff import ContractUtility, PowerUtility, inverse_marginal, payoff_value

__all__ = ["ExperimentConfig", "run", "main"]

OUT_DIR_ENV = "HORIZONOPT_OUT_DIR"

_DEFAULTS = {
    "experiment": "uncertain-horizon",
    "market": {"mu": 0.08, "r": 0.03, "sigma": 0.2},
    "contract": {"gamma": 3.0, "alpha": 0.25, "threshold": 50.0, "guarantee": 1.0},
    "horizon": {"dates": [8.0], "probs": [0.5], "terminal": 12.0},
    "x0": 100.0,
    "n_paths": 100_000,
    "seed": 20240811,
    "budget_tol": 1e-3,
    "workers": 1,
    "sweep": {
        "spread_grid": [1.0, 2.0, 3.0, 4.0],
        "prob_grid": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
    },
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment parameters (defaults: baseline table)."""

    experiment: str
    market: MarketParams
    contract: ContractUtility
    horizon: HorizonDistribution
    x0: float
    n_paths: int
    seed: int
    budget_tol: float
    workers: int
    spread_grid: tuple[float, ...]
    prob_grid: tuple[float, ...]

    @property
    def t_tilde(self) -> float:
        return self.horizon.expected_stop

    @classmethod
    def from_mapping(cls, raw: dict) -> "ExperimentConfig":
        data = {k: (dict(v) if isinstance(v, dict) else v) for k, v in _DEFAULTS.items()}
        unknown = set(raw) - set(data)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in raw.items():
            if isinstance(data.get(key), dict):
                if not isinstance(value, dict):
                    raise ConfigError(f"config key '{key}' must be a mapping")
                bad = set(value) - set(data[key])
                if bad:
                    raise ConfigError(f"unknown keys under '{key}': {sorted(bad)}")
                data[key].update(value)
            else:
                data[key] = value
        if data["experiment"] not in EXPERIMENTS:
            raise ConfigError(
                f"experiment must be one of {EXPERIMENTS}, got {data['experiment']!r}"
            )
        try:
            market = MarketParams(**{k: float(v) for k, v in data["market"].items()})
            contract = ContractUtility(
                base=PowerUtility(gamma=float(data["contract"]["gamma"])),
                participation=float(data["contract"]["alpha"]),
                threshold=float(data["contract"]["threshold"]),
                guarantee=float(data["contract"]["guarantee"]),
            )
            horizon = HorizonDistribution(
                dates=data["horizon"]["dates"],
                probs=data["horizon"]["probs"],
                terminal=data["horizon"]["terminal"],
            )
            n_paths = _integer("n_paths", data["n_paths"])
            x0 = float(data["x0"])
            workers = _integer("workers", data["workers"])
            seed = _integer("seed", data["seed"])
            budget_tol = float(data["budget_tol"])
            spread_grid = tuple(float(d) for d in data["sweep"]["spread_grid"])
            prob_grid = tuple(float(p) for p in data["sweep"]["prob_grid"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        if n_paths < 1:
            raise ConfigError("n_paths must be positive")
        if x0 <= 0:
            raise ConfigError("x0 must be positive")
        if workers < 1:
            raise ConfigError(f"workers must be at least 1, got {workers}")
        return cls(
            experiment=data["experiment"],
            market=market,
            contract=contract,
            horizon=horizon,
            x0=x0,
            n_paths=n_paths,
            seed=seed,
            budget_tol=budget_tol,
            workers=workers,
            spread_grid=spread_grid,
            prob_grid=prob_grid,
        )


def _integer(key: str, value) -> int:
    """``int(value)``, but a float with a fractional part is rejected, not truncated."""
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _read_yaml(path: str | Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    return raw


# Fewest rows per forked part of a CSV write: a table splits into at most
# ``rows // _PART_ROWS`` parts. Forking a process holding 80 MB and reaping
# the child takes about 1.4 ms on 2 cores, against about 42 ms to format
# this many rows of 9 float columns.
_PART_ROWS = 16_384


def _write_csv(path: Path, table: dict, workers: int = 1) -> None:
    """Write a ``{column name: values}`` table; a scalar value is a one-row column.

    Float columns print as ``%.12g`` and all others as ``%s``. No cell is
    quoted: the only strings are experiment names and headers. Columns of
    different lengths raise ``ValueError`` before the file is opened.

    Where ``os.fork`` exists, a table of at least ``2 * _PART_ROWS`` rows is
    split into up to ``workers`` contiguous parts. This process formats the
    first; a forked child formats each other part into an unnamed temporary
    file, which is appended in order. The bytes are the same for any
    ``workers``. A failed child raises ``OSError``; no child outlives the call.
    """
    # imported here, not with the module: importing cli loads nothing new
    import shutil
    import signal
    import tempfile

    columns = [np.atleast_1d(c) for c in table.values()]
    lengths = sorted({len(c) for c in columns})
    if len(lengths) > 1:
        raise ValueError(f"{path.name}: columns have different lengths {lengths}")
    n = lengths[0] if lengths else 0
    row = ",".join("%.12g" if c.dtype.kind == "f" else "%s" for c in columns) + "\n"
    parts = max(1, min(workers, n // _PART_ROWS)) if hasattr(os, "fork") else 1
    ends = [n * k // parts for k in range(parts + 1)]

    def rows(k: int):
        lo, hi = ends[k], ends[k + 1]
        return (row % values for values in zip(*(c[lo:hi] for c in columns)))

    def child(fd: int, k: int) -> None:
        with open(fd, "w", encoding="utf-8", newline="", closefd=False) as out:
            out.writelines(rows(k))

    part_files, pids = [], []
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            for k in range(1, parts):
                part_files.append(tempfile.TemporaryFile(dir=path.parent, buffering=0))
                pids.append(_fork(child, part_files[-1].fileno(), k))
            fh.write(",".join(table) + "\n")
            fh.writelines(rows(0))
            fh.flush()
            for k, part in enumerate(part_files, 1):
                _, status = os.waitpid(pids[0], 0)
                del pids[0]
                if status:
                    raise OSError(
                        f"{path}: the process formatting rows {ends[k]}-{ends[k + 1]} "
                        f"failed (exit status {os.waitstatus_to_exitcode(status)})"
                    )
                part.seek(0)
                shutil.copyfileobj(part, fh.buffer)
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for part in part_files:
            part.close()


def _fork(body, *args) -> int:
    """Run ``body(*args)`` in a forked child and return its pid.

    The child never returns into its caller and never flushes the stdio
    buffers it inherited: it leaves through ``os._exit``, with status 0 if
    ``body`` returned and 1 if it raised.
    """
    import warnings

    with warnings.catch_warnings():
        # Python >= 3.12 warns when forking with other OS threads alive. At
        # every CSV write those are only numpy's idle BLAS threads (the solver
        # and simulation pools are joined), and the child calls no BLAS.
        warnings.filterwarnings(
            "ignore", r".*use of fork\(\) may lead to deadlocks", DeprecationWarning
        )
        pid = os.fork()
    if pid:
        return pid
    status = 1
    try:
        body(*args)
        status = 0
    finally:
        os._exit(status)


def _sweep_table(rows: list[dict]) -> dict:
    """One column per key of the (non-empty) list of sweep rows."""
    return {name: [row[name] for row in rows] for name in rows[0]}


def _run_merton(cfg: ExperimentConfig, out: Path) -> str:
    sol = solve_merton(cfg.market, cfg.contract.gamma, cfg.horizon, cfg.x0)
    paths = simulate_paths(
        cfg.market, cfg.horizon.grid, cfg.n_paths, cfg.seed, n_workers=cfg.workers
    )
    dates = stratified_dates(cfg.horizon, cfg.n_paths)
    base = cfg.contract.base
    nu = np.array([sol.multiplier(t) for t in cfg.horizon.grid])
    cols = np.searchsorted(cfg.horizon.grid, dates)
    h = paths.h[np.arange(cfg.n_paths), cols]
    w = paths.w[np.arange(cfg.n_paths), cols]
    nu_path = nu[cols]
    wealth = base.inverse_marginal(nu_path * h)

    budget, budget_se = mean_se(h * wealth)
    eu, eu_se = mean_se(base.value(wealth))
    ce = float(base.inverse_value(eu))

    _write_csv(out / "solution.csv", {
        "path": np.arange(cfg.n_paths), "stop_date": dates, "w": w, "h": h,
        "nu": nu_path, "wealth": wealth,
    }, cfg.workers)
    _write_csv(out / "summary.csv", {
        "experiment": "merton", "n_paths": cfg.n_paths, "seed": cfg.seed,
        "fraction": sol.fraction, "mc_budget": budget, "mc_budget_se": budget_se,
        "eu": eu, "eu_se": eu_se, "ce": ce,
    })
    return f"merton: fraction={sol.fraction:.6f} mc_budget={budget:.4f} (se {budget_se:.4f})"


def _run_fixed(cfg: ExperimentConfig, out: Path) -> str:
    horizon = cfg.t_tilde
    spec = ProblemSpec(cfg.market, cfg.contract, cfg.horizon, cfg.x0)
    fixed = solve_fixed_horizon(spec, horizon=horizon)
    paths = simulate_paths(cfg.market, [horizon], cfg.n_paths, cfg.seed, n_workers=cfg.workers)
    w, h = paths.column(horizon)
    wealth = np.asarray(inverse_marginal(cfg.contract, fixed.nu * h))
    eu, eu_se = mean_se(payoff_value(cfg.contract, wealth))
    ce = certainty_equivalent(eu, cfg.contract)

    _write_csv(out / "solution.csv", {
        "path": np.arange(cfg.n_paths), "stop_date": np.full(cfg.n_paths, horizon),
        "w": w, "h": h, "nu": np.full(cfg.n_paths, fixed.nu), "wealth": wealth,
    }, cfg.workers)
    _write_csv(out / "summary.csv", {
        "experiment": "fixed-horizon", "n_paths": cfg.n_paths, "seed": cfg.seed,
        "horizon": horizon, "nu": fixed.nu, "budget_residual": fixed.budget_residual,
        "eu": eu, "eu_se": eu_se, "ce": ce, "variance": float(np.var(wealth, ddof=1)),
    })
    return f"fixed-horizon(T={horizon:g}): nu={fixed.nu:.6e} ce={ce:.4f}"


def _run_uncertain(cfg: ExperimentConfig, out: Path) -> str:
    spec = ProblemSpec(cfg.market, cfg.contract, cfg.horizon, cfg.x0)
    sol = solve_uncertain_horizon(
        spec, cfg.n_paths, cfg.seed, budget_tol=cfg.budget_tol, n_workers=cfg.workers
    )
    sset = stopped_samples(spec, sol)
    comparison = compare_to_fixed(spec, sol, cfg.t_tilde)
    eu, var, ce = comparison.eu_uncertain, comparison.var_uncertain, comparison.ce_uncertain

    t1, p1 = cfg.horizon.single_stop()
    _write_csv(out / "solution.csv", {
        "path": np.arange(cfg.n_paths), "w_t1": sol.w_T1, "h_t1": sol.h_T1,
        "nu_t1": sol.nu_T1, "nu_t": sol.nu_T, "wealth_t1": sol.wealth_T1,
        "wealth_t": sol.wealth_T, "stop_date": sset.dates, "stopped_wealth": sset.wealth,
    }, cfg.workers)
    _write_csv(out / "summary.csv", {
        "experiment": "uncertain-horizon", "n_paths": cfg.n_paths, "seed": cfg.seed,
        "t1": t1, "terminal": cfg.horizon.terminal, "p1": p1, "x0": cfg.x0,
        "c_star": sol.c_star, "iterations": sol.iterations,
        "budget_estimate": sol.budget_estimate, "budget_residual": sol.budget_residual,
        "zero_fraction": float(sol.zero_mask.mean()), "eu": eu.value, "eu_se": eu.se,
        "ce": ce, "variance": var.value, "variance_se": var.se,
        "ce_fixed": comparison.ce_fixed, "ce_diff": comparison.ce_diff,
        "ce_diff_se": comparison.ce_diff_se, "var_fixed": comparison.var_fixed.value,
        "var_diff": comparison.var_diff, "var_diff_se": comparison.var_diff_se,
    })
    return (
        f"uncertain-horizon: C={sol.c_star:.6e} budget_residual={sol.budget_residual:.2e} "
        f"ce={ce:.4f} (fixed {comparison.ce_fixed:.4f})"
    )


def _run_figure1(cfg: ExperimentConfig, out: Path) -> str:
    _, p = cfg.horizon.single_stop()
    if not cfg.spread_grid:
        raise ConfigError("figure1-sweep needs a non-empty spread_grid")
    t_tilde = cfg.t_tilde
    rows = []
    c_start = None  # each calibration starts from the previous grid point's C
    for d in cfg.spread_grid:
        t1 = t_tilde - d
        T = t_tilde + d * p / (1.0 - p)
        if not (0.0 < t1 < T):
            raise ConfigError(f"spread {d} leaves no valid horizon around {t_tilde}")
        horizon = HorizonDistribution([t1], [p], T)
        spec = ProblemSpec(cfg.market, cfg.contract, horizon, cfg.x0)
        sol = solve_uncertain_horizon(
            spec, cfg.n_paths, cfg.seed, budget_tol=cfg.budget_tol, n_workers=cfg.workers,
            c_start=c_start,
        )
        c_start = sol.c_star
        comparison = compare_to_fixed(spec, sol, t_tilde)
        rows.append({
            "spread": d, "t1": t1, "terminal": T, "var_tau": horizon.stop_variance,
            "variance": comparison.var_uncertain.value,
            "variance_se": comparison.var_uncertain.se,
            "var_fixed": comparison.var_fixed.value, "var_diff": comparison.var_diff,
            "var_diff_se": comparison.var_diff_se, "ce": comparison.ce_uncertain,
            "ce_fixed": comparison.ce_fixed, "ce_diff": comparison.ce_diff,
            "ce_diff_se": comparison.ce_diff_se,
        })
    _write_csv(out / "sweep.csv", _sweep_table(rows))
    return f"figure1-sweep: {len(rows)} spreads around E[tau]={t_tilde:g}"


def _run_figure2(cfg: ExperimentConfig, out: Path) -> str:
    t1, _ = cfg.horizon.single_stop()
    if not cfg.prob_grid:
        raise ConfigError("figure2-sweep needs a non-empty prob_grid")
    T = cfg.horizon.terminal
    paths = simulate_paths(cfg.market, [t1, T], cfg.n_paths, cfg.seed, n_workers=cfg.workers)
    rows = []
    prev = c_start = None  # each calibration starts from the previous grid point's C
    for p in cfg.prob_grid:
        horizon = HorizonDistribution([t1], [p], T)
        spec = ProblemSpec(cfg.market, cfg.contract, horizon, cfg.x0)
        sol = solve_uncertain_horizon(
            spec, cfg.n_paths, cfg.seed, budget_tol=cfg.budget_tol, paths=paths,
            n_workers=cfg.workers, c_start=c_start,
        )
        c_start = sol.c_star
        sset = stopped_samples(spec, sol)
        values = payoff_value(cfg.contract, sset.wealth)
        eu = mean_se(values)
        var = stopped_variance(sset)
        if prev is None:
            step = step_se = float("nan")
        else:
            step, step_se = paired_ce_diff(values, prev, cfg.contract)
        rows.append({
            "p1": p, "c_star": sol.c_star, "budget_residual": sol.budget_residual,
            "eu": eu.value, "eu_se": eu.se, "ce": certainty_equivalent(eu.value, cfg.contract),
            "variance": var.value, "variance_se": var.se, "ce_step": step, "ce_step_se": step_se,
        })
        prev = values
    _write_csv(out / "sweep.csv", _sweep_table(rows))
    return f"figure2-sweep: {len(rows)} stopping probabilities on ({t1:g}, {T:g})"


_RUNNERS = {
    "merton": _run_merton,
    "fixed-horizon": _run_fixed,
    "uncertain-horizon": _run_uncertain,
    "figure1-sweep": _run_figure1,
    "figure2-sweep": _run_figure2,
}
EXPERIMENTS = tuple(_RUNNERS)


def _fail(status: int, record: dict) -> int:
    """Write the failure record as one JSON line on stderr; returns ``status``."""
    json.dump(record, sys.stderr)
    sys.stderr.write("\n")
    return status


def run(
    config_path: str | None,
    out_dir: str | None = None,
    seed: int | None = None,
    n_paths: int | None = None,
    workers: int | None = None,
    quiet: bool = False,
) -> int:
    """Execute one experiment; returns the process exit status."""
    try:
        raw = _read_yaml(config_path) if config_path else {}
        overrides = {"seed": seed, "n_paths": n_paths, "workers": workers}
        raw.update((k, v) for k, v in overrides.items() if v is not None)
        cfg = ExperimentConfig.from_mapping(raw)
        out = Path(out_dir or os.environ.get(OUT_DIR_ENV, "out"))
        out.mkdir(parents=True, exist_ok=True)
        summary = _RUNNERS[cfg.experiment](cfg, out)
    except (ConfigError, ValueError, OSError, yaml.YAMLError) as exc:
        return _fail(2, {"error": "invalid-config", "message": str(exc)})
    except ConvergenceError as exc:
        history = [[c, b] for c, b in exc.history]
        return _fail(3, {"error": "non-convergence", "message": str(exc), "history": history})
    except InnerRootError as exc:
        return _fail(4, {"error": "inner-root", "message": str(exc)})
    if not quiet:
        print(f"{summary} -> {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="horizonopt",
        description="Portfolio optimization experiments with an uncertain horizon.",
    )
    parser.add_argument("--config", help="YAML experiment config (defaults: baseline table)")
    parser.add_argument("--out-dir", help=f"output directory (default ${OUT_DIR_ENV} or ./out)")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--paths", type=int, help="override the config path count")
    parser.add_argument(
        "--workers", type=int,
        help="override the thread count of path simulation and the inner solve, "
        "and the process count that formats solution.csv (same bytes for any value)",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress the summary line")
    args = parser.parse_args(argv)
    return run(
        args.config,
        out_dir=args.out_dir,
        seed=args.seed,
        n_paths=args.paths,
        workers=args.workers,
        quiet=args.quiet,
    )


if __name__ == "__main__":
    sys.exit(main())
