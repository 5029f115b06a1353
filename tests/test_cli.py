"""Experiment runner: config validation, CSV contracts, determinism."""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np
import pytest
import yaml

from horizonopt import cli
from horizonopt.cli import EXPERIMENTS, ExperimentConfig, main, run
from horizonopt.nonconcave import InnerRootError


def write_config(path, **overrides):
    path.write_text(yaml.safe_dump(overrides), encoding="utf-8")
    return str(path)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    return header, data


def json_line(err):
    """The failure record, which must be the one line written to stderr."""
    assert err.endswith("\n") and err.count("\n") == 1
    return json.loads(err)


def summary_value(out_dir, column, cast=float):
    header, data = read_csv(out_dir / "summary.csv")
    return cast(data[0][header.index(column)])


class TestConfig:
    def test_defaults_are_the_baseline_table(self):
        cfg = ExperimentConfig.from_mapping({})
        assert cfg.market.mu == 0.08 and cfg.market.r == 0.03 and cfg.market.sigma == 0.2
        assert cfg.contract.gamma == 3.0
        assert cfg.contract.participation == 0.25
        assert cfg.contract.threshold == 50.0
        assert cfg.contract.guarantee == 1.0
        assert cfg.horizon.dates == (8.0,) and cfg.horizon.probs == (0.5,)
        assert cfg.horizon.terminal == 12.0
        assert cfg.x0 == 100.0
        assert cfg.t_tilde == 10.0
        assert cfg.n_paths == 100_000
        assert cfg.experiment in EXPERIMENTS

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_mapping({"marktet": {}})
        with pytest.raises(ValueError, match="unknown keys under"):
            ExperimentConfig.from_mapping({"market": {"mu": 0.08, "vol": 0.2}})

    def test_rejects_invalid_values(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_mapping({"market": {"sigma": -0.1}})
        with pytest.raises(ValueError):
            ExperimentConfig.from_mapping({"experiment": "nonesuch"})
        with pytest.raises(ValueError):
            ExperimentConfig.from_mapping({"horizon": {"dates": [13.0]}})


class TestRun:
    def test_invalid_config_is_machine_readable(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("experiment: nonesuch\n", encoding="utf-8")
        status = run(str(cfg), out_dir=str(tmp_path / "out"))
        assert status == 2
        record = json_line(capsys.readouterr().err)
        assert record["error"] == "invalid-config"

    @pytest.mark.parametrize(
        "overrides",
        [
            {"horizon": {"dates": 8.0, "probs": 0.5}},
            {"sweep": {"prob_grid": 0.5}},
            {"market": {"mu": None}},
            {"contract": {"gamma": [3.0]}},
            {"n_paths": None},
        ],
        ids=["scalar-dates", "scalar-grid", "null-mu", "list-gamma", "null-paths"],
    )
    def test_wrong_type_is_invalid_config(self, tmp_path, capsys, overrides):
        cfg = write_config(tmp_path / "c.yaml", experiment="merton", **overrides)
        assert run(cfg, out_dir=str(tmp_path / "out")) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "invalid-config"

    @pytest.mark.parametrize(
        "horizon",
        [{"dates": [], "probs": []}, {"dates": [4.0, 8.0], "probs": [0.2, 0.3]}],
        ids=["no-date", "two-dates"],
    )
    def test_figure2_needs_one_interior_date(self, tmp_path, capsys, horizon):
        cfg = write_config(
            tmp_path / "c.yaml",
            experiment="figure2-sweep",
            horizon=horizon,
            n_paths=10_000,
            sweep={"prob_grid": [0.5]},
        )
        out = tmp_path / "out"
        assert run(cfg, out_dir=str(out)) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "invalid-config" and "one interior" in record["message"]
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize(
        "horizon",
        [{"dates": [], "probs": []}, {"dates": [4.0, 8.0], "probs": [0.2, 0.3]}],
        ids=["no-date", "two-dates"],
    )
    def test_figure1_needs_one_interior_date(self, tmp_path, capsys, horizon):
        cfg = write_config(
            tmp_path / "c.yaml",
            experiment="figure1-sweep",
            horizon=horizon,
            n_paths=10_000,
            sweep={"spread_grid": [1.0]},
        )
        out = tmp_path / "out"
        assert run(cfg, out_dir=str(out)) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "invalid-config" and "one interior" in record["message"]
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize(
        "experiment, sweep",
        [("figure1-sweep", {"spread_grid": []}), ("figure2-sweep", {"prob_grid": []})],
        ids=["figure1", "figure2"],
    )
    def test_empty_sweep_grid_is_invalid_config(self, tmp_path, capsys, experiment, sweep):
        # a sweep without grid points has no rows and so no columns to write
        cfg = write_config(tmp_path / "c.yaml", experiment=experiment, n_paths=10_000, sweep=sweep)
        out = tmp_path / "out"
        assert run(cfg, out_dir=str(out)) == 2
        record = json_line(capsys.readouterr().err)
        assert record["error"] == "invalid-config" and "non-empty" in record["message"]
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize(
        "key, value",
        [("n_paths", 10_000.7), ("seed", 1.5), ("workers", 0.5), ("n_paths", math.inf)],
        ids=["fractional-paths", "fractional-seed", "fractional-workers", "infinite-paths"],
    )
    def test_non_integral_count_is_invalid_config(self, tmp_path, capsys, key, value):
        # truncating 10000.7 to 10000 would run a config the user did not write
        overrides = {"experiment": "merton", "n_paths": 10_000, key: value}
        cfg = write_config(tmp_path / "c.yaml", **overrides)
        out = tmp_path / "out"
        assert run(cfg, out_dir=str(out)) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "invalid-config"
        assert f"{key} must be an integer" in record["message"]
        assert not (out / "solution.csv").exists()

    @pytest.mark.parametrize("form", ["yaml", "flag"])
    def test_workers_below_one_is_invalid_config(self, tmp_path, capsys, form):
        out = tmp_path / "out"
        if form == "yaml":
            cfg = write_config(tmp_path / "c.yaml", experiment="merton", workers=0)
            status = run(cfg, out_dir=str(out))
        else:
            cfg = write_config(tmp_path / "c.yaml", experiment="merton")
            status = main(["--config", cfg, "--out-dir", str(out), "--workers", "-3"])
        assert status == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "invalid-config" and "workers" in record["message"]
        assert not (out / "solution.csv").exists()

    def test_inner_root_failure_is_machine_readable(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise InnerRootError("no sign change on the feasible multiplier interval")

        monkeypatch.setattr(cli, "solve_uncertain_horizon", fail)
        cfg = write_config(tmp_path / "c.yaml", experiment="uncertain-horizon")
        assert run(cfg, out_dir=str(tmp_path / "out")) == 4
        record = json_line(capsys.readouterr().err)
        assert record == {
            "error": "inner-root",
            "message": "no sign change on the feasible multiplier interval",
        }

    def test_unresolved_inner_root_exits_four(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.yaml", market={"mu": 0.5, "r": 0.03, "sigma": 0.1}, n_paths=10_000, seed=1
        )
        out = tmp_path / "out"
        assert run(cfg, out_dir=str(out)) == 4
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "inner-root" and "inner residual" in record["message"]
        assert not (out / "solution.csv").exists()

    def test_non_convergence_is_machine_readable(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", x0=5.0, budget_tol=1e-4, n_paths=10_000, seed=1)
        assert run(cfg, out_dir=str(tmp_path / "out")) == 3
        record = json_line(capsys.readouterr().err)
        assert record["error"] == "non-convergence" and "budget residual" in record["message"]
        assert record["history"] and all(len(entry) == 2 for entry in record["history"])

    def test_merton_summary_contains_fraction(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", experiment="merton", n_paths=20_000)
        out = tmp_path / "out"
        assert run(cfg, out_dir=str(out)) == 0
        fraction = summary_value(out, "fraction")
        assert abs(fraction - 5.0 / 12.0) <= 1e-12
        header, data = read_csv(out / "solution.csv")
        assert header[0] == "path" and len(data) == 20_000

    def test_uncertain_summary_budget_residual(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.yaml", experiment="uncertain-horizon", n_paths=20_000, seed=4
        )
        out = tmp_path / "out"
        assert run(cfg, out_dir=str(out)) == 0
        assert summary_value(out, "budget_residual") <= 1e-3
        header, _ = read_csv(out / "solution.csv")
        assert "nu_t1" in header and "stopped_wealth" in header

    def test_fixed_horizon_run(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.yaml", experiment="fixed-horizon", n_paths=20_000, seed=4
        )
        out = tmp_path / "out"
        assert run(cfg, out_dir=str(out)) == 0
        assert summary_value(out, "horizon") == 10.0
        assert summary_value(out, "budget_residual") <= 1e-10

    def test_figure2_sweep_ce_monotone(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.yaml",
            experiment="figure2-sweep",
            n_paths=20_000,
            seed=4,
            sweep={"prob_grid": [0.2, 0.5, 0.8]},
        )
        out = tmp_path / "out"
        assert run(cfg, out_dir=str(out)) == 0
        header, data = read_csv(out / "sweep.csv")
        ce = [float(row[header.index("ce")]) for row in data]
        steps = [float(row[header.index("ce_step")]) for row in data[1:]]
        step_ses = [float(row[header.index("ce_step_se")]) for row in data[1:]]
        assert all(a > b for a, b in zip(ce, ce[1:]))
        assert all(s < -3 * se for s, se in zip(steps, step_ses))

    def test_figure2_sweep_solves_with_the_configured_workers(self, tmp_path, monkeypatch):
        workers = []
        solve = cli.solve_uncertain_horizon

        def recorded(*args, **kwargs):
            workers.append(kwargs.get("n_workers"))
            return solve(*args, **kwargs)

        monkeypatch.setattr(cli, "solve_uncertain_horizon", recorded)
        cfg = write_config(
            tmp_path / "c.yaml",
            experiment="figure2-sweep",
            n_paths=10_000,
            seed=4,
            workers=3,
            sweep={"prob_grid": [0.2, 0.5]},
        )
        assert run(cfg, out_dir=str(tmp_path / "out"), quiet=True) == 0
        assert workers == [3, 3]

    @pytest.mark.parametrize(
        "experiment, sweep",
        [("figure1-sweep", {"spread_grid": [1.0, 2.0, 3.0]}),
         ("figure2-sweep", {"prob_grid": [0.2, 0.5, 0.8]})],
        ids=["figure1", "figure2"],
    )
    def test_sweeps_start_from_the_previous_c_star(self, tmp_path, monkeypatch, experiment, sweep):
        starts, found = [], []
        solve = cli.solve_uncertain_horizon

        def recorded(*args, **kwargs):
            starts.append(kwargs.get("c_start"))
            sol = solve(*args, **kwargs)
            found.append(sol.c_star)
            return sol

        monkeypatch.setattr(cli, "solve_uncertain_horizon", recorded)
        cfg = write_config(
            tmp_path / "c.yaml", experiment=experiment, n_paths=10_000, seed=4, sweep=sweep
        )
        assert run(cfg, out_dir=str(tmp_path / "out"), quiet=True) == 0
        assert starts == [None] + found[:-1]

    def test_figure1_sweep_emits_grid(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.yaml",
            experiment="figure1-sweep",
            n_paths=20_000,
            seed=4,
            sweep={"spread_grid": [1.0, 3.0]},
        )
        out = tmp_path / "out"
        assert run(cfg, out_dir=str(out)) == 0
        header, data = read_csv(out / "sweep.csv")
        assert [float(r[header.index("var_tau")]) for r in data] == [1.0, 9.0]
        variances = [float(r[header.index("variance")]) for r in data]
        assert variances[1] > variances[0]

    def test_overrides_and_quiet(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", experiment="merton", n_paths=50_000)
        out = tmp_path / "out"
        assert run(cfg, out_dir=str(out), n_paths=12_000, quiet=True) == 0
        _, data = read_csv(out / "solution.csv")
        assert len(data) == 12_000
        assert capsys.readouterr().out == ""

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "c.yaml", experiment="merton", n_paths=20_000)
        target = tmp_path / "from-env"
        monkeypatch.setenv("HORIZONOPT_OUT_DIR", str(target))
        monkeypatch.chdir(tmp_path)
        assert run(cfg) == 0
        assert (target / "summary.csv").exists()


class TestDeterminism:
    def test_byte_identical_across_runs_and_workers(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.yaml", experiment="uncertain-horizon", n_paths=15_000, seed=9
        )
        outputs = []
        for name, workers in (("a", None), ("b", None), ("c", 4)):
            out = tmp_path / name
            assert run(cfg, out_dir=str(out), workers=workers, quiet=True) == 0
            outputs.append(
                (
                    (out / "solution.csv").read_bytes(),
                    (out / "summary.csv").read_bytes(),
                )
            )
        assert outputs[0] == outputs[1] == outputs[2]

    def test_twelve_significant_digits(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", experiment="merton", n_paths=20_000)
        out = tmp_path / "out"
        assert run(cfg, out_dir=str(out)) == 0
        header, data = read_csv(out / "solution.csv")
        wealth = data[0][header.index("wealth")]
        mantissa = wealth.replace("-", "").replace(".", "").lstrip("0").split("e")[0]
        assert len(mantissa) == 12


class TestWriteCsv:
    def test_bytes_by_column_type(self, tmp_path):
        path = tmp_path / "t.csv"
        floats = np.array([0.1, -1.0 / 3.0, 1e-300, 1e16, math.inf, math.nan])
        names = ["merton", "fixed-horizon"] * 3
        cli._write_csv(path, {"path": np.arange(6), "experiment": names, "x": floats})
        assert path.read_bytes() == (
            b"path,experiment,x\n"
            b"0,merton,0.1\n"
            b"1,fixed-horizon,-0.333333333333\n"
            b"2,merton,1e-300\n"
            b"3,fixed-horizon,1e+16\n"
            b"4,merton,inf\n"
            b"5,fixed-horizon,nan\n"
        )

    def test_one_row_of_python_scalars(self, tmp_path):
        path = tmp_path / "t.csv"
        cli._write_csv(path, {"experiment": "merton", "seed": 20240811, "p1": 0.1})
        assert path.read_bytes() == b"experiment,seed,p1\nmerton,20240811,0.1\n"

    def test_empty_table_is_the_header(self, tmp_path):
        path = tmp_path / "t.csv"
        cli._write_csv(path, {"p1": [], "ce": []})
        assert path.read_bytes() == b"p1,ce\n"

    def test_ragged_table_raises_and_writes_nothing(self, tmp_path):
        with pytest.raises(ValueError, match="different lengths"):
            cli._write_csv(tmp_path / "t.csv", {"a": [1, 2], "b": [1.0]})
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "n", [3 * cli._PART_ROWS + 5, 2 * cli._PART_ROWS - 1, 2 * cli._PART_ROWS]
    )
    def test_parts_give_the_same_bytes(self, monkeypatch, tmp_path, n):
        edges = [math.inf, math.nan, -0.0, 1e-300, 1e16, -math.inf]
        x = np.random.default_rng(n).standard_normal(n) * 1e3
        x[: len(edges)] = edges
        x[-len(edges):] = edges
        y = x[::-1] / 7.0
        table = {"path": np.arange(n), "x": x, "y": y}
        expected = b"path,x,y\n" + "".join(
            "%s,%.12g,%.12g\n" % cells for cells in zip(range(n), x.tolist(), y.tolist())
        ).encode()
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(n) or fork())
        for workers in (1, 2, 3, 4):
            path = tmp_path / f"w{workers}.csv"
            cli._write_csv(path, table, workers)
            assert path.read_bytes() == expected
            assert len(forks) == max(1, min(workers, n // cli._PART_ROWS)) - 1
            forks.clear()
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["w1.csv", "w2.csv", "w3.csv", "w4.csv"]

    def test_small_tables_never_fork(self, monkeypatch, tmp_path):
        def no_fork():
            raise AssertionError("forked for a small table")

        monkeypatch.setattr(os, "fork", no_fork)
        n = 2 * cli._PART_ROWS - 1
        cli._write_csv(tmp_path / "a.csv", {"path": np.arange(n), "x": np.zeros(n)}, 4)
        cli._write_csv(tmp_path / "b.csv", {"experiment": "merton", "ce": 1.5}, 4)
        assert (tmp_path / "b.csv").read_bytes() == b"experiment,ce\nmerton,1.5\n"

    class Unprintable:
        def __str__(self):
            raise RuntimeError("unprintable cell")

    def unprintable_at(self, n, i):
        cells = np.arange(n).astype(object)
        cells[i] = self.Unprintable()
        return {"cell": cells, "x": np.ones(n)}

    def test_failing_child_raises_and_leaves_nothing(self, tmp_path):
        # the last cell lies in the child's part
        n = 2 * cli._PART_ROWS
        with pytest.raises(OSError, match="failed"):
            cli._write_csv(tmp_path / "t.csv", self.unprintable_at(n, n - 1), 2)
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failing_parent_part_reaps_children(self, tmp_path):
        n = 3 * cli._PART_ROWS
        with pytest.raises(RuntimeError, match="unprintable"):
            cli._write_csv(tmp_path / "t.csv", self.unprintable_at(n, 0), 3)
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
