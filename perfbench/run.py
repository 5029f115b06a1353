"""Benchmark horizonopt on one workload and check its outputs.

Usage, from the repository root:

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload's operations, at least the workload's
minimum count, and ends at the round boundary nearest to ``--seconds``.
Then it checks the outputs against the reference module, and prints one
line per metric followed by a JSON line with ``correct``, ``attempted``,
``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
calls between horizonopt's modules and reports per-layer metrics instead.
Exits 1 when a check fails and 2 when the program is not found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RESULTS = ROOT / "perfbench" / "results"
sys.path.insert(0, str(ROOT))

from perfbench import trace  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

# Fresh interpreters timed for set-up; the median is reported.
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60


def probe_setup(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def more_rounds(elapsed: float, rounds: int, seconds: float) -> bool:
    """Whether another round brings the run's length nearer to ``seconds``.

    A run ends at the round boundary nearest to ``seconds``, judged by the
    mean round time so far, so its length does not overshoot by up to a
    whole round as a plain deadline would.
    """
    return elapsed + 0.5 * elapsed / rounds < seconds


def source_digest() -> str:
    """Identifies the program, libraries and workload definitions whose
    outputs must repeat exactly."""
    import numpy
    import scipy

    h = hashlib.sha256(f"{sys.version}|{numpy.__version__}|{scipy.__version__}".encode())
    h.update((ROOT / "perfbench" / "workloads.py").read_bytes())
    for path in sorted((SRC / "horizonopt").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def round_fingerprints(per_op: list, round_ops: int) -> list[str]:
    """One fingerprint per round in which every operation completed."""
    rounds = [per_op[i:i + round_ops] for i in range(0, len(per_op), round_ops)]
    return [hashlib.sha256("".join(r).encode()).hexdigest() for r in rounds if None not in r]


def check_repeats(workload: str, seed: int, fingerprints: list[str]) -> list[str]:
    """Outputs of one seed must be identical across rounds and runs.

    Each run records its output fingerprint under (workload, seed, source
    digest), so a later run of the same seed on the same sources, traced
    or not, is compared with it. A changed source file starts afresh.
    """
    if not fingerprints:
        return []
    store = RESULTS / "fingerprints.json"
    known = json.loads(store.read_text(encoding="utf-8")) if store.is_file() else {}
    key = f"{workload}|{seed}|{source_digest()}"
    expected = known.setdefault(key, fingerprints[0])
    differ = sum(f != expected for f in fingerprints)
    if differ:
        return [f"determinism: {differ} of {len(fingerprints)} rounds differ from the "
                f"output of an earlier round on seed {seed}"]
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")
    tmp.replace(store)
    return []


def median(values) -> float:
    return float(statistics.median(values))


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(ops, setups, workload, peak_rss_mb) -> dict:
    walls = [op["wall"] for op in ops]
    return {
        "setup_s": metric(median(s["import_s"] + s["contract_s"] for s in setups), "s"),
        "op_s": metric(median(walls), "s"),
        "paths_per_s": metric(len(ops) * workload.paths_per_op / sum(walls), "paths/s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }


def per_layer(ops, setups, span_cost_s) -> dict:
    def med(fn):
        return median(fn(op) for op in ops)

    def solve_s(op):
        return op["trace"]["inclusive"].get("nonconcave.solve_uncertain_horizon", 0.0)

    def eval_ns(op):
        evals = op["outer_evals"]
        return solve_s(op) / evals / op["n_paths"] * 1e9 if evals else 0.0

    stats = ("stopped_samples", "expected_utility", "stopped_variance", "certainty_equivalent")
    out = {
        "nonconcave.solve_s": metric(med(solve_s), "s"),
        "nonconcave.outer_evals": metric(med(lambda op: op["outer_evals"]), "count"),
        "nonconcave.eval_ns_per_path": metric(med(eval_ns), "ns"),
        "nonconcave.inner_solve_s": metric(med(lambda op: op["inner_solve_s"]), "s"),
        "analytics.compare_s": metric(
            med(lambda op: op["trace"]["inclusive"].get("analytics.compare_to_fixed", 0.0)), "s"
        ),
        "analytics.stats_s": metric(med(lambda op: sum(
            t for (caller, name), t in op["trace"]["from"].items()
            if caller != "analytics" and name.split(".", 1)[1] in stats
        )), "s"),
        "market.simulate_s": metric(
            med(lambda op: op["trace"]["inclusive"].get("market.simulate_paths", 0.0)), "s"
        ),
        "payoff.inverse_marginal_s": metric(med(lambda op: sum(
            op["trace"]["from"].get((caller, "payoff.inverse_marginal"), 0.0)
            for caller in ("cli", "horizonopt")
        )), "s"),
        "cli.write_mb_per_s": metric(
            med(lambda op: op["bytes"] / 1e6 / op["trace"]["self"]["cli"]), "MB/s"
        ),
        "process.cpu_s": metric(med(lambda op: op["cpu"]), "s"),
        "process.cpu_per_wall": metric(med(lambda op: op["cpu"] / op["wall"]), "ratio"),
        "setup.import_s": metric(median(s["import_s"] for s in setups), "s"),
        "setup.contract_s": metric(median(s["contract_s"] for s in setups), "s"),
        "trace.overhead_s": metric(med(lambda op: op["trace"]["spans"] * span_cost_s), "s"),
        "trace.op_s": metric(med(lambda op: op["trace"]["op_s"]), "s"),
    }
    for layer in trace.LAYERS:
        out[f"{layer}.self_s"] = metric(med(lambda op: op["trace"]["self"][layer]), "s")
    return out


def inner_solve_probe(solution) -> float:
    """Time one public inner solve on the solution's T1 column at c_star."""
    from horizonopt.nonconcave import solve_inner_nu_T

    start = perf_counter()
    solve_inner_nu_T(solution.h_T1, solution.w_T1, solution.c_star, solution.spec)
    return perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "horizonopt" / "__init__.py").is_file():
        print(f"horizonopt sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    setups = [probe_setup(workload.name, args.seed) for _ in range(SETUP_PROBES)]

    run_dir = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    state = workload.prepare(args.seed, run_dir)
    tracer = trace.Tracer() if args.trace else None
    if tracer:
        tracer.install()

    ops, fingerprints, first_round = [], [], []
    attempted = failed = 0
    start = perf_counter()
    while (attempted < workload.min_ops or attempted % workload.round_ops
           or more_rounds(perf_counter() - start, attempted // workload.round_ops, args.seconds)):
        index = attempted
        opdir = run_dir / f"op{index}"
        attempted += 1
        t0, c0 = perf_counter(), process_time()
        try:
            with tracer.operation(index) if tracer else nullcontext():
                result = workload.run_op(state, opdir, index)
        except Exception:  # a failed operation is counted and the run goes on
            failed += 1
            fingerprints.append(None)
            traceback.print_exc()
            continue
        finally:
            wall, cpu = perf_counter() - t0, process_time() - c0
        op = {"wall": wall, "cpu": cpu, "bytes": workload.bytes_written(result)}
        if tracer:
            op["trace"] = trace.op_breakdown(tracer.spans, index)
            op["outer_evals"] = sum(len(s.bracket_history) for s in tracer.kept)
            op["n_paths"] = tracer.kept[-1].n_paths if tracer.kept else 0
            op["inner_solve_s"] = inner_solve_probe(tracer.kept[-1]) if tracer.kept else 0.0
        ops.append(op)
        fingerprints.append(workload.fingerprint(result))
        if index < workload.round_ops:
            first_round.append(result)
        else:
            shutil.rmtree(opdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    if len(first_round) == workload.round_ops:
        fails = workload.check(first_round)
    else:
        fails = ["the first round of operations did not complete"]
    fails += check_repeats(workload.name, args.seed, round_fingerprints(fingerprints, workload.round_ops))

    if tracer:
        tracer.dump(run_dir / "spans.jsonl")
        metrics = per_layer(ops, setups, trace.span_cost()) if ops else {}
    else:
        metrics = end_to_end(ops, setups, workload, peak_rss_mb) if ops else {}
    for child in run_dir.glob("op*"):
        shutil.rmtree(child, ignore_errors=True)

    for fail in fails:
        print(f"CHECK FAILED {fail}")
    print(f"{workload.name}: attempted {attempted}, failed {failed}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    result_line = {"correct": not fails, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = dict(result_line, op_walls=[op["wall"] for op in ops])
    (run_dir / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result_line))
    return 0 if not fails else 1


if __name__ == "__main__":
    sys.exit(main())
