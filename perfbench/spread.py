"""Run workloads once per seed and report each metric's median and spread.

Usage, from the repository root (the defaults run every workload):

    python3 perfbench/spread.py --workloads table1 zero-branch --seeds 1-10 --seconds 20 --trace 0

The spread is the distance between the first and third quartile of the
runs' values (``statistics.quantiles(values, n=4)``) as a share of their
median. The runs are appended to perfbench/results/spread.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(workload: str, seeds: list[int], seconds: int, trace: int) -> int:
    runs = []
    for seed in seeds:
        start = perf_counter()
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        wall = perf_counter() - start
        if done.returncode != 0:
            print(done.stdout + done.stderr, file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "run_s": wall, **result})
        print(f"{workload} seed {seed}: {wall:.1f} s, attempted {result['attempted']}, "
              f"failed {result['failed']}", flush=True)

    results = ROOT / "perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / "spread.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": workload, "trace": trace, "seconds": seconds,
                             "runs": runs}) + "\n")

    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        mid = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (mid, mid, mid)
        share = (q3 - q1) / mid if mid else float("nan")
        print(f"{workload:12s} {name:30s} median {mid:12.6g} {first['unit']:8s} spread {share:7.2%}")
    print(f"{workload:12s} {'run wall':30s} median {statistics.median(r['run_s'] for r in runs):12.6g} s")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=["table1", "prob-sweep", "closed-form", "zero-branch"])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for workload in args.workloads:
        status = spread(workload, args.seeds, args.seconds, args.trace)
        if status:
            return status
    return 0


if __name__ == "__main__":
    sys.exit(main())
