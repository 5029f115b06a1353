"""Time a workload's set-up in a fresh interpreter and print it as JSON.

Usage: python3 perfbench/setup_probe.py <workload> <seed>

Set-up is importing horizonopt and building the workload's config and
problem objects (which solves each contract's tangency point).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import WORKLOADS  # noqa: E402

workload = WORKLOADS[sys.argv[1]]
start = perf_counter()
module = __import__(workload.program, fromlist=["_"])
imported = perf_counter()
workload.build(int(sys.argv[2]))
built = perf_counter()

if not Path(module.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"imported {module.__file__}, not the copy under {ROOT / 'src'}")
print(json.dumps({"import_s": imported - start, "contract_s": built - imported}))
