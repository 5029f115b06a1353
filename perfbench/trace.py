"""Spans around the calls one horizonopt module makes into another.

The program is not changed: ``Tracer.install`` replaces, in each calling
module's namespace, the names it imported from another layer with timing
wrappers, and ``uninstall`` puts the originals back. A span is recorded
only inside ``Tracer.operation``; spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# Caller module -> the public names it calls in other layers. "horizonopt"
# stands for a library user calling the package's top-level API.
CALL_SITES = {
    "horizonopt.cli": (
        "certainty_equivalent", "compare_to_fixed", "expected_utility", "stopped_samples",
        "stopped_variance", "solve_merton", "simulate_paths", "solve_fixed_horizon",
        "solve_uncertain_horizon", "inverse_marginal", "payoff_value",
    ),
    "horizonopt.analytics": ("bridge_insert", "solve_fixed_horizon", "inverse_marginal", "payoff_value"),
    "horizonopt.nonconcave": (
        "simulate_paths", "f_factor", "g_factor", "norm_pdf", "state_price_density",
        "inverse_marginal",
    ),
    "horizonopt.concave": ("f_factor",),
    "horizonopt": (
        "solve_uncertain_horizon", "stopped_samples", "expected_utility", "certainty_equivalent",
        "solve_merton", "simulate_paths", "solve_fixed_horizon", "inverse_marginal", "payoff_value",
    ),
}

LAYERS = ("market", "payoff", "concave", "nonconcave", "analytics", "cli")

# The solver's return value carries the outer evaluation count and the T1
# column that the inner-solve probe reuses.
_KEPT_RESULTS = "nonconcave.solve_uncertain_horizon"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, op, name, caller, start, end)
        self.kept: list = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._next = 0
        self._originals: list[tuple] = []

    def wrap(self, fn, caller: str):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        keep = name == _KEPT_RESULTS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            sid = self._next
            self._next += 1
            parent = self._stack[-1]
            self._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, self._op, name, caller, start, end))
            if keep:
                self.kept.append(result)
            return result

        return traced

    def install(self) -> None:
        for module_name, names in CALL_SITES.items():
            module = importlib.import_module(module_name)
            caller = module_name.rsplit(".", 1)[-1]
            for attr in names:
                original = getattr(module, attr)
                self._originals.append((module, attr, original))
                setattr(module, attr, self.wrap(original, caller))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    @contextmanager
    def operation(self, op: int):
        """Root span of one operation.

        Its self time is the time spent outside every wrapped call: the
        CLI's own work on CLI workloads, the calling loop on the library one.
        It is booked to the cli layer.
        """
        sid = self._next
        self._next += 1
        self._op = op
        self._stack.append(sid)
        self.kept.clear()
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self._op = None
            self.spans.append((sid, None, op, "cli.operation", "benchmark", start, end))

    def dump(self, path) -> None:
        keys = ("id", "parent", "op", "name", "caller", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def op_breakdown(spans, op: int) -> dict:
    """Per-layer self time and inclusive time per span name for one operation."""
    mine = [s for s in spans if s[2] == op]
    covered = defaultdict(float)
    for _, parent, _, _, _, start, end in mine:
        if parent is not None:
            covered[parent] += end - start
    self_s = dict.fromkeys(LAYERS, 0.0)
    inclusive = defaultdict(float)
    calls_from = defaultdict(float)
    root = 0.0
    for sid, parent, _, name, caller, start, end in mine:
        layer = name.split(".", 1)[0]
        self_s[layer] += (end - start) - covered[sid]
        inclusive[name] += end - start
        calls_from[(caller, name)] += end - start
        if parent is None:
            root = end - start
    return {"self": self_s, "inclusive": inclusive, "from": calls_from, "op_s": root,
            "spans": len(mine)}


def span_cost(reps: int = 20000) -> float:
    """Seconds one traced call adds over a direct call, measured here."""

    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap(noop, "benchmark")
    costs = []
    for _ in range(5):
        with tracer.operation(0):
            start = perf_counter()
            for _ in range(reps):
                traced()
            wrapped = perf_counter() - start
        start = perf_counter()
        for _ in range(reps):
            noop()
        direct = perf_counter() - start
        tracer.spans.clear()
        costs.append((wrapped - direct) / reps)
    return sorted(costs)[len(costs) // 2]
