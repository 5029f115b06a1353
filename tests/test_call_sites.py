"""The names perfbench's tracer wraps must resolve in their modules.

``perfbench/trace.py`` replaces each name in ``CALL_SITES`` with a timing
wrapper; a refactor that renames or drops one of these imports otherwise
shows only in a traced benchmark run.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "trace.py"


def _call_sites() -> dict[str, tuple[str, ...]]:
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CALL_SITES


@pytest.mark.parametrize(
    "module_name, names", [pytest.param(m, n, id=m) for m, n in sorted(_call_sites().items())]
)
def test_call_sites_resolve(module_name, names):
    module = importlib.import_module(module_name)
    assert [n for n in names if not callable(getattr(module, n, None))] == []
