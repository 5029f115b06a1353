"""The package namespace is the union of its modules' ``__all__`` lists."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import horizonopt
from horizonopt import analytics, concave, market, nonconcave, payoff

MODULES = (market, payoff, concave, nonconcave, analytics)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_names_resolve_on_the_package(module):
    unbound = [n for n in module.__all__ if getattr(horizonopt, n, None) is not getattr(module, n)]
    assert unbound == []
    assert set(module.__all__) <= set(horizonopt.__all__)


def test_package_all_has_no_duplicates():
    assert len(horizonopt.__all__) == len(set(horizonopt.__all__))
    assert "__version__" in horizonopt.__all__


def test_star_import_binds_every_name():
    code = (
        "import json\n"
        "from horizonopt import *\n"
        "import horizonopt\n"
        "print(json.dumps([n for n in horizonopt.__all__ if n not in globals()]))\n"
    )
    src = str(Path(horizonopt.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(out.stdout) == []
