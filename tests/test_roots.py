"""The package's three root routines: newton, flip and calibrate."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import horizonopt
from horizonopt._roots import _MAX_STEPS, ConvergenceError, calibrate, flip, newton

EPS = np.finfo(float).eps


def running(r, values):
    """``fun(u, keep)`` for newton on F_i(u) = values(r_i, u): drops r_i as row i finishes."""
    r = [np.asarray(r, dtype=float)]

    def fun(u, keep):
        if keep is not None:
            r[0] = r[0][keep]
        return values(r[0], u)

    return fun


def test_newton_brackets_decreasing_functions():
    r = np.array([1e-3, 0.7, 2.0, 5.5, 9.9, 3.3])
    # the sign of F is exact in floating point; Newton points outside [0, 10] take the midpoint
    for start in (0.0, 10.0, 5.0):
        fun = running(r, lambda r, u: ((r - u) * (1.0 + u * u), u * (2.0 * r - 3.0 * u) - 1.0))
        x = newton(fun, np.full(r.size, start), 0.0, 10.0)
        assert np.all(np.abs(x - r) <= 4 * EPS * np.maximum(1.0, r))


def test_newton_stops_at_an_exact_zero():
    # the first Newton point is the root; F there is 0 and is not refined further
    calls = []

    def fun(u, keep):
        calls.append(u.copy())
        return 0.5 - u, np.full_like(u, -1.0)

    assert newton(fun, np.array([0.0]), 0.0, 1.0).tolist() == [0.5]
    assert len(calls) == 2


def test_newton_finds_the_jump_of_a_step_function():
    # F_u = 0: every Newton point is infinite, so each step bisects the bracket
    def fun(u, keep):
        return np.where(u < 0.3, 1.0, -1.0), np.zeros_like(u)

    (x,) = newton(fun, np.array([0.9]), 0.0, 1.0)
    assert abs(x - 0.3) <= 4 * EPS * 0.3


def test_newton_writes_each_rows_last_slope_in_row_order():
    # F = r - u^3: the rows finish after different numbers of steps
    r = np.array([8.0, 1e-3, 27.0, 0.5, 1e3])
    sizes = []

    def values(r_rows, u):
        sizes.append(r_rows.size)
        return r_rows - u**3, -3.0 * u * u

    u = np.ones(r.size)
    x = newton(running(r, values), u, 0.0, 20.0, slope=u)  # slope may be the start array
    assert len(set(sizes)) > 2
    assert np.all(np.abs(x - np.cbrt(r)) <= 4 * EPS * np.maximum(1.0, np.cbrt(r)))
    # F_u at the last point, one step short of the root
    assert u == pytest.approx(-3.0 * np.cbrt(r) ** 2, rel=1e-7, abs=0.0)


@pytest.mark.parametrize("start", [0.3 - 40 * 2**-54, 0.3, 0.3 + 40 * 2**-54])
def test_flip_walks_to_the_adjacent_doubles_from_either_side(start):
    assert flip(lambda x: x <= 0.3, start) == (0.3, math.nextafter(0.3, math.inf))


def test_flip_gives_up_after_max_steps():
    calls = []

    def test(x):
        calls.append(x)
        return x <= 0.3

    assert flip(test, 0.3 - 1e-9) is None
    assert len(calls) == _MAX_STEPS + 1


def test_calibrate_starts_from_either_side():
    # B = 5 - log C crosses x0 = 2 at log C = 3
    for u0 in (-20.0, 3.0, 40.0):
        c, history, jump = calibrate(lambda c: (5.0 - math.log(c), -1.0), 2.0, u0, 0.0)
        assert abs(math.log(c) - 3.0) <= 1e-12
        assert jump is None and len(history) <= 60


def test_calibrate_without_sign_change_raises_with_every_evaluation():
    calls = []

    def budget_and_slope(c):
        calls.append((c, 1.0 / c))
        return 1.0 / c, -1.0 / c

    with pytest.raises(ConvergenceError, match="no sign change") as info:
        calibrate(budget_and_slope, 0.0, 0.0, 0.0)
    assert info.value.history == tuple((c, b) for c, b in calls) and len(calls) > 1


def test_cli_import_leaves_scipy_optimize_out():
    src = str(Path(horizonopt.__file__).resolve().parents[1])
    code = "import sys, horizonopt.cli; sys.exit('scipy.optimize' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, timeout=60
    )
    assert done.returncode == 0
