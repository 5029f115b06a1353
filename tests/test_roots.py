"""The package's one bracketing root finder and its log-scale bracket walk."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import horizonopt
from horizonopt._roots import log_root, root

EPS = np.finfo(float).eps


def test_root_mixes_increasing_and_decreasing_functions():
    r = np.array([1e-3, 0.7, 2.0, 5.5, 9.9, 3.3])
    sign = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    a = np.array([0.0, 0.0, 10.0, 0.0, 10.0, 10.0])  # some brackets run backwards
    b = 10.0 - a

    for r_i, sign_i, a_i, b_i in zip(r, sign, a, b):

        def f(x):
            return sign_i * (x - r_i) * (1.0 + x * x)  # the sign is exact in floating point

        x = root(f, a_i, b_i, f(a_i), f(b_i))
        assert abs(x - r_i) <= 4 * EPS * abs(x)


def test_root_finds_the_jump_of_a_step_function():
    jump = 0.3

    def f(x):
        return np.where(x < jump, 1.0, -1.0)

    x = root(f, 0.0, 1.0, 1.0, -1.0)
    assert abs(x - jump) <= 4 * EPS * jump


def test_root_stops_at_an_exact_zero_on_the_first_midpoint():
    points = []

    def f(x):
        points.append(float(x))
        return x - 0.5

    assert root(f, 0.0, 1.0, -0.5, 0.5) == 0.5
    assert points == [0.5]


def test_log_root_lists_each_multiplier_once():
    u, history = log_root(lambda u: math.exp(-u), -3.0, 0.37)
    assert abs(u + math.log(0.37)) <= 1e-12
    multipliers = [m for m, _ in history]
    assert len(set(multipliers)) == len(multipliers) > 3
    assert all(math.isclose(v, 1.0 / m, rel_tol=1e-12) for m, v in history)


def test_log_root_newton_needs_fewer_evaluations_than_the_walk():
    def value(u):
        return math.exp(-u), -math.exp(-u)

    for u0 in (-3.0, 0.0, 4.0):
        u, history = log_root(value, u0, 0.37, slope=True)
        walked = log_root(lambda u: value(u)[0], u0, 0.37)[1]
        assert abs(u + math.log(0.37)) <= 1e-12
        assert len(history) < len(walked)


def test_log_root_newton_leaves_a_jump_to_root():
    # a step of 0.2 across the target at u = 1; the slope does not see it
    def value(u):
        return 1.0 - 0.01 * u - (0.2 if u >= 1.0 else 0.0), -0.01

    for u0 in (-2.0, 0.9, 1.1, 3.0):
        u, history = log_root(value, u0, 0.9, xtol=1e-13, slope=True)
        assert abs(u - 1.0) <= 1e-12
        assert len(history) <= 60


def test_log_root_newton_stops_on_a_step_below_rounding():
    # the second point brackets the root with an excess so small that u + step == u;
    # that is convergence, not a Newton point outside the bracket
    def value(u):
        return (1e-300 if u == 1.0 else 1.0 - u), -1.0

    u, history = log_root(value, math.log(4.5), 0.0, xtol=1e-13, slope=True)
    assert u == 1.0 and len(history) == 2


def test_log_root_without_a_usable_slope_walks_by_log_2():
    # a nan or positive slope gives the same evaluations as no slope at all
    for bad in (math.nan, 1.0):
        u, history = log_root(lambda u: (math.exp(-u), bad), -3.0, 0.37, 1e-12, slope=True)
        assert (u, history) == log_root(lambda u: math.exp(-u), -3.0, 0.37, 1e-12)


def test_cli_import_leaves_scipy_optimize_out():
    src = str(Path(horizonopt.__file__).resolve().parents[1])
    code = "import sys, horizonopt.cli; sys.exit('scipy.optimize' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, timeout=60
    )
    assert done.returncode == 0
