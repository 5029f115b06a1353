"""The package's three root routines, for functions that decrease in u.

``newton`` is vectorised safeguarded Newton (``rtsafe``, Press et al.,
Numerical Recipes 9.4) on per-row brackets: the per-path multipliers of
the two-date problem and the C_i at which paths switch branch.
``calibrate`` finds one multiplier whose budget matches a target, by
Newton steps in its log on the exact slope, across the jumps of a
Monte-Carlo budget where a kernel supplies them: the constant C, the
fixed-horizon multiplier, and the tangency wealth. ``flip`` walks by
single doubles to where a test changes its answer.
"""

import math

import numpy as np

_EPS = float(np.finfo(float).eps)
_MAX_STEPS = 100
_MAX_BRACKET_STEPS = 200
_LOG_2 = math.log(2.0)
# Relative distance from a path's switch at which C is evaluated on either side:
# within the calibration's 4e-13 in log C together, and far beyond the few doubles
# around the switch where a path's root sits at its zero edge and the Newton start
# decides whether its wealth is x_hat or 0.
_SWITCH_MARGIN = 1e-13


class ConvergenceError(RuntimeError):
    """A root search failed; carries its (multiplier, value) evaluation history."""

    def __init__(self, message: str, history):
        super().__init__(message)
        self.history = tuple(history)


def newton(fun, u, lo, hi, slope=None):
    """Roots of a decreasing F on [lo, hi] from u, for F(lo) > 0 >= F(hi) on each row.

    ``fun(u, keep)`` returns F and F_u at u on the rows still running; keep
    is None on the first call and when no row finished at the last one,
    else the indices, among the last call's rows, of those that go on.
    Each step moves a bracket end to u by the sign of F(u), then takes the
    Newton point, or the bracket midpoint where that leaves the closed
    bracket. A row is done, at its last Newton point, once that step is at
    most 4 eps max(1, |u|) or F(u) is exactly 0; it then leaves the arrays.
    After _MAX_STEPS steps the last points are returned unchecked.
    ``slope``, an array like u when given, receives F_u at each row's last
    point; it may be u itself, which is read only before the first write.
    """
    roots = np.empty_like(u)
    rows = np.arange(u.size)
    a, b = np.full_like(u, lo), hi
    keep = None
    for _ in range(_MAX_STEPS):
        f, f_u = fun(u, keep)
        with np.errstate(divide="ignore", invalid="ignore"):  # F_u = 0 or nan: the midpoint
            step = f / f_u
        above = f > 0.0
        a, b = np.where(above, u, a), np.where(above, b, u)
        nxt = u - step
        nxt = np.where((a <= nxt) & (nxt <= b), nxt, 0.5 * (a + b))
        done = (np.abs(step) <= 4.0 * _EPS * np.maximum(1.0, np.abs(u))) | (f == 0.0)
        if done.all():
            roots[rows] = nxt
            if slope is not None:
                slope[rows] = f_u
            return roots
        keep = None
        if done.any():
            roots[rows[done]] = nxt[done]
            if slope is not None:
                slope[rows[done]] = f_u[done]
            keep = np.flatnonzero(~done)
            rows, nxt, a, b = rows[keep], nxt[keep], a[keep], b[keep]
        u = nxt
    roots[rows] = u
    if slope is not None:
        slope[rows] = f_u
    return roots


def flip(test, x: float):
    """Adjacent doubles c < nextafter(c) with test(c) true and test(nextafter(c)) false.

    A walk by single doubles from x: up while test holds, down while it
    fails. None when it has not found the flip after _MAX_STEPS doubles.
    """
    up = test(x)
    for _ in range(_MAX_STEPS):
        nxt = math.nextafter(x, math.inf if up else -math.inf)
        if test(nxt) != up:
            return (x, nxt) if up else (nxt, x)
        x = nxt
    return None


def calibrate(budget_and_slope, x0: float, u0: float, xtol: float, kernel=None):
    """C with budget(C) = x0 from log C = u0, for a budget decreasing in C.

    ``budget_and_slope(C)`` returns the budget and its slope dB/dlog C.
    Newton steps in log C on that slope, clipped to log 2 until the budget
    crosses x0, then taken only while each lands inside the bracket and
    the step before it at least halved |B - x0|; otherwise
    ``_across_jumps`` takes over on the bracket, with the jumps of
    ``kernel`` (``_jumps`` and ``_switch``) when one is given. A step of at
    most 4 eps |log C| + xtol ends the search at C times e^step, before the
    bracket is consulted. Where the slope is not negative the step is
    log 2. Returns C, the (C, budget) pair of each evaluation, and, where
    the search ended on a kernel's bracket, its low end and the budget's
    drop across it relative to x0; else None. Raises ConvergenceError with
    that history when the budget does not cross x0 in _MAX_BRACKET_STEPS.
    """
    history = []

    def excess(C):
        value, slope = budget_and_slope(C)
        history.append((C, value))
        return value - x0, slope

    u, (f_u, df) = u0, excess(math.exp(u0))
    above = below = None  # the nearest evaluated (C, excess, slope) with excess > 0 and < 0
    halved = True
    for _ in range(_MAX_BRACKET_STEPS):
        if f_u == 0.0:
            return math.exp(u), tuple(history), None
        if f_u > 0.0:
            above = (math.exp(u), f_u, df)
        else:
            below = (math.exp(u), f_u, df)
        step = -f_u / df if df < 0.0 else math.nan
        if not (above and below):  # no crossing yet: at most log 2 toward it
            step = min(max(step, -_LOG_2), _LOG_2) if df < 0.0 else math.copysign(_LOG_2, f_u)
        if abs(step) <= 4.0 * _EPS * abs(u) + xtol:
            return math.exp(u + step), tuple(history), None
        if above and below:
            end = math.log((below if f_u > 0.0 else above)[0])
            if not (halved and min(u, end) < u + step < max(u, end)):
                newest = above if f_u > 0.0 else below
                c, jump = _across_jumps(kernel, excess, above, below, newest, xtol, x0)
                return c, tuple(history), jump
        f_prev = f_u
        u += step
        f_u, df = excess(math.exp(u))
        halved = abs(f_u) <= 0.5 * abs(f_prev)
    raise ConvergenceError(
        f"no sign change in {_MAX_BRACKET_STEPS} steps of log 2 from {math.exp(u0)!r}", history
    )


def _across_jumps(kernel, excess, above, below, newest, xtol: float, x0: float):
    """The calibration of C on a bracket whose budget jumps, from ``calibrate``.

    The paths live at the bracket's low end and on the zero branch at its
    high end are the budget's jumps in between: path i takes h_i x_hat / n
    out of the budget from its switch C_i on (``kernel._jumps``, and
    ``kernel._switch`` once walked to the double); without a kernel there
    are none. The model of the budget from the newest evaluated end, its
    value and slope in log C less (or plus) the jumps passed, gives the
    next C: its crossing of x0 on a smooth piece, or, where x0 lies inside
    path k's jump, _SWITCH_MARGIN beyond the side of path k's switch with
    the smaller modelled |B - x0|, then beyond the other. A modelled smooth
    crossing within 4 eps |log C| + xtol of the newest end, with no jump
    between, ends the search there; a next C outside the bracket is
    replaced by the midpoint in log C. Ends when the bracket is at most
    4 eps |log C| + xtol wide, on the end with the smaller |B - x0|.
    """
    rows, switch, jumps = kernel._jumps() if kernel else (np.empty(0),) * 3
    for _ in range(_MAX_STEPS):
        u_a, u_b = math.log(above[0]), math.log(below[0])
        if u_b - u_a <= 4.0 * _EPS * max(abs(u_a), abs(u_b)) + xtol:
            break
        c_n, f_n, s_n = newest
        u_n, up = math.log(c_n), f_n > 0.0
        # the jumps inside the bracket, nearest to the newest end first
        inside = np.flatnonzero((above[0] < switch) & (switch <= below[0]))
        inside = inside[np.argsort(switch[inside] if up else -switch[inside], kind="stable")]
        dist, size = np.abs(np.log(switch[inside]) - u_n), jumps[inside]
        # |excess| from the newest end falls with distance and with each jump passed
        g, rate = abs(f_n), -s_n
        c = None
        if rate > 0.0:
            passed = np.cumsum(size)
            before = g - rate * dist - (passed - size)
            crossed = np.flatnonzero(before <= size)
            k = crossed[0] if crossed.size else size.size
            if k < size.size and before[k] > 0.0:  # x0 inside the jump of path k
                i = inside[k]
                walked = kernel._switch(int(rows[i]), float(switch[i]))
                if walked is not None:
                    switch[i] = walked[1]
                    # a margin beyond the switch, where every Newton start classifies alike
                    sides = walked[0] * (1.0 - _SWITCH_MARGIN), walked[1] * (1.0 + _SWITCH_MARGIN)
                    near, far = sides if up else sides[::-1]
                    first, second = (near, far) if before[k] < size[k] - before[k] else (far, near)
                    c = first if above[0] < first < below[0] else second
            else:
                step = (g - (passed[k - 1] if k else 0.0)) / rate
                c = math.exp(u_n + step if up else u_n - step)
                if k == 0 and step <= 4.0 * _EPS * abs(u_n) + xtol:
                    return c, None
        if c is None or not above[0] < c < below[0]:
            c = math.exp(0.5 * (u_a + u_b))
        f, s = excess(c)
        if f == 0.0:
            return c, None
        newest = (c, f, s)
        if f > 0.0:
            above = newest
        else:
            below = newest
    best = above if abs(above[1]) < abs(below[1]) else below
    return best[0], None if kernel is None else (above[0], (above[1] - below[1]) / x0)
