"""The package's scalar root finder: Chandrupatla's method (Adv. Eng.
Software 28, 1997) on a bracket of a monotone function, and a walk in
log(multiplier) to such a bracket, by steps of log 2 or by safeguarded
Newton steps where the slope is known."""

import math

import numpy as np

_EPS = float(np.finfo(float).eps)
_MAX_STEPS = 100
_MAX_BRACKET_STEPS = 200
_LOG_2 = math.log(2.0)


class ConvergenceError(RuntimeError):
    """A root search failed; carries its (multiplier, value) evaluation history."""

    def __init__(self, message: str, history):
        super().__init__(message)
        self.history = tuple(history)


def root(f, a: float, b: float, fa: float, fb: float, xtol: float = 0.0) -> float:
    """Root of f on the bracket [a, b] with f(a) = fa and f(b) = fb of opposite signs.

    Done at an exact zero or once the bracket is narrower than
    4 eps |x| + xtol. f is called on floats, never at a bracket end again.
    After _MAX_STEPS steps the best point is returned unchecked.
    """
    # x1 newest point, x2 the other end of its bracket, x3 the point before
    x1, f1 = float(b), float(fb)
    x2, f2 = float(a), float(fa)
    t = 0.5
    for step in range(_MAX_STEPS + 1):
        best, f_best = (x1, f1) if abs(f1) < abs(f2) else (x2, f2)
        tol = 4.0 * _EPS * abs(best) + xtol
        width = abs(x2 - x1)
        if step == _MAX_STEPS or not (width >= tol and f_best != 0.0):
            return best
        # keep at least tol / 2 from both ends, so the bracket always shrinks
        lim = 0.5 * tol / width
        x = x1 + min(max(t, lim), 1.0 - lim) * (x2 - x1)
        fx = float(f(x))
        if (fx > 0.0) - (fx < 0.0) == (f1 > 0.0) - (f1 < 0.0):
            x3, f3 = x1, f1
        else:
            x3, f3, x2, f2 = x2, f2, x1, f1
        x1, f1 = x, fx
        # inverse quadratic interpolation where the last three points allow it
        xi = (x1 - x2) / (x3 - x2)
        phi = (f1 - f2) / (f3 - f2)
        t = 0.5
        if 0.0 <= xi <= 1.0 and 1.0 - math.sqrt(1.0 - xi) < phi < math.sqrt(xi):
            alpha = (x3 - x1) / (x2 - x1)
            t = f1 / (f1 - f2) * f3 / (f3 - f2) - alpha * f1 / (f3 - f1) * f2 / (f2 - f3)


def log_root(value, u0: float, target: float, xtol: float = 0.0, slope: bool = False):
    """Root u of value(u) = target for a value decreasing in u = log(multiplier).

    Without ``slope``, steps by log 2 from u0 until value crosses target,
    then runs ``root`` on that step. With ``slope``, value(u) returns the
    pair (value, d value / du), and each step is a Newton step: clipped to
    +-log 2 until value crosses target, and after that taken only while it
    lands strictly inside the bracket and the step before it at least
    halved |value - target|; otherwise ``root`` runs on the bracket. A step
    of at most 4 eps |u| + xtol ends the search at u plus that step, before
    the bracket is consulted: at rounding level u + step can equal u. Where
    the slope is missing or not negative the step is log 2.
    Returns u and the (multiplier, value) pair of each evaluation, which a
    ConvergenceError carries if no crossing comes in _MAX_BRACKET_STEPS.
    """
    history = []

    def excess(u):
        v, dv = value(float(u)) if slope else (value(float(u)), math.nan)
        history.append((math.exp(u), v))
        return v - target, dv

    u, (f_u, df) = u0, excess(u0)
    above = below = None  # the nearest evaluated (u, excess) with excess > 0 and < 0
    halved = True
    for _ in range(_MAX_BRACKET_STEPS):
        if f_u == 0.0:
            return u, tuple(history)
        if f_u > 0.0:
            above = (u, f_u)
        else:
            below = (u, f_u)
        step = -f_u / df if df < 0.0 else math.nan
        if not (above and below):  # no crossing yet: at most log 2 toward it
            step = min(max(step, -_LOG_2), _LOG_2) if df < 0.0 else math.copysign(_LOG_2, f_u)
        if abs(step) <= 4.0 * _EPS * abs(u) + xtol:
            return u + step, tuple(history)
        if above and below:
            end, f_end = below if f_u > 0.0 else above
            if not (halved and min(u, end) < u + step < max(u, end)):
                return root(lambda x: excess(x)[0], end, u, f_end, f_u, xtol), tuple(history)
        f_prev = f_u
        u += step
        f_u, df = excess(u)
        halved = abs(f_u) <= 0.5 * abs(f_prev)
    raise ConvergenceError(
        f"no sign change in {_MAX_BRACKET_STEPS} steps of log 2 from {math.exp(u0)!r}", history
    )
