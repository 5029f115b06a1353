"""The package's one root finder: Chandrupatla's method (Adv. Eng.
Software 28, 1997) on brackets of monotone functions, elementwise, and a
walk in log(multiplier) to such a bracket."""

import math

import numpy as np

_EPS = float(np.finfo(float).eps)
_MAX_STEPS = 100
_MAX_BRACKET_STEPS = 200


class ConvergenceError(RuntimeError):
    """A root search failed; carries its (multiplier, value) evaluation history."""

    def __init__(self, message: str, history):
        super().__init__(message)
        self.history = tuple(history)


def root(f, a, b, fa, fb, xtol: float = 0.0):
    """Roots of f on the brackets [a, b] with f(a) = fa and f(b) = fb of opposite signs.

    An element is done at an exact zero or once its bracket is narrower than
    4 eps |x| + xtol. f is called on whole arrays, never at a bracket end
    again. After _MAX_STEPS steps the best points are returned unchecked.
    """
    # x1 newest point, x2 the other end of its bracket, x3 the point before
    x1, f1 = np.asarray(b, dtype=float), np.asarray(fb, dtype=float)
    x2, f2 = np.asarray(a, dtype=float), np.asarray(fa, dtype=float)
    x3, f3 = x2, f2
    t = 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        for step in range(_MAX_STEPS + 1):
            near = np.abs(f1) < np.abs(f2)
            best = np.where(near, x1, x2)
            tol = 4.0 * _EPS * np.abs(best) + xtol
            width = np.abs(x2 - x1)
            active = (width >= tol) & (np.where(near, f1, f2) != 0.0)
            if step == _MAX_STEPS or not active.any():
                return best
            # keep at least tol / 2 from both ends, so the bracket always shrinks
            lim = 0.5 * tol / width
            x = np.where(active, x1 + np.clip(t, lim, 1.0 - lim) * (x2 - x1), x1)
            fx = np.where(active, f(x), f1)
            same = np.sign(fx) == np.sign(f1)
            x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
            x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
            x1, f1 = x, fx
            # inverse quadratic interpolation where the last three points allow it
            xi = (x1 - x2) / (x3 - x2)
            phi = (f1 - f2) / (f3 - f2)
            fits = (1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi))
            alpha = (x3 - x1) / (x2 - x1)
            iqi = f1 / (f1 - f2) * f3 / (f3 - f2) - alpha * f1 / (f3 - f1) * f2 / (f2 - f3)
            t = np.where(fits, iqi, 0.5)


def log_root(value, u0: float, target: float, xtol: float = 0.0):
    """Root u of value(u) = target for a value decreasing in u = log(multiplier).

    Steps by log 2 from u0 until value crosses target, then runs ``root`` on
    that step. Returns u and the (multiplier, value) pair of each evaluation,
    which a ConvergenceError carries if no crossing comes in _MAX_BRACKET_STEPS.
    """
    history = []

    def excess(u):
        v = value(float(u))
        history.append((math.exp(u), v))
        return v - target

    u, f_u = u0, excess(u0)
    up = f_u > 0.0
    step = math.log(2.0) if up else -math.log(2.0)
    for _ in range(_MAX_BRACKET_STEPS):
        u_prev, f_prev = u, f_u
        u += step
        f_u = excess(u)
        if (f_u <= 0.0) if up else (f_u >= 0.0):
            return float(root(excess, u_prev, u, f_prev, f_u, xtol)), tuple(history)
    raise ConvergenceError(
        f"no sign change in {_MAX_BRACKET_STEPS} steps of log 2 from {math.exp(u0)!r}", history
    )
