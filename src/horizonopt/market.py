"""Black-Scholes market primitives.

Single risky asset with constant coefficients. The pricing kernel
(state-price density) has the exact lognormal form

    H_t = exp(-(r + theta^2/2) t - theta W_t),    theta = (mu - r) / sigma,

so paths are sampled exactly on a date grid (no Euler discretization).
The module also provides the two closed-form conditional moment factors
used by the solvers:

    f(q, t, T) = E[(H_T / H_t)^q | F_t]
    g(q, t, T) = E[(H_T / H_t)^q 1{nu_T H_T <= threshold} | F_t]

where nu_T is known at time t. Both admit exact expressions (lognormal
moments, truncated by a normal CDF for g).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray
from scipy.special import ndtr

__all__ = [
    "MarketParams",
    "HorizonDistribution",
    "PathState",
    "SimulatedPaths",
    "state_price_density",
    "simulate_paths",
    "bridge_insert",
    "f_factor",
    "g_factor",
]

# Relative tolerance for the closed-form consistency check of H against W.
DENSITY_RTOL = 1e-12

# Paths are generated in fixed-size blocks, each from its own counter-based
# substream, so the draws do not depend on how blocks are assigned to workers.
_BLOCK = 8192

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class MarketParams:
    """Constant market coefficients (per year)."""

    mu: float
    r: float
    sigma: float

    def __post_init__(self) -> None:
        if not (self.sigma > 0.0):
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not all(math.isfinite(v) for v in (self.mu, self.r, self.sigma)):
            raise ValueError("market coefficients must be finite")

    @property
    def theta(self) -> float:
        """Market price of risk (mu - r) / sigma, always recomputed."""
        return (self.mu - self.r) / self.sigma

    @property
    def kernel_drift(self) -> float:
        """Exponential decay rate r + theta^2 / 2 of the pricing kernel."""
        return self.r + 0.5 * self.theta**2


@dataclass(frozen=True)
class HorizonDistribution:
    """Discrete stopping-time distribution, independent of the market.

    ``dates`` are the interior stopping dates 0 < T_1 < ... < T_n < terminal
    with probabilities ``probs``; the remaining mass 1 - sum(probs) > 0 sits
    at ``terminal``. An empty ``dates`` tuple is the degenerate (fixed
    horizon) case.
    """

    dates: tuple[float, ...]
    probs: tuple[float, ...]
    terminal: float

    def __init__(self, dates, probs, terminal: float):
        object.__setattr__(self, "dates", tuple(float(t) for t in dates))
        object.__setattr__(self, "probs", tuple(float(p) for p in probs))
        object.__setattr__(self, "terminal", float(terminal))
        self._validate()

    def _validate(self) -> None:
        if len(self.dates) != len(self.probs):
            raise ValueError("dates and probs must have equal length")
        if not (self.terminal > 0.0):
            raise ValueError("terminal date must be positive")
        last = 0.0
        for t in self.dates:
            if not (last < t < self.terminal):
                raise ValueError(
                    f"stopping dates must be strictly increasing inside "
                    f"(0, {self.terminal}), got {self.dates}"
                )
            last = t
        for p in self.probs:
            if not (0.0 < p < 1.0):
                raise ValueError(f"stopping probabilities must lie in (0, 1), got {p}")
        if not (sum(self.probs) < 1.0):
            raise ValueError("stopping probabilities must sum to less than 1")

    @property
    def terminal_prob(self) -> float:
        return 1.0 - sum(self.probs)

    @property
    def grid(self) -> tuple[float, ...]:
        """All dates carrying probability mass: interior dates plus terminal."""
        return self.dates + (self.terminal,)

    @property
    def all_probs(self) -> tuple[float, ...]:
        return self.probs + (self.terminal_prob,)

    @property
    def expected_stop(self) -> float:
        """Mean of the stopped clock E[tau ^ T]."""
        return sum(p * t for p, t in zip(self.all_probs, self.grid))

    @property
    def stop_variance(self) -> float:
        m = self.expected_stop
        return sum(p * (t - m) ** 2 for p, t in zip(self.all_probs, self.grid))

    def single_stop(self) -> tuple[float, float]:
        """(T_1, p_1) of a two-date horizon: exactly one interior stopping date."""
        if len(self.dates) != 1:
            raise ValueError(
                f"the two-date problem needs exactly one interior stopping date, "
                f"got {self.dates}"
            )
        return self.dates[0], self.probs[0]


@dataclass(frozen=True)
class PathState:
    """Brownian value and pricing-kernel value of one path at time t."""

    t: float
    w: float
    h: float

    @classmethod
    def from_brownian(cls, params: MarketParams, t: float, w: float) -> "PathState":
        return cls(t=t, w=w, h=state_price_density(params, t, w))

    def check(self, params: MarketParams) -> None:
        """Verify h matches the closed form implied by (t, w), to DENSITY_RTOL."""
        expected = state_price_density(params, self.t, self.w)
        if not math.isclose(self.h, expected, rel_tol=DENSITY_RTOL, abs_tol=0.0):
            raise ValueError(
                f"inconsistent state: h={self.h!r} but closed form gives {expected!r}"
            )


def state_price_density(params: MarketParams, t, w):
    """Pricing-kernel value H_t for Brownian value w at time t.

    Strictly positive; decreasing in w when theta > 0. Accepts scalars or
    arrays.
    """
    return np.exp(-params.kernel_drift * np.asarray(t, dtype=float) - params.theta * w)


@dataclass(frozen=True)
class SimulatedPaths:
    """Exactly sampled Brownian/kernel values on a strictly increasing grid.

    ``w`` and ``h`` have shape (n_paths, len(dates)); column j holds the
    values at dates[j].
    """

    params: MarketParams
    dates: tuple[float, ...]
    w: NDArray[np.float64] = field(repr=False)
    h: NDArray[np.float64] = field(repr=False)

    @property
    def n_paths(self) -> int:
        return self.w.shape[0]

    def column(self, date: float) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
        """(w, h) columns at an exact grid date."""
        j = self.dates.index(date)
        return self.w[:, j], self.h[:, j]

    def path_state(self, i: int, j: int) -> PathState:
        state = PathState(t=self.dates[j], w=float(self.w[i, j]), h=float(self.h[i, j]))
        state.check(self.params)
        return state


def _block_key(seed: int, block: int, tag: int) -> np.ndarray:
    # Philox 4x64 takes a 2-word key; word 0 mixes the user seed with a
    # stream tag so that independent uses of one seed do not collide.
    word0 = (int(seed) ^ (int(tag) * 0x9E3779B97F4A7C15)) % (1 << 64)
    return np.array([word0, int(block) % (1 << 64)], dtype=np.uint64)


def _normals(seed: int, n_paths: int, width: int, tag: int, n_workers: int = 1):
    """(n_paths, width) standard normals, _BLOCK rows from each substream (seed, b, tag)."""
    z = np.empty((n_paths, width), dtype=np.float64)

    def fill(block: int) -> None:
        gen = np.random.Generator(np.random.Philox(key=_block_key(seed, block, tag)))
        gen.standard_normal(out=z[block * _BLOCK : (block + 1) * _BLOCK])

    blocks = range((n_paths + _BLOCK - 1) // _BLOCK)
    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            list(pool.map(fill, blocks))
    else:
        for block in blocks:
            fill(block)
    return z


def simulate_paths(
    params: MarketParams,
    date_grid,
    n_paths: int,
    seed: int,
    n_workers: int = 1,
) -> SimulatedPaths:
    """Sample n_paths of (W, H) exactly at the given dates.

    Increments are independent Gaussians with variance equal to the date
    spacing, drawn block-wise from counter-based substreams keyed by
    (seed, block index). Output is therefore deterministic for a fixed seed
    and bitwise identical for any worker count.
    """
    grid = [float(t) for t in date_grid]
    if len(grid) == 0:
        raise ValueError("date grid must not be empty")
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    prev = 0.0
    for t in grid:
        if not (t > prev):
            raise ValueError(f"date grid must be strictly increasing and positive, got {grid}")
        prev = t

    w = _normals(seed, n_paths, len(grid), 0, n_workers)
    w *= np.sqrt(np.diff([0.0] + grid))
    np.cumsum(w, axis=1, out=w)
    h = np.exp(-params.kernel_drift * np.asarray(grid) - params.theta * w)
    return SimulatedPaths(params=params, dates=tuple(grid), w=w, h=h)


def bridge_insert(paths: SimulatedPaths, t_new: float, seed: int) -> SimulatedPaths:
    """Insert a grid date by conditional (Brownian bridge) sampling.

    Keeps the existing columns untouched, so the refined paths are coupled
    with the originals (common random numbers across grids). The anchor to
    the left of t_new is W = 0 at t = 0 when t_new precedes the first date.
    """
    t_new = float(t_new)
    if t_new in paths.dates:
        return paths
    if not (0.0 < t_new < paths.dates[-1]):
        raise ValueError(f"bridge date must lie in (0, {paths.dates[-1]}), got {t_new}")

    j = sum(1 for t in paths.dates if t < t_new)
    t_l = 0.0 if j == 0 else paths.dates[j - 1]
    w_l = np.zeros(paths.n_paths) if j == 0 else paths.w[:, j - 1]
    t_r = paths.dates[j]
    w_r = paths.w[:, j]

    lam = (t_new - t_l) / (t_r - t_l)
    sd = math.sqrt((t_new - t_l) * (t_r - t_new) / (t_r - t_l))

    z = _normals(seed, paths.n_paths, 1, 1)[:, 0]
    w_mid = w_l + lam * (w_r - w_l) + sd * z
    h_mid = state_price_density(paths.params, t_new, w_mid)
    dates = paths.dates[:j] + (t_new,) + paths.dates[j:]
    w = np.insert(paths.w, j, w_mid, axis=1)
    h = np.insert(paths.h, j, h_mid, axis=1)
    return SimulatedPaths(params=paths.params, dates=dates, w=w, h=h)


def f_factor(q, t: float, T: float, params: MarketParams):
    """Conditional power moment E[(H_T / H_t)^q | F_t].

    Deterministic (independent of the time-t state) and multiplicative
    across subintervals: f(q, 0, T) = f(q, 0, t) f(q, t, T).
    """
    if t > T:
        raise ValueError(f"need t <= T, got t={t}, T={T}")
    q = np.asarray(q, dtype=float)
    dt = T - t
    theta2 = params.theta**2
    return np.exp(-q * params.kernel_drift * dt + 0.5 * q**2 * theta2 * dt)


def g_factor(q, t: float, T: float, params: MarketParams, nu_T, threshold, w_t):
    """Truncated conditional power moment.

    Returns E[(H_T / H_t)^q 1{nu_T H_T <= threshold} | F_t] for a
    multiplier nu_T that is known at time t. The event is a half-line in
    W_T whose direction follows the sign of theta, so the value is
    f(q, t, T) times a normal CDF. At t = T the factor degenerates to the
    indicator itself. nu_T = inf is allowed and yields 0.

    Bounded by f_factor and monotone nonincreasing in nu_T.
    """
    if t > T:
        raise ValueError(f"need t <= T, got t={t}, T={T}")
    nu_T = np.asarray(nu_T, dtype=float)
    threshold = np.asarray(threshold, dtype=float)
    if np.any(nu_T <= 0.0):
        raise ValueError("nu_T must be positive")
    if np.any(threshold <= 0.0):
        raise ValueError("threshold must be positive")
    w_t = np.asarray(w_t, dtype=float)

    if t == T:
        h_T = state_price_density(params, T, w_t)
        return np.where(nu_T * h_T <= threshold, 1.0, 0.0)

    theta = params.theta
    dt = T - t
    f = f_factor(q, t, T, params)
    if theta == 0.0:
        # Kernel is deterministic: the indicator does not depend on the path.
        ind = np.where(nu_T * math.exp(-params.r * T) <= threshold, 1.0, 0.0)
        return f * ind
    # {nu_T H_T <= threshold}  <=>  theta W_T >= log nu_T - log threshold - (r + theta^2/2) T
    log_gap = np.log(nu_T) - np.log(threshold) - params.kernel_drift * T
    z = (theta * w_t - log_gap - np.asarray(q, dtype=float) * theta**2 * dt) / (
        abs(theta) * math.sqrt(dt)
    )
    return f * ndtr(z)


def norm_pdf(x):
    """Standard normal density."""
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x**2) / _SQRT_2PI
