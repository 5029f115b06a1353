"""Non-concave portfolio optimization with an uncertain two-date horizon.

The optimal stopped wealth is driven by per-path Lagrange multipliers: a
deterministic constant C ties the stop-date multiplier nu_T1 and the
terminal multiplier nu_T together through

    p nu_T1 + (1 - p) nu_T = C,

nu_T is pinned per path by matching the stop-date wealth against the
closed-form value of the optimal terminal claim (an implicit equation,
since the truncation level inside the g factor depends on nu_T itself),
and C is calibrated so the Monte-Carlo budget hits the initial capital.
Paths that are too expensive to support wealth above the tangency point
receive zero wealth and the +inf multiplier sentinel.

The per-path equation is solved by safeguarded Newton in u = log nu_T1
(``rtsafe``, Press et al., Numerical Recipes 9.4) on the live paths only:
one sign test of the residual at the zero-branch edge, where nu_T1 H_T1
equals the envelope slope, first sets aside the paths whose root lies
beyond it. Newton starts from log C, or, inside the calibration of C,
from the roots kept at the nearest evaluated C on either side.

The fixed-horizon problem (no interior stopping mass) is the degenerate
case with a deterministic terminal multiplier. Both calibrations are one
scalar root of a budget that decreases in the log of the multiplier,
found by ``_roots.log_root``: steps of log 2 to a sign change, then
Chandrupatla's method on that step.
"""

from __future__ import annotations

import contextlib
import copy
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray
from scipy.special import ndtr

from ._roots import _EPS, _MAX_STEPS, ConvergenceError, log_root
from .market import (
    DENSITY_RTOL,
    HorizonDistribution,
    MarketParams,
    PathState,
    SimulatedPaths,
    f_factor,
    g_factor,  # not called here: perfbench/trace.py wraps this name in this module
    norm_pdf,
    simulate_paths,
    state_price_density,
)
from .payoff import ContractUtility, inverse_marginal

__all__ = [
    "ProblemSpec",
    "FixedHorizonSolution",
    "SolverSolution",
    "ConvergenceError",
    "InnerRootError",
    "solve_fixed_horizon",
    "solve_inner_nu_T",
    "solve_uncertain_horizon",
    "wealth_at",
    "strategy_at",
]

_INNER_LOG_SPAN = 69.0  # lower bracket endpoint: e^-69 ~ 1e-30 of the cap
# Calibration of C and of the fixed-horizon multiplier, both in log space.
_LOG_XTOL = 4e-13
# Per-path inner residual allowed at the final solve, relative to max(wealth, 1).
_INNER_RESIDUAL_RTOL = 1e-10
# The inner solve splits more paths than this into blocks of this many: a
# block's arrays stay in the per-core L2 cache, and blocks can run on worker
# threads. Newton is elementwise, so the roots depend on neither the block
# size nor the worker count.
_ROOT_BLOCK = 16_384


class InnerRootError(RuntimeError):
    """The per-path residual had no sign change on the feasible interval."""


@dataclass(frozen=True)
class ProblemSpec:
    """Market, contract, horizon and initial capital of one problem."""

    market: MarketParams
    contract: ContractUtility
    horizon: HorizonDistribution
    x0: float

    def __post_init__(self) -> None:
        if not (self.x0 > 0.0):
            raise ValueError(f"initial capital must be positive, got {self.x0}")


@dataclass(frozen=True)
class FixedHorizonSolution:
    """Deterministic terminal multiplier of the fixed-horizon problem."""

    nu: float
    budget_residual: float
    horizon: float


@dataclass(frozen=True)
class SolverSolution:
    """Calibrated multipliers and wealth samples of the two-date problem.

    Array fields are per path, in the row order of ``paths``. Multipliers
    are +inf exactly on zero-wealth paths; on all other paths
    p nu_T1 + (1 - p) nu_T equals c_star.
    """

    spec: ProblemSpec
    paths: SimulatedPaths = field(repr=False)
    c_star: float
    nu_T1: NDArray[np.float64] = field(repr=False)
    nu_T: NDArray[np.float64] = field(repr=False)
    wealth_T1: NDArray[np.float64] = field(repr=False)
    wealth_T: NDArray[np.float64] = field(repr=False)
    inner_residuals: NDArray[np.float64] = field(repr=False)
    budget_estimate: float
    budget_residual: float
    bracket_history: tuple
    seed: int
    budget_tol: float

    @property
    def iterations(self) -> int:
        """Number of budget evaluations, one inner solve each."""
        return len(self.bracket_history)

    @property
    def n_paths(self) -> int:
        return self.paths.n_paths

    @property
    def w_T1(self) -> NDArray[np.float64]:
        return self.paths.column(self.spec.horizon.dates[0])[0]

    @property
    def h_T1(self) -> NDArray[np.float64]:
        return self.paths.column(self.spec.horizon.dates[0])[1]

    @property
    def w_T(self) -> NDArray[np.float64]:
        return self.paths.column(self.spec.horizon.terminal)[0]

    @property
    def h_T(self) -> NDArray[np.float64]:
        return self.paths.column(self.spec.horizon.terminal)[1]

    @property
    def zero_mask(self) -> NDArray[np.bool_]:
        return ~np.isfinite(self.nu_T)


class _Continuation:
    """Time-t price of the optimal terminal claim, per path.

    For a terminal multiplier nu_T known at t, the claim pays
    inverse_marginal(nu_T H_T) at T, and its price on a path with
    W_t = w and H_t = h is

        V = scale nu_T^(-1/gamma) h^(-1/gamma) g(q, t, T) - shift g(1, t, T),

    where g is the truncated moment of ``market.g_factor``. The per-path
    constants are computed once; ``value``, ``value_and_slope`` and
    ``delta`` take log nu_T. When the truncation event is known at t
    (theta = 0, or t = T) each g is f times the indicator of
    {nu_T H_T <= slope}, as in g_factor.
    """

    def __init__(self, spec: ProblemSpec, t: float, T: float, w, h):
        c, m = spec.contract, spec.market
        self.gamma = c.gamma
        self.q = (c.gamma - 1.0) / c.gamma
        self.scale = c.participation ** (-self.q)
        self.shift = c.guarantee / c.participation - c.threshold
        self.slope = c.gap_slope
        self.theta = m.theta
        self.h_pow = np.asarray(h, dtype=float) ** (-1.0 / c.gamma)
        # {nu_T H_T <= slope} is {theta (W_T - w) >= log nu_T - edge}
        self.edge = m.theta * np.asarray(w, dtype=float) + (
            math.log(c.gap_slope) + m.kernel_drift * T
        )
        self.f_q = float(f_factor(self.q, t, T, m))
        self.f_1 = float(f_factor(1.0, t, T, m))
        self.s_dt = abs(m.theta) * math.sqrt(T - t)

    def part(self, rows):
        """The same claim on the paths ``rows``: views for a slice, copies for indices."""
        part = copy.copy(self)
        part.h_pow, part.edge = self.h_pow[rows], self.edge[rows]
        return part

    def _z(self, log_nu):
        """Normal quantiles of g(q, t, T) and g(1, t, T)."""
        z = (self.edge - log_nu) / self.s_dt
        return z - self.q * self.s_dt, z - self.s_dt

    def _lead(self, log_nu):
        """scale nu_T^(-1/gamma) h^(-1/gamma) f_q, the first term before truncation."""
        return self.scale * np.exp(-log_nu / self.gamma) * self.h_pow * self.f_q

    def value(self, log_nu):
        lead = self._lead(log_nu)
        if self.s_dt == 0.0:
            return (lead - self.shift * self.f_1) * (self.edge >= log_nu)
        z_q, z_1 = self._z(log_nu)
        return lead * ndtr(z_q) - self.shift * self.f_1 * ndtr(z_1)

    def value_and_slope(self, log_nu):
        """V and dV/d log nu_T: the lead falls at 1/gamma, both z at 1/s_dt.

        ``value`` stays separate: without the two densities it costs about 40% less.
        """
        lead = self._lead(log_nu)
        if self.s_dt == 0.0:
            alive = self.edge >= log_nu
            return (lead - self.shift * self.f_1) * alive, -lead / self.gamma * alive
        z_q, z_1 = self._z(log_nu)
        n_q = ndtr(z_q)
        value = lead * n_q - self.shift * self.f_1 * ndtr(z_1)
        return value, -lead * n_q / self.gamma - (
            lead * norm_pdf(z_q) - self.shift * self.f_1 * norm_pdf(z_1)
        ) / self.s_dt

    def delta(self, log_nu):
        """dV/dw = -theta dV/d log nu_T: h^(-1/gamma) and the edge both move with theta w."""
        return -self.theta * self.value_and_slope(log_nu)[1]


def solve_fixed_horizon(spec: ProblemSpec, horizon: float | None = None) -> FixedHorizonSolution:
    """Deterministic terminal multiplier matching the initial capital.

    Requires a horizon with no interior stopping mass (or an explicit
    horizon date). The budget, the time-0 price of the optimal terminal
    claim, is strictly decreasing in the multiplier; ``log_root`` finds its
    root in log nu from the Merton multiplier of the same capital.
    """
    if horizon is None:
        if spec.horizon.dates:
            raise ValueError(
                "fixed-horizon solve needs a degenerate horizon; pass an explicit "
                "horizon date or a spec without interior stopping dates"
            )
        horizon = spec.horizon.terminal
    claim = _Continuation(spec, 0.0, horizon, 0.0, 1.0)
    x0 = spec.x0
    u0 = -claim.gamma * math.log(x0 / claim.f_q)  # log of the Merton multiplier
    nu = math.exp(log_root(lambda u: float(claim.value(u)), u0, x0, _LOG_XTOL)[0])
    residual = abs(float(claim.value(math.log(nu))) - x0) / x0
    if residual > 1e-10:
        raise ConvergenceError(
            f"fixed-horizon budget residual {residual:.3e} above 1e-10", [(nu, residual)]
        )
    return FixedHorizonSolution(nu=nu, budget_residual=residual, horizon=horizon)


class _InnerKernel:
    """Vectorized solve of the implicit per-path multiplier equation.

    Parametrized by u = log x with the stop-date multiplier x = nu_T1 in
    (0, C/p); the terminal multiplier follows from the constancy relation.
    The residual

        F(u) = wealth-from-subdifferential(x H_T1) - priced continuation(nu_T(x))

    is strictly decreasing with F(-inf) = +inf and F(log(C/p)) = -inf, and
    its slope F_u = -S/gamma + dV/d(log nu_T) p x/(C - p x), with S the
    first term of the wealth, is closed form. A root with x H_T1 above the
    envelope slope at the tangency point is inconsistent with positive
    wealth: that path takes the zero-wealth branch. So each solve first
    evaluates F at top = min(hi, log(slope/H_T1)) on every path; where F(top)
    is positive the path is on the zero branch and gets log x = +inf, so
    that x H_T1 > slope. Safeguarded Newton then runs on the other, live
    paths inside [lo, top], each Newton point outside that closed bracket
    replaced by its midpoint, until |F/F_u| <= 4 eps max(1, |u|).

    F also increases in C (nu_T = (C - p x)/(1 - p) rises with C), so the
    root x*(C) increases in C on every path. ``budget`` keeps the roots at
    the largest C evaluated so far whose budget exceeded x0 and at the
    smallest whose budget did not, and starts Newton from them, interpolated
    linearly in log C. ``solve`` starts from log C, so its roots depend on
    (H_T1, W_T1, C) alone.

    More than _ROOT_BLOCK paths are solved in blocks of _ROOT_BLOCK paths,
    on the threads of ``pool`` when one is given. Every root is the one the
    whole array would give, so the output does not depend on the pool.
    """

    def __init__(self, spec: ProblemSpec, h_T1, w_T1, pool: ThreadPoolExecutor | None = None):
        self.spec = spec
        t1, self.p = spec.horizon.single_stop()
        self.h_T1 = np.asarray(h_T1, dtype=float)
        self.claim = _Continuation(spec, t1, spec.horizon.terminal, w_T1, self.h_T1)
        # log x where x H_T1 meets the envelope slope; the zero branch lies above
        self.zero_edge = np.log(self.claim.slope / self.h_T1)
        self._low = None  # (C, log x*(C)) with budget(C) > x0
        self._high = None  # (C, log x*(C)) with budget(C) <= x0
        n = self.h_T1.size
        # (paths, claim on those paths) per block
        self._blocks = [(slice(0, n), self.claim)] if n <= _ROOT_BLOCK else [
            (s, self.claim.part(s))
            for s in (slice(i, min(i + _ROOT_BLOCK, n)) for i in range(0, n, _ROOT_BLOCK))
        ]
        self._map = map if pool is None else pool.map

    def continuation_value(self, nu_T):
        """Stop-date wealth of the optimal terminal claim with multiplier nu_T."""
        return self.claim.value(np.log(nu_T))

    def residual(self, log_x, C: float, claim: _Continuation | None = None):
        """F at log x on every path, or on the paths of ``claim``, a part of the kernel's."""
        claim = self.claim if claim is None else claim
        x = np.exp(log_x)
        log_nu_T = np.log((C - self.p * x) / (1.0 - self.p))
        stop_wealth = claim.scale * np.exp(-log_x / claim.gamma) * claim.h_pow - claim.shift
        return stop_wealth - claim.value(log_nu_T)

    def residual_and_slope(self, log_x, C: float, claim: _Continuation):
        """F and dF/d log x on the paths of ``claim``; log nu_T falls at p x/(C - p x)."""
        x = np.exp(log_x)
        rest = C - self.p * x
        value, slope = claim.value_and_slope(np.log(rest / (1.0 - self.p)))
        lead = claim.scale * np.exp(-log_x / claim.gamma) * claim.h_pow
        return lead - claim.shift - value, slope * (self.p * x / rest) - lead / claim.gamma

    def _bracket(self, C: float):
        """lo and hi in log x: 69 below, and just under, the cap log(C/p)."""
        cap = math.log(C / self.p)
        return cap - _INNER_LOG_SPAN, cap + math.log1p(-1e-13)

    def _log_roots(self, C: float, start):
        """Per-path log x*(C), Newton from ``start`` (scalar or per path); +inf on the zero branch.

        In each block, F at top sets the zero-branch paths aside, and F at
        lo = log(C/p) - 69 must be positive on the others. Both are checked
        over all paths, raising InnerRootError, before Newton runs per block.
        """
        if not (C > 0.0):
            raise ValueError(f"multiplier constant must be positive, got {C}")
        lo, hi = self._bracket(C)

        def classify(block):
            s, claim = block
            edge = self.zero_edge[s]
            live = self.residual(np.minimum(edge, hi), C, claim) <= 0.0
            # F(hi) > 0: no root below the cap, which is no zero branch either
            unresolved = np.count_nonzero(~live & (edge >= hi)) + np.count_nonzero(
                self.residual(lo, C, claim.part(live)) <= 0.0
            )
            return live, unresolved

        classified = list(self._map(classify, self._blocks))
        unresolved = sum(n for _, n in classified)
        if unresolved:
            raise InnerRootError(
                f"no sign change on the feasible multiplier interval for "
                f"{unresolved} of {self.h_T1.size} paths at C={C!r}"
            )
        log_x = np.full(self.h_T1.size, np.inf)

        def refine(block, live):
            s, claim = block
            top = np.minimum(self.zero_edge[s][live], hi)
            u = np.clip(start if np.ndim(start) == 0 else start[s][live], lo, top)
            log_x[s][live] = self._newton(C, claim.part(live), u, lo, top)

        list(self._map(refine, self._blocks, (live for live, _ in classified)))
        return log_x

    def _newton(self, C: float, claim: _Continuation, u, lo: float, top):
        """Roots of F on [lo, top] from u, for F(lo) > 0 >= F(top) on the paths of ``claim``.

        Each step moves a bracket end to u by the sign of F(u), then takes the
        Newton point, or the bracket midpoint where that leaves the closed
        bracket. A path is done, at its last Newton point, once that step is
        at most 4 eps max(1, |u|) or F(u) is exactly 0; it then leaves the
        arrays. After _MAX_STEPS steps the last points are returned unchecked.
        """
        roots = np.empty_like(u)
        rows = np.arange(u.size)
        a, b = np.full_like(u, lo), top
        for _ in range(_MAX_STEPS):
            f, f_u = self.residual_and_slope(u, C, claim)
            step = f / f_u
            above = f > 0.0
            a, b = np.where(above, u, a), np.where(above, b, u)
            nxt = u - step
            nxt = np.where((a <= nxt) & (nxt <= b), nxt, 0.5 * (a + b))
            done = (np.abs(step) <= 4.0 * _EPS * np.maximum(1.0, np.abs(u))) | (f == 0.0)
            if done.all():
                roots[rows] = nxt
                return roots
            if done.any():
                roots[rows[done]] = nxt[done]
                keep = np.flatnonzero(~done)
                rows, nxt, a, b, claim = rows[keep], nxt[keep], a[keep], b[keep], claim.part(keep)
            u = nxt
        roots[rows] = u
        return roots

    def solve(self, C: float):
        """Per-path root from log C, zero-branch detection, wealth and residuals."""
        log_x = self._log_roots(C, math.log(C))
        x = np.exp(log_x)
        nu_T = (C - self.p * x) / (1.0 - self.p)
        with np.errstate(invalid="ignore"):  # nan, from log(-inf), on the zero branch
            residuals = self.residual(log_x, C)

        zero = x * self.h_T1 > self.claim.slope
        nu_T1_out = np.where(zero, np.inf, x)
        nu_T_out = np.where(zero, np.inf, nu_T)
        wealth = inverse_marginal(self.spec.contract, nu_T1_out * self.h_T1)
        return nu_T1_out, nu_T_out, wealth, residuals, zero

    def _start(self, C: float):
        """Newton start at C from the kept roots on either side of C.

        Linear in log C between the two, the finite one where the root above
        C is on the zero branch (+inf) or only one side is kept, and log C
        where none is kept or the kept root lies at or above hi: there, next
        to the cap, Newton in log x only creeps away from it.
        """
        low = self._low[1] if self._low and self._low[0] < C else None
        high = self._high[1] if self._high and self._high[0] > C else None
        if low is None and high is None:
            return math.log(C)
        if low is None or high is None:
            start = high if low is None else low
        else:
            w = math.log(C / self._low[0]) / math.log(self._high[0] / self._low[0])
            with np.errstate(invalid="ignore"):  # inf - inf where both are on the zero branch
                start = np.where(np.isfinite(high), low + w * (high - low), low)
        return np.where(start < self._bracket(C)[1], start, math.log(C))

    def budget(self, C: float) -> float:
        """Monte-Carlo budget mean(H_T1 wealth_T1) at C, Newton started from the kept roots.

        Only the wealth is formed: inverse_marginal already gives zero above
        the envelope slope, so no multiplier or residual array is built.
        """
        log_x = self._log_roots(C, self._start(C))
        wealth = inverse_marginal(self.spec.contract, np.exp(log_x) * self.h_T1)
        value = float(np.mean(self.h_T1 * wealth))
        if value > self.spec.x0:
            if self._low is None or C > self._low[0]:
                self._low = (C, log_x)
        elif self._high is None or C < self._high[0]:
            self._high = (C, log_x)
        return value


def solve_inner_nu_T(h_T1, w_T1, C: float, spec: ProblemSpec):
    """Terminal multiplier nu_T for one path state (or arrays of states).

    Returns +inf on the zero-wealth branch. The state must satisfy the
    closed-form relation between h and w; this rules out calling the inner
    solve with mismatched coordinates.
    """
    h_arr = np.atleast_1d(np.asarray(h_T1, dtype=float))
    w_arr = np.atleast_1d(np.asarray(w_T1, dtype=float))
    if h_arr.shape != w_arr.shape:
        raise ValueError("h_T1 and w_T1 must have matching shapes")
    t1, _ = spec.horizon.single_stop()
    expected = state_price_density(spec.market, t1, w_arr)
    if not np.allclose(h_arr, expected, rtol=DENSITY_RTOL, atol=0.0):
        raise ValueError("h_T1 inconsistent with w_T1 under the market parameters")
    kernel = _InnerKernel(spec, h_arr, w_arr)
    _, nu_T, _, _, _ = kernel.solve(C)
    if np.isscalar(h_T1) or np.asarray(h_T1).ndim == 0:
        return float(nu_T[0])
    return nu_T


def solve_uncertain_horizon(
    spec: ProblemSpec,
    n_paths: int,
    seed: int,
    budget_tol: float = 1e-3,
    paths: SimulatedPaths | None = None,
    n_workers: int = 1,
) -> SolverSolution:
    """Calibrate the multiplier constant C against the Monte-Carlo budget.

    The budget estimate mean(H_T1 * wealth_T1) is monotone decreasing in C
    (larger multipliers buy less wealth), so ``log_root`` finds its root in
    log C from the fixed-horizon multiplier, to 4e-13 in log C. Each
    distinct C costs one inner solve, Newton started from the roots at the
    nearest C evaluated so far, and one entry of ``bracket_history``; the
    solve at the calibrated C starts from log C.
    The reported residual must end up within budget_tol or a
    ConvergenceError with the full evaluation history is raised. A final
    per-path inner residual above 1e-10 max(wealth_T1, 1) on a path with
    positive wealth raises InnerRootError.

    Common random numbers: the same path draws are reused for every C, so
    the budget function is deterministic and free of cross-iteration noise.
    Pass ``paths`` to share draws with other computations; it must contain
    both horizon dates on its grid.

    ``n_workers`` threads simulate the paths (when ``paths`` is None) and,
    from one pool opened for this call, solve the per-path roots of more
    than 16,384 paths in blocks of 16,384. The result is bit-identical for
    any worker count.
    """
    if n_paths < 10_000:
        raise ValueError(f"n_paths must be at least 10000, got {n_paths}")
    if not (budget_tol >= 1e-4):
        raise ValueError(f"budget_tol must be at least 1e-4, got {budget_tol}")
    t1, _ = spec.horizon.single_stop()
    T = spec.horizon.terminal

    if paths is None:
        paths = simulate_paths(spec.market, [t1, T], n_paths, seed, n_workers=n_workers)
    else:
        if paths.n_paths != n_paths:
            raise ValueError("supplied paths disagree with n_paths")
        for needed in (t1, T):
            if needed not in paths.dates:
                raise ValueError(f"supplied paths lack the horizon date {needed}")
    w_T1, h_T1 = paths.column(t1)
    _, h_T = paths.column(T)

    x0 = spec.x0
    c_init = solve_fixed_horizon(spec, horizon=T).nu
    with ThreadPoolExecutor(n_workers) if n_workers > 1 else contextlib.nullcontext() as pool:
        kernel = _InnerKernel(spec, h_T1, w_T1, pool)
        log_c, history = log_root(
            lambda u: kernel.budget(math.exp(u)), math.log(c_init), x0, _LOG_XTOL
        )
        c_star = math.exp(log_c)
        nu_T1, nu_T, wealth_T1, residuals, zero = kernel.solve(c_star)
    residuals = np.where(zero, np.nan, residuals)
    off = ~zero & ~(np.abs(residuals) <= _INNER_RESIDUAL_RTOL * np.maximum(wealth_T1, 1.0))
    if np.any(off):
        raise InnerRootError(
            f"inner residual above {_INNER_RESIDUAL_RTOL:.0e} max(wealth, 1) on "
            f"{int(off.sum())} of {n_paths} paths at C={c_star!r}"
        )
    wealth_T = inverse_marginal(spec.contract, nu_T * h_T)
    budget_estimate = float(np.mean(h_T1 * wealth_T1))
    budget_residual = abs(budget_estimate - x0) / x0
    if budget_residual > budget_tol:
        raise ConvergenceError(
            f"budget residual {budget_residual:.3e} above tolerance {budget_tol:.1e} "
            f"after {len(history)} budget evaluations",
            history,
        )

    return SolverSolution(
        spec=spec,
        paths=paths,
        c_star=float(c_star),
        nu_T1=nu_T1,
        nu_T=nu_T,
        wealth_T1=wealth_T1,
        wealth_T=wealth_T,
        inner_residuals=residuals,
        budget_estimate=budget_estimate,
        budget_residual=budget_residual,
        bracket_history=history,
        seed=seed,
        budget_tol=budget_tol,
    )


def _solution_spec(spec: ProblemSpec, solution: SolverSolution) -> ProblemSpec:
    """``solution.spec``; a different ``spec`` is an error, not a new problem."""
    if spec != solution.spec:
        raise ValueError(
            "spec differs from the spec the solution was solved for; pass solution.spec"
        )
    return solution.spec


def _require_continuation_multiplier(spec, solution, s, state, nu_T):
    """Priced continuation at (s, state) and its log nu_T, or None on the zero branch.

    The shared setup of ``wealth_at`` and ``strategy_at``: ``spec`` must be
    the solution's when one is given, the state must be at s and on the
    market's density, and nu_T is recomputed from the state when not
    given, which is only possible at s = T_1 and needs the solution's C.
    """
    if solution is not None:
        spec = _solution_spec(spec, solution)
    if not math.isclose(state.t, s, rel_tol=0.0, abs_tol=1e-12):
        raise ValueError(f"state is at t={state.t}, not at s={s}")
    state.check(spec.market)
    if nu_T is None:
        t1, _ = spec.horizon.single_stop()
        if not math.isclose(s, t1, rel_tol=0.0, abs_tol=1e-12):
            raise ValueError(
                "the terminal multiplier is path specific beyond the stopping date; "
                "pass nu_T from the solution"
            )
        if solution is None:
            raise ValueError("a solution or nu_T is needed")
        nu_T = solve_inner_nu_T(state.h, state.w, solution.c_star, spec)
    if not np.isfinite(nu_T):
        return None
    return _Continuation(spec, s, spec.horizon.terminal, state.w, state.h), math.log(nu_T)


def wealth_at(
    spec: ProblemSpec,
    solution: SolverSolution | None,
    s: float,
    state: PathState,
    nu_T: float | None = None,
) -> float:
    """Optimal wealth at time s on a path that is still running.

    On [T_1, T] the wealth is the priced continuation of the terminal claim
    (reducing to the subdifferential inverse at both horizon dates); at
    s = 0 it is the calibrated budget. The terminal multiplier of the
    path is recomputed from the T_1 state when not supplied, which is only
    possible at s = T_1. Times in (0, T_1) have no closed form here: the
    stop-date multiplier is not known at s, and pricing it needs nested
    simulation, which the analytics oracle covers instead. ``solution``
    may be None where nu_T is given and s > 0.
    """
    t1, _ = spec.horizon.single_stop()
    T = spec.horizon.terminal
    if s > T:
        raise ValueError(f"time {s} beyond the terminal date {T}")
    if s < 0.0:
        raise ValueError(f"negative time {s}")
    if s == 0.0:
        if solution is None:
            raise ValueError("the wealth at s = 0 is the budget of a solution; pass one")
        _solution_spec(spec, solution)
        return solution.budget_estimate
    if s < t1:
        raise ValueError(
            "closed-form wealth is available at s = 0 and on [T_1, T] only"
        )
    setup = _require_continuation_multiplier(spec, solution, s, state, nu_T)
    if setup is None:
        return 0.0
    claim, log_nu = setup
    return float(claim.value(log_nu))


def strategy_at(
    spec: ProblemSpec,
    solution: SolverSolution | None,
    s: float,
    state: PathState,
    nu_T: float | None = None,
) -> float:
    """Cash amount in the risky asset at time s in [T_1, T).

    Equals the delta of the closed-form wealth with respect to the stock:
    the usual myopic term plus two Gaussian-density corrections from the
    truncation boundary. Far in the money both corrections vanish and the
    position reverts to the constant-fraction rule. ``solution`` may be
    None where nu_T is given.
    """
    t1, _ = spec.horizon.single_stop()
    T = spec.horizon.terminal
    if not (t1 <= s < T):
        raise ValueError(f"strategy is defined on [T_1, T) = [{t1}, {T}), got {s}")
    setup = _require_continuation_multiplier(spec, solution, s, state, nu_T)
    if setup is None:
        return 0.0
    claim, log_nu = setup
    return float(claim.delta(log_nu)) / spec.market.sigma
