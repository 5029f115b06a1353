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
from the roots kept at the nearest evaluated C: interpolated between the
two sides, or along each root's tangent in log C where one side is kept.

The fixed-horizon problem (no interior stopping mass) is the degenerate
case with a deterministic terminal multiplier. Both calibrations are one
scalar root of a budget that decreases in the log of the multiplier. The
fixed-horizon multiplier takes steps of log 2 to a sign change, then
Chandrupatla's method on that step (``_roots.log_root``). C takes
safeguarded Newton steps on the exact slope dB/dlog C of the Monte-Carlo
budget, which the inner solve yields path by path (``_calibrate``). The
budget also jumps, by h_i x_hat / n, at the C_i where path i turns to the
zero branch. Where the jumps stop Newton from halving the excess, the
paths that switch inside the bracket give their C_i in closed form, one
vectorised Newton solve in log C, and a model of the budget that steps
over them picks the next C: a smooth crossing, or the two sides of the
one jump that holds x0 (``_across_jumps``).
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

from ._roots import _EPS, _LOG_2, _MAX_BRACKET_STEPS, _MAX_STEPS, ConvergenceError, log_root
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
# Relative distance from a path's switch at which C is evaluated on either side:
# within _LOG_XTOL together, and far beyond the few doubles around the switch
# where a path's root sits at its zero edge and the Newton start decides whether
# its wealth is x_hat or 0.
_SWITCH_MARGIN = _LOG_XTOL / 4.0
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
    root x*(C) increases in C on every path, at the rate du/dlog C =
    -F_C/F_u, which the last Newton step gives for free. ``budget_and_slope``
    returns the budget and its exact slope dB/dlog C, and keeps the roots at
    the largest C evaluated so far whose budget exceeded x0 and at the
    smallest whose budget did not. It starts Newton from them, interpolated
    linearly in log C, or, while only one side is kept, from that side's
    roots moved along their tangents du/dlog C. ``solve`` starts from log C,
    so its roots depend on (H_T1, W_T1, C) alone.

    More than _ROOT_BLOCK paths are solved in blocks of _ROOT_BLOCK paths,
    on the threads of ``pool`` when one is given. Every root is the one the
    whole array would give, and the slope adds the blocks' sums in block
    order, so the output does not depend on the pool.
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
        self._du = None  # du/dlog C at the roots of the one kept side, used up by _start
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
        """Per-path log x*(C), Newton from ``start`` (scalar or per path); +inf on zero paths."""
        return self._roots(C, start)[0]

    def _roots(self, C: float, start, tangent: bool = False):
        """Per-path log x*(C) from ``start``; with ``tangent`` also du/dlog C and dB/dlog C.

        In each block, F at top sets the zero-branch paths aside, and F at
        lo = log(C/p) - 69 must be positive on the others: ``_floor_at``
        proves that in closed form, or F is evaluated there. Both are
        checked over all paths, raising InnerRootError, before Newton runs
        per block. Returns log x and, with ``tangent``, du/dlog C per path
        (0 on the zero branch) and dB/dlog C, else None and None.

        At a root u = log x of F(u, log C) = 0, du/dlog C = -F_C/F_u with
        F_C = -V'(log nu_T) C/(C - p x), and V' p x/(C - p x) = F_u + S/gamma,
        S = scale (x h)^(-1/gamma) being the stop wealth plus ``shift``. With
        dW/du = -S/gamma on a live path, dB/dlog C = mean(h dW/du du/dlog C);
        the zero branch adds 0, so B's jumps are left out. Each block sums
        its paths, and the sums are added in block order, so the slope does
        not depend on the pool either.
        """
        if not (C > 0.0):
            raise ValueError(f"multiplier constant must be positive, got {C}")
        lo, hi = self._bracket(C)

        def classify(block):
            s, claim = block
            edge = self.zero_edge[s]
            live = self.residual(np.minimum(edge, hi), C, claim) <= 0.0
            # F(hi) > 0: no root below the cap, which is no zero branch either
            unresolved = np.count_nonzero(~live & (edge >= hi))
            if not self._floor_at(lo, C, claim) > 0.0:
                unresolved += np.count_nonzero(self.residual(lo, C, claim.part(live)) <= 0.0)
            return live, unresolved

        classified = list(self._map(classify, self._blocks))
        unresolved = sum(n for _, n in classified)
        if unresolved:
            raise InnerRootError(
                f"no sign change on the feasible multiplier interval for "
                f"{unresolved} of {self.h_T1.size} paths at C={C!r}"
            )
        log_x = np.full(self.h_T1.size, np.inf)
        du = np.zeros(self.h_T1.size) if tangent else None

        def refine(block, live):
            s, claim = block
            top = np.minimum(self.zero_edge[s][live], hi)
            u = np.clip(start if np.ndim(start) == 0 else start[s][live], lo, top)
            claim = claim.part(live)
            f_u = u if tangent else None  # _newton reads u only before it writes F_u
            roots = log_x[s][live] = self._newton(C, claim, u, lo, top, f_u)
            if not tangent:
                return 0.0
            wealth_slope = claim.scale / claim.gamma * np.exp(-roots / claim.gamma) * claim.h_pow
            du_block = du[s][live] = (f_u + wealth_slope) * C / (self.p * np.exp(roots) * f_u)
            return -float(np.sum(self.h_T1[s][live] * wealth_slope * du_block))

        sums = list(self._map(refine, self._blocks, (live for live, _ in classified)))
        return log_x, du, sum(sums) / self.h_T1.size if tangent else None

    def _floor_at(self, log_x: float, C: float, claim: _Continuation) -> float:
        """A closed-form lower bound on F at log x over the paths of ``claim``.

        Both ndtr factors of V lie in [0, 1], so V <= lead + max(0, -shift) f_1,
        and F >= scale h_pow (x^(-1/gamma) - f_q nu_T^(-1/gamma)) - shift
        - max(0, -shift) f_1. That is linear in h_pow, so its least value
        over the paths is at the smallest or the largest h_pow. -inf where
        a power overflows: nothing is proven there.
        """
        x = math.exp(log_x)
        nu_T = (C - self.p * x) / (1.0 - self.p)
        try:
            gap = x ** (-1.0 / claim.gamma) - claim.f_q * nu_T ** (-1.0 / claim.gamma)
        except OverflowError:
            return -math.inf
        h_pow = claim.h_pow.min() if gap > 0.0 else claim.h_pow.max()
        return claim.scale * float(h_pow) * gap - claim.shift - max(0.0, -claim.shift) * claim.f_1

    def _newton(self, C: float, claim: _Continuation, u, lo: float, top, slope=None):
        """Roots of F on [lo, top] from u, for F(lo) > 0 >= F(top) on the paths of ``claim``.

        Each step moves a bracket end to u by the sign of F(u), then takes the
        Newton point, or the bracket midpoint where that leaves the closed
        bracket. A path is done, at its last Newton point, once that step is
        at most 4 eps max(1, |u|) or F(u) is exactly 0; it then leaves the
        arrays. After _MAX_STEPS steps the last points are returned unchecked.
        ``slope``, an array like u when given, receives F_u at each path's
        last point; it may be u itself, which is read only before the first
        write.
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
                if slope is not None:
                    slope[rows] = f_u
                return roots
            if done.any():
                roots[rows[done]] = nxt[done]
                if slope is not None:
                    slope[rows[done]] = f_u[done]
                keep = np.flatnonzero(~done)
                rows, nxt, a, b, claim = rows[keep], nxt[keep], a[keep], b[keep], claim.part(keep)
            u = nxt
        roots[rows] = u
        if slope is not None:
            slope[rows] = f_u
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

        Linear in log C between the two, toward the zero edge where the root
        above C is on the zero branch (+inf): that path's root rises to its
        edge at its switch between the two. Where only one side is kept, the
        tangent log x_k + du_k log(C/C_k) from that side's roots and slopes,
        or its roots where no slope is kept. log C where none is kept, and
        where the start is not finite or lies at or above hi: there, next to
        the cap, Newton in log x only creeps away from it.
        """
        low = self._low[1] if self._low and self._low[0] < C else None
        high = self._high[1] if self._high and self._high[0] > C else None
        if low is None and high is None:
            return math.log(C)
        if low is None or high is None:
            c_k, start = self._high if low is None else self._low
            if self._du is not None:  # the tangent, formed in the kept slopes' array
                tangent, self._du = self._du, None
                tangent *= math.log(C / c_k)
                start = np.add(tangent, start, out=tangent)
        else:
            w = math.log(C / self._low[0]) / math.log(self._high[0] / self._low[0])
            with np.errstate(invalid="ignore"):  # inf - inf where both are on the zero branch
                start = low + w * (np.where(np.isfinite(high), high, self.zero_edge) - low)
        return np.where(np.isfinite(start) & (start < self._bracket(C)[1]), start, math.log(C))

    def budget(self, C: float) -> float:
        """Monte-Carlo budget mean(H_T1 wealth_T1) at C, Newton started from the kept roots."""
        return self.budget_and_slope(C)[0]

    def budget_and_slope(self, C: float):
        """The budget at C and its slope dB/dlog C between B's jumps (``_roots``).

        Only the wealth is formed: inverse_marginal already gives zero above
        the envelope slope, so no multiplier or residual array is built. The
        roots at C are kept as ``_low`` or ``_high`` when nearer to the
        crossing of x0 than the kept ones, with their du/dlog C.
        """
        log_x, du, slope = self._roots(C, self._start(C), tangent=True)
        wealth = inverse_marginal(self.spec.contract, np.exp(log_x) * self.h_T1)
        value = float(np.mean(self.h_T1 * wealth))
        if value > self.spec.x0:
            if self._low is None or C > self._low[0]:
                self._low, self._du = (C, log_x), du
        elif self._high is None or C < self._high[0]:
            self._high, self._du = (C, log_x), du
        if self._low and self._high:
            self._du = None
        return value, slope

    def _jumps(self):
        """The budget's jumps between the two kept sides ``_low`` and ``_high``.

        They are the paths live at the low side and on the zero branch at
        the high one. Returns those paths, the C_i at which each turns, and
        the budget it takes with it, h_i x_hat / n. C_i is where
        F(zero_edge_i, C) = 0: at a fixed log x, F increases in C at
        dF/dlog C = -V'(log nu_T) C/(C - p x), V' from ``value_and_slope``.
        Where the edge lies at or above the cap hi(C) the classification
        tests F(hi) < 0 instead, so C counts as live. One bracketed Newton
        solve in log C for all the paths, each point that leaves its
        bracket replaced by the midpoint, until every step is at most
        4 eps max(1, |log C|).
        """
        (c_lo, low), (c_hi, high) = self._low, self._high
        rows = np.flatnonzero(np.isfinite(low) & np.isinf(high))
        sizes = self.h_T1[rows] * (self.spec.contract.x_hat / self.h_T1.size)
        claim = self.claim.part(rows)
        edge = self.zero_edge[rows]
        px = self.p * np.exp(edge)
        stop_wealth = claim.scale * np.exp(-edge / claim.gamma) * claim.h_pow - claim.shift
        a, b = np.full(edge.size, math.log(c_lo)), np.full(edge.size, math.log(c_hi))
        v = 0.5 * (a + b)
        for _ in range(_MAX_STEPS):
            C = np.exp(v)
            rest = C - px
            with np.errstate(invalid="ignore", divide="ignore"):  # beyond the cap, C <= p x
                value, slope = claim.value_and_slope(np.log(rest / (1.0 - self.p)))
            f = np.where(edge < np.log(C / self.p) + math.log1p(-1e-13), stop_wealth - value, -np.inf)
            a, b = np.where(f > 0.0, a, v), np.where(f > 0.0, v, b)
            with np.errstate(invalid="ignore"):
                nxt = v + f * rest / (slope * C)
            nxt = np.where((a <= nxt) & (nxt <= b), nxt, 0.5 * (a + b))
            done = np.all((np.abs(nxt - v) <= 4.0 * _EPS * np.maximum(1.0, np.abs(v))) | (f == 0.0))
            v = nxt
            if done:
                break
        return rows, np.exp(v), sizes

    def _live(self, row: int, C: float) -> bool:
        """The classification of ``_roots`` for path ``row`` at C: F(min(edge, hi)) <= 0."""
        s = slice(row, row + 1)
        top = np.minimum(self.zero_edge[s], self._bracket(C)[1])
        return bool(self.residual(top, C, self.claim.part(s))[0] <= 0.0)

    def _switch(self, row: int, C: float):
        """Adjacent doubles c < nextafter(c) near C at which path ``row`` turns from live to zero.

        A walk by single doubles from C, as ``payoff._solve_tangency`` takes;
        None when it has not found the switch after _MAX_STEPS doubles.
        """
        up = self._live(row, C)
        for _ in range(_MAX_STEPS):
            nxt = math.nextafter(C, math.inf if up else 0.0)
            if self._live(row, nxt) != up:
                return (C, nxt) if up else (nxt, C)
            C = nxt
        return None


def _calibrate(kernel: _InnerKernel, u0: float, xtol: float):
    """C with budget(C) = x0 from log C = u0; see ``solve_uncertain_horizon``.

    Newton steps in log C on the exact slope, clipped to log 2 until the
    budget crosses x0, then taken only while each lands inside the bracket
    and the step before it at least halved |B - x0|; otherwise
    ``_across_jumps`` takes over on the bracket. A step of at most
    4 eps |log C| + xtol ends the search at C times e^step, before the
    bracket is consulted. Where the slope is not negative the step is
    log 2. Returns C, the (C, budget) pair of each evaluation, and, where
    the search ended on a bracket, its low end and the budget's drop
    across it relative to x0; else None.
    """
    x0 = kernel.spec.x0
    history = []

    def excess(C):
        value, slope = kernel.budget_and_slope(C)
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
                c, jump = _across_jumps(kernel, excess, above, below, newest, xtol)
                return c, tuple(history), jump
        f_prev = f_u
        u += step
        f_u, df = excess(math.exp(u))
        halved = abs(f_u) <= 0.5 * abs(f_prev)
    raise ConvergenceError(
        f"no sign change in {_MAX_BRACKET_STEPS} steps of log 2 from {math.exp(u0)!r}", history
    )


def _across_jumps(kernel: _InnerKernel, excess, above, below, newest, xtol: float):
    """The calibration of C on a bracket whose budget jumps, from ``_calibrate``.

    The paths live at the bracket's low end and on the zero branch at its
    high end are the budget's jumps in between: path i takes h_i x_hat / n
    out of the budget from its switch C_i on (``_jumps``, and ``_switch``
    once walked to the double). The model of the budget from the newest
    evaluated end, its value and slope in log C less (or plus) the jumps
    passed, gives the next C: its crossing of x0 on a smooth piece, or,
    where x0 lies inside path k's jump, _SWITCH_MARGIN beyond the side of
    path k's switch with the smaller modelled |B - x0|, then beyond the
    other. A modelled smooth crossing within 4 eps |log C| + xtol of the
    newest end, with no jump between, ends the search there; a next C
    outside the bracket is replaced by the midpoint in log C. Ends when
    the bracket is at most 4 eps |log C| + xtol wide, on the end with the
    smaller |B - x0|.
    """
    x0 = kernel.spec.x0
    rows, switch, jumps = kernel._jumps()
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
    return best[0], (above[0], (above[1] - below[1]) / x0)


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
    *,
    c_start: float | None = None,
) -> SolverSolution:
    """Calibrate the multiplier constant C against the Monte-Carlo budget.

    The budget estimate mean(H_T1 * wealth_T1) is monotone decreasing in C
    (larger multipliers buy less wealth), so its root in log C is found by
    safeguarded Newton steps on the exact slope dB/dlog C, to a step of
    4e-13 in log C. The slope leaves out the budget's jumps, one per path
    that turns to the zero branch; where they stop Newton from halving the
    excess, each switching path's C_i is solved in closed form and a model
    of the budget across those jumps picks the next C. When x0 lies inside
    one path's jump, C ends 1e-13 (relative) beside that path's switch, on
    the side whose budget is nearer x0. The search starts from ``c_start``
    when given, such as the C of a neighbouring problem on the same paths,
    and else from the fixed-horizon multiplier; the start changes which C
    are evaluated, and the root only at rounding level. Each distinct C
    costs one inner solve, Newton started from the roots at the nearest C
    evaluated so far, and one entry of ``bracket_history``; the solve at
    the calibrated C starts from log C.
    The reported residual must end up within budget_tol or a
    ConvergenceError with the full evaluation history is raised; its
    message names the jump, its size relative to x0 and its C, when x0
    lies inside a jump wider than budget_tol. A final per-path inner
    residual above 1e-10 max(wealth_T1, 1) on a path with positive wealth
    raises InnerRootError.

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
    if c_start is None:
        c_start = solve_fixed_horizon(spec, horizon=T).nu
    elif not (0.0 < c_start < math.inf):
        raise ValueError(f"c_start must be positive and finite, got {c_start}")
    with ThreadPoolExecutor(n_workers) if n_workers > 1 else contextlib.nullcontext() as pool:
        kernel = _InnerKernel(spec, h_T1, w_T1, pool)
        c_star, history, jump = _calibrate(kernel, math.log(c_start), _LOG_XTOL)
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
        inside = ""
        if jump is not None and jump[1] > budget_tol:
            inside = f"; x0 lies inside a budget jump of {jump[1]:.3e} x0 at C={jump[0]!r}"
        raise ConvergenceError(
            f"budget residual {budget_residual:.3e} above tolerance {budget_tol:.1e} "
            f"after {len(history)} budget evaluations{inside}",
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
