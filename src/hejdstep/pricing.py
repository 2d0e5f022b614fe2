"""Maturity-randomized pricing of geometric down-and-out step calls.

Replacing the deterministic maturity with an independent exponential time of
intensity theta turns the pricing PIDE into an ordinary integro-differential
equation whose solutions are piecewise combinations of power functions
x^{root}, with the roots taken at level r + theta - knock_rate below the
barrier and r + theta elsewhere.  Matching the jump-integral residuals across
regions plus value/slope continuity at the seams closes a dense linear
system for the coefficients.  The American contract adds an early-exercise
boundary pinned by smooth fit, and its premium splits into diffusion and
jump contributions that share the same matrix and differ only in the
right-hand side.

The European price and the American premium solve the same equation on the
corridor between the barrier and an upper seam (the strike, or a candidate
boundary), and one assembler builds both systems: on the corridor the beta
terms are anchored at the upper seam and the gamma terms at the barrier,
each where it is largest.

The solutions are checked outside the library, in tests/oracles.py: against
the residual of the randomized equation, and at knock rate 0 against
Lewis's Fourier formula for the randomized vanilla call.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, replace
from typing import Callable, Generator, Sequence

import numpy as np

from .errors import (
    AmbiguousBoundaryError,
    ConvergenceError,
    NoBoundaryError,
    SingularSystemError,
)
from .model import DownOutStepSpec, HejdModel
from .roots import RootSet, find_roots

__all__ = [
    "MrEuropeanSolution",
    "MrAmericanSolution",
    "solve_european_mr",
    "eval_european_mr",
    "solve_american_mr",
    "eval_eep_mr",
    "eval_eep_split_mr",
    "eval_american_mr",
]

_COND_CAP = 1e14
_RESIDUAL_REL = 1e-9
# a strike-to-barrier gap below this fraction of K is treated as L = K(1 - gap)
_MIN_LOG_GAP = 1e-9
# log-offset grids (lower, upper, points) of the boundary scan, tried in
# order: from K*(1+1e-6) to K*e^5, expanded geometrically to K*e^20, then
# shrunk toward the strike, where boundaries pinned against it (large theta)
# sit
_BOUNDARY_GRIDS = (
    (math.log1p(1e-6), 5.0, 41),
    (5.0, 10.0, 12),
    (10.0, 20.0, 12),
    (1e-12, math.log1p(1e-6), 25),
)
# Brent's method pins the log-boundary to within xtol + rtol*|b| in at most
# this many steps
_BRENT_XTOL = 1e-13
_BRENT_RTOL = 8.9e-16
_BRENT_MAXITER = 200


@dataclass(frozen=True, eq=False)
class MrEuropeanSolution:
    """Piecewise-exponential representation of the randomized European price.

    coef holds the solved coefficients in _assemble's column order and cols
    its (cD, cF, cFm) slices; the tail's gamma coefficients follow cFm.
    Below the barrier the price is sum_s coef[cD][s] (x/L)^{betas_low[s]},
    on [L, K] it is sum_s coef[cF][s] (x/K)^{betas_mid[s]} + sum_u
    coef[cFm][u] (x/L)^{gammas[u]}, and above K it is sum_u c_minus[u]
    (x/K)^{gammas[u]} + slope_inf * x - offset_inf.  Each family is anchored
    where it is largest.  With barrier == 0 the cD and cFm slices are empty.
    """

    model: HejdModel
    spec: DownOutStepSpec
    theta: float
    roots_low: RootSet | None
    roots_mid: RootSet
    coef: np.ndarray | None
    cols: tuple[slice, slice, slice] | None
    barrier_eff: float
    log_barrier: float | None
    log_strike: float
    slope_inf: float
    offset_inf: float
    residual_inf: float
    cond_estimate: float

    @property
    def c_minus(self) -> np.ndarray:
        """Gamma coefficients of the tail above K."""
        return self.coef[..., self.cols[2].stop:]


@dataclass(frozen=True, eq=False)
class MrAmericanSolution:
    """Randomized American solution: free boundary, premium coefficients and
    their diffusion/jump split (same matrix, split right-hand sides).

    coef has rows total, diffusion and jump, each in the column order of
    european.cols.  Between the barrier and the boundary b the premium is
    sum_s coef[cF][s] (x/b)^{betas_mid[s]} + sum_u coef[cFm][u]
    (x/L)^{gammas[u]} (each family anchored where it is largest); below the
    barrier it is sum_s coef[cD][s] (x/L)^{betas_low[s]}; at and above b it
    equals the exercise gap x - K - Euro(x).
    """

    european: MrEuropeanSolution
    boundary: float
    log_boundary: float
    coef: np.ndarray
    smooth_fit_residual: float
    residual_inf: float
    cond_estimate: float


def _effective_log_barrier(spec: DownOutStepSpec) -> tuple[float, float | None]:
    """(effective barrier, its log) with the near-degenerate L ~ K clamp."""
    K, L = spec.strike, spec.barrier
    if L == 0.0:
        return 0.0, None
    if K - L < _MIN_LOG_GAP * K:
        L = K * (1.0 - _MIN_LOG_GAP)
    return L, math.log(L)


def _equilibrate(Q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row/column scalings of each system in the stack Q (S, n, n);
    vanishing-intensity and knock-out limits scale single columns by huge
    factors that say nothing about solvability."""
    row = np.abs(Q).max(axis=2)
    row[row == 0.0] = 1.0
    scaled = Q / row[:, :, None]
    col = np.abs(scaled).max(axis=1)
    col[col == 0.0] = 1.0
    return scaled / col[:, None, :], row, col


def _check_residual(
    Q: np.ndarray,
    sol: np.ndarray,
    rhs: np.ndarray,
    row: np.ndarray,
    col: np.ndarray,
    Qs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(normwise backward error, largest raw residual) of each system.

    The backward error is that of the equilibrated system, the quantity LU
    with partial pivoting actually guarantees; the raw infinity-norm bound
    follows from it at sanely scaled parameters.
    """
    raw = (Q @ sol[:, :, None])[:, :, 0] - rhs
    scaled = np.abs(raw / row).max(axis=1)
    denom = (
        np.abs(Qs).sum(axis=2).max(axis=1) * np.abs(sol * col).max(axis=1)
        + np.abs(rhs / row).max(axis=1)
        + 1e-300
    )
    return scaled / denom, np.abs(raw).max(axis=1)


def _solve_dense(
    Q: np.ndarray, rhs: Sequence[np.ndarray], what: str
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Solve each system of the stack Q (S, n, n) for each right-hand side,
    an (S, n) array.  Each system gets one equilibration and one condition
    estimate, then one LU solve and one backward-error check per right-hand
    side; the stacked LAPACK calls round exactly as one call per system.

    Returns the solutions (one (S, n) array per right-hand side), the
    largest raw residual of each system and its condition estimate.  Raises
    the SingularSystemError of the first system in the stack that fails a
    check: non-finite entries, condition estimate above 1e14, or backward
    error above 1e-9.
    """

    def check(bad: np.ndarray, message: Callable[[int], str]) -> None:
        if bad.any():
            s = int(np.argmax(bad))
            if s:
                # a system before s may fail a later check: it is the first
                _solve_dense(Q[:s], [b[:s] for b in rhs], what)
            raise SingularSystemError(message(s))

    finite = np.isfinite(Q).all(axis=(1, 2))
    for b in rhs:
        finite &= np.isfinite(b).all(axis=1)
    check(~finite, lambda s: f"{what}: non-finite entries in the assembled system")
    Qs, row, col = _equilibrate(Q)
    try:
        cond = np.linalg.cond(Qs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"{what}: condition estimate failed ({exc})") from exc
    check(
        ~np.isfinite(cond) | (cond > _COND_CAP),
        lambda s: f"{what}: condition estimate {cond[s]:.3e} exceeds {_COND_CAP:.0e}",
    )
    sols, resid = [], np.zeros(len(Q))
    for i, b in enumerate(rhs):
        sol = np.linalg.solve(Qs, (b / row)[:, :, None])[:, :, 0] / col
        backward, raw = _check_residual(Q, sol, b, row, col, Qs)
        resid = np.maximum(resid, raw)
        label = what if len(rhs) == 1 else f"{what} (right-hand side {i})"
        check(
            backward > _RESIDUAL_REL,
            lambda s: f"{label}: backward error {backward[s]:.3e} above {_RESIDUAL_REL:.0e}",
        )
        sols.append(sol)
    return sols, resid, cond


def _assemble(
    sol: MrEuropeanSolution, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, tuple[slice, slice, slice]]:
    """Systems of the European price or the American premium at a stack of
    S upper log-anchors u.

    sol is one solution shared by the S systems, or a _stack of S, one each.

    Below the barrier L the solution is sum_s D[s] (x/L)^{betas_low[s]}.  On
    the corridor [L, U], U = e^u, it is sum_s F[s] (x/U)^{betas_mid[s]} +
    sum_v Fm[v] (x/L)^{gammas[v]}: each family is anchored where it is
    largest, so every matrix entry carries a decaying exponential and the
    system stays bounded however far apart L and U sit.  Above U it is a
    linear part plus gamma terms anchored at K:

    - the American premium, when sol is solved: U is a candidate boundary
      and above it the premium is the known exercise gap x - K - Euro(x);
    - the European price, when sol.coef is None: U = K, and the n + 1
      gamma coefficients above K are unknowns too.  Their columns follow
      the corridor's, closed by the down-jump residuals seen from above K
      and slope continuity at K.

    With a zero barrier the D and Fm columns and the barrier's rows are left
    out.  Returns (Q, q_total, q_diffusion, q_jump, (cD, cF, cFm)): Q has
    shape (S, size, size) and each right-hand side (S, size).  The diffusion
    right-hand side carries the value (and slope) rows at U, the jump one
    the jump-integral rows, and they sum to q_total.  Exponentials of a
    scalar (an anchor, or an anchor times an up rate) go through math.exp,
    one call each: numpy's vectorized exp differs from it in the last bit
    for a few percent of arguments.
    """
    model = sol.model
    r, d = model.r, model.delta
    theta = np.reshape(sol.theta, (-1, 1))  # one row per solution, as the roots
    bM, gM = sol.roots_mid.betas, sol.roots_mid.gammas
    xi = np.asarray(model.up_rates)
    eta = np.asarray(model.down_rates)[:, None]
    xi_bM = xi[:, None] - bM[..., None, :]
    xi_gM = xi[:, None] - gM[..., None, :]
    eta_bM = eta + bM[..., None, :]
    eta_gM = eta + gM[..., None, :]
    up_r = xi * (r + theta)
    up_d = (xi - 1.0) * (d + theta)
    mm, n = model.m, model.n
    S = len(u)
    barrier = sol.log_barrier is not None
    free = sol.coef is None
    e_tail = np.exp(gM * (u - sol.log_strike)[:, None])  # tail gamma terms at U
    cD = slice(0, mm + 1 if barrier else 0)
    cF = slice(cD.stop, cD.stop + mm + 1)
    cFm = slice(cF.stop, cF.stop + (n + 1 if barrier else 0))
    size = cFm.stop + (n + 1 if free else 0)
    cC = slice(cFm.stop, size)
    # rows: up-jump residuals seen from below the barrier and from the
    # corridor, down-jump residuals seen from the corridor and from above U,
    # value at L and at U, slope at L and at U
    r_lo = slice(0, mm if barrier else 0)
    r_up = slice(r_lo.stop, r_lo.stop + mm)
    r_dn = slice(r_up.stop, r_up.stop + (n if barrier else 0))
    r_hi = slice(r_dn.stop, r_dn.stop + (n if free else 0))
    v_L, v_U = r_hi.stop, r_hi.stop + barrier
    s_L, s_U = v_U + 1, v_U + 1 + barrier
    Q = np.zeros((S, size, size))
    q0 = np.zeros((S, size))
    qJ = np.zeros((S, size))
    # above U: a linear part a x - c, which enters the rows through
    # n_r = (r + theta) c and n_d = (d + theta) a U, plus the tail's gamma terms
    if free:
        # European price: theta x / (d + theta) - theta K / (r + theta) plus
        # unknown gamma terms, closed by the down-jump residuals seen from
        # above K and slope continuity at K
        n_r = theta * sol.spec.strike
        n_d = np.broadcast_to(n_r, (S, 1))
        Q[:, r_up, cC] = e_tail[:, None, :] / xi_gM
        Q[:, v_U, cC] = -e_tail
        Q[:, r_hi, cF] = 1.0 / eta_bM
        Q[:, r_hi, cC] = -e_tail[:, None, :] / eta_gM
        qJ[:, r_hi] = n_d / ((eta.T + 1.0) * (d + theta)) - n_r / (eta.T * (r + theta))
        Q[:, s_U, cF] = bM
        Q[:, s_U, cC] = -gM * e_tail
        q0[:, s_U] = (n_d / (d + theta))[:, 0]
        known_up = known_value = 0.0
    else:
        # exercise gap: d x / (d + theta) - r K / (r + theta) minus the
        # European's gamma terms, all known
        n_r = r * sol.spec.strike
        n_d = d * np.array([math.exp(b) for b in u])[:, None]
        C_euro = sol.c_minus * e_tail
        known_up = (C_euro[:, None, :] / xi_gM).sum(axis=2)
        known_value = C_euro.sum(axis=1, keepdims=True)
    # up-jump residuals seen from the corridor, value at U
    Q[:, r_up, cF] = -1.0 / xi_bM
    qJ[:, r_up] = known_up + n_r / up_r - n_d / up_d
    Q[:, v_U, cF] = 1.0
    q0[:, v_U] = (n_d / (d + theta) - n_r / (r + theta) - known_value)[:, 0]
    if not barrier:
        return Q, q0 + qJ, q0, qJ, (cD, cF, cFm)

    bL = sol.roots_low.betas
    eta_bL = eta + bL[..., None, :]
    bl = u - sol.log_barrier
    # (U/L)^{-xi_i}: an up jump from the barrier clears U
    e_up = np.array([[math.exp(-x * v) for x in model.up_rates] for v in bl])
    bl = bl[:, None]
    e_beta = np.exp(-bM * bl)  # beta terms at the barrier
    e_gamma = np.exp(gM * bl)  # gamma terms at U
    # up-jump residuals seen from below the barrier
    Q[:, r_lo, cD] = -1.0 / (xi[:, None] - bL[..., None, :])
    Q[:, r_lo, cF] = (e_beta[:, None, :] - e_up[:, :, None]) / xi_bM
    Q[:, r_lo, cFm] = (1.0 - np.exp((gM[..., None, :] - xi[:, None]) * bl[:, :, None])) / xi_gM
    if free:
        Q[:, r_lo, cC] = e_up[:, :, None] * e_tail[:, None, :] / xi_gM
        known_lo = 0.0
    else:
        known_lo = (sol.c_minus[..., None, :] * e_up[:, :, None] * e_tail[:, None, :] / xi_gM).sum(axis=2)
    qJ[:, r_lo] = known_lo + n_r * e_up / up_r - n_d * e_up / up_d
    # the corridor's gamma terms in the up-jump rows and the value row at U
    Q[:, r_up, cFm] = -e_gamma[:, None, :] / xi_gM
    Q[:, v_U, cFm] = e_gamma
    # down-jump residuals seen from the corridor, value and slope at L
    Q[:, r_dn, cD] = 1.0 / eta_bL
    Q[:, r_dn, cF] = -e_beta[:, None, :] / eta_bM
    Q[:, r_dn, cFm] = -1.0 / eta_gM
    Q[:, v_L, cD] = 1.0
    Q[:, v_L, cF] = -e_beta
    Q[:, v_L, cFm] = -1.0
    Q[:, s_L, cD] = bL
    Q[:, s_L, cF] = -bM * e_beta
    Q[:, s_L, cFm] = -gM
    if free:
        # the barrier's columns in the rows above K; (U/L)^{-eta_j}: a down
        # jump from U clears the barrier
        e_dn = np.exp(-eta.T * bl)
        Q[:, r_hi, cD] = e_dn[:, :, None] / eta_bL
        Q[:, r_hi, cF] = (1.0 - e_dn[:, :, None] * e_beta[:, None, :]) / eta_bM
        Q[:, r_hi, cFm] = (e_gamma[:, None, :] - e_dn[:, :, None]) / eta_gM
        Q[:, s_U, cFm] = gM * e_gamma
    return Q, q0 + qJ, q0, qJ, (cD, cF, cFm)


def _stack(sols: Sequence[MrEuropeanSolution]) -> MrEuropeanSolution:
    """Solutions of one (model, spec) as one solution holding a row per
    solution in its per-abscissa fields (theta, the roots, coef), from which
    _assemble and _smooth_fit_gap build one system per row."""
    rows = lambda field: np.array([field(s) for s in sols])
    head, low = sols[0], sols[0].roots_low
    return replace(
        head, theta=rows(lambda s: s.theta),
        roots_mid=replace(head.roots_mid, betas=rows(lambda s: s.roots_mid.betas),
                          gammas=rows(lambda s: s.roots_mid.gammas)),
        roots_low=None if low is None else replace(low, betas=rows(lambda s: s.roots_low.betas)),
        coef=None if head.coef is None else rows(lambda s: s.coef),
    )


def _abscissa_cache(solve_stack: Callable) -> Callable:
    """Cache in front of solve_stack(model, spec, thetas), which solves a
    tuple of abscissae of one (model, spec) together.  The cached function
    takes one theta or a tuple of them and returns one solution or a tuple;
    an lru_cache of 256 whole stacks (model, spec, thetas) keeps nothing of
    a solve that raises.  cache_info() is lru_cache's, with hits and misses
    counted per abscissa; __wrapped__ solves without the cache."""
    lock, counts = threading.Lock(), {"looked_up": 0, "solved": 0}

    @functools.lru_cache(maxsize=256)
    def solve_cached(model, spec, thetas: tuple) -> tuple:
        with lock:
            counts["solved"] += len(thetas)
        return tuple(solve_stack(model, spec, thetas))

    def lookup(model, spec, thetas: tuple) -> tuple:
        with lock:
            counts["looked_up"] += len(thetas)
        return solve_cached(model, spec, thetas) if thetas else ()  # an empty stack is (), unsolved

    def per_theta(run: Callable) -> Callable:  # one theta, or a tuple of them
        return lambda model, spec, theta: (
            tuple(run(model, spec, theta)) if isinstance(theta, tuple) else run(model, spec, (theta,))[0])

    def cache_info():
        with lock:
            return solve_cached.cache_info()._replace(hits=counts["looked_up"] - counts["solved"],
                                                      misses=counts["solved"])

    def cache_clear() -> None:
        with lock:
            solve_cached.cache_clear()
            counts.update(looked_up=0, solved=0)

    solve = functools.update_wrapper(per_theta(lookup), solve_stack)
    solve.cache_info, solve.cache_clear = cache_info, cache_clear
    solve.__wrapped__ = per_theta(solve_stack)
    return solve


@_abscissa_cache
def solve_european_mr(model: HejdModel, spec: DownOutStepSpec, thetas: tuple) -> list[MrEuropeanSolution]:
    """Coefficients of the maturity-randomized European down-and-out step call
    at theta, one abscissa or a tuple of them (then a tuple of solutions).

    Assembles the dense (2m+2n+4)-square system (or the reduced (m+n+2) one
    when the barrier is 0) of each abscissa with _assemble at the upper
    anchor K, so the beta terms are anchored at K and the gamma terms at L,
    and solves all of them by stacked LU with partial pivoting.  Nothing is
    clamped, ill conditioning raises SingularSystemError.
    """
    r, d = model.r, model.delta
    barrier_eff, ell = _effective_log_barrier(spec)
    frames = []
    for theta in thetas:
        theta = float(theta)
        if not theta > 0.0:
            raise ValueError("theta must be strictly positive")
        roots_mid = find_roots(model, r + theta)
        roots_low = None
        if ell is not None:
            # r + theta - 0.0 == r + theta exactly, so a standard contract's
            # low region shares the mid-region roots
            roots_low = roots_mid if spec.knock_rate == 0.0 else find_roots(model, r + theta - spec.knock_rate)
        # a solution without coefficients: _assemble takes its tail's gamma
        # terms as unknowns too
        frames.append(MrEuropeanSolution(
            model=model, spec=spec, theta=theta, roots_low=roots_low, roots_mid=roots_mid, coef=None, cols=None,
            barrier_eff=barrier_eff, log_barrier=ell, log_strike=math.log(spec.strike),
            slope_inf=theta / (d + theta), offset_inf=theta * spec.strike / (r + theta),
            residual_inf=math.nan, cond_estimate=math.nan,
        ))
    Q, q, _, _, cols = _assemble(_stack(frames), np.full(len(frames), frames[0].log_strike))
    (v,), resid, cond = _solve_dense(Q, [q], "european system")
    return [
        replace(frame, coef=v[s], cols=cols, residual_inf=float(resid[s]), cond_estimate=float(cond[s]))
        for s, frame in enumerate(frames)
    ]


def _eval_corridor(euro: MrEuropeanSolution, w: np.ndarray, log_upper: float, x: float) -> float:
    """Value at spot 0 < x <= upper anchor of a solution w assembled by
    _assemble, columns euro.cols: the beta terms anchored at log_upper, the
    low-region and gamma terms at the barrier."""
    cD, cF, cFm = euro.cols
    lx = math.log(x)
    if euro.log_barrier is not None and x < euro.barrier_eff:
        return float(np.sum(w[cD] * np.exp(euro.roots_low.betas * (lx - euro.log_barrier))))
    out = float(np.sum(w[cF] * np.exp(euro.roots_mid.betas * (lx - log_upper))))
    if euro.log_barrier is not None:
        out += float(np.sum(w[cFm] * np.exp(euro.roots_mid.gammas * (lx - euro.log_barrier))))
    return out


def _check_spot(x: float) -> float:
    """x as a float, or ValueError unless it is finite and non-negative."""
    x = float(x)
    if not 0.0 <= x < math.inf:
        raise ValueError(f"spot must be finite and non-negative, got {x!r}")
    return x


def eval_european_mr(sol: MrEuropeanSolution, x: float) -> float:
    """Randomized European price at spot x (middle branch at the seams)."""
    x = _check_spot(x)
    if x == 0.0:
        return 0.0
    if x <= sol.spec.strike:
        return _eval_corridor(sol, sol.coef, sol.log_strike, x)
    lx = math.log(x)
    tail = float(np.sum(sol.c_minus * np.exp(sol.roots_mid.gammas * (lx - sol.log_strike))))
    return tail + sol.slope_inf * x - sol.offset_inf


def _smooth_fit_gap(
    sol: MrEuropeanSolution, b_log: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Slope mismatch at each candidate boundary b_log[s] of the premium
    solved in w[s] (columns sol.cols), and its natural scale."""
    model, theta = sol.model, sol.theta
    d = model.delta
    bM, gM = sol.roots_mid.betas, sol.roots_mid.gammas
    eb = np.array([math.exp(b) for b in b_log])
    _, cF, cFm = sol.cols
    lhs = (w[:, cF] * bM).sum(axis=1)
    if sol.log_barrier is not None:
        bl = (b_log - sol.log_barrier)[:, None]
        lhs = lhs + (w[:, cFm] * gM * np.exp(gM * bl)).sum(axis=1)
    euro_slope = (sol.c_minus * gM * np.exp(gM * (b_log - sol.log_strike)[:, None])).sum(axis=1)
    exercise_slope = d * eb / (d + theta)
    scale = np.maximum(1.0, np.maximum(np.abs(exercise_slope), np.abs(euro_slope)))
    return lhs - (exercise_slope - euro_slope), scale


def _brent(a: float, b: float, fa: float, fb: float) -> Generator[float, float, float]:
    """Zero of f in the log-boundary bracket [a, b], given fa = f(a) and
    fb = f(b) of opposite signs (or one of them zero): a generator that
    yields each candidate, is sent f there and returns the zero (_lockstep).

    Brent's zero-finder (Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 4) in the operation order of the C routine
    Zeros/brentq.c, so it takes that routine's iterates bit for bit.
    Raises ConvergenceError when sent NaN or the step cap is reached.
    """
    xpre, xcur, fpre, fcur = a, b, fa, fb
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_BRENT_XTOL + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                # step rejected: bisect
                spre = scur = sbis
        else:
            # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = yield xcur
        if math.isnan(fcur):
            raise ConvergenceError(
                f"american boundary search: smooth-fit gap is NaN at log-boundary {xcur!r}"
            )
    raise ConvergenceError(
        f"american boundary search: Brent's method did not converge in {_BRENT_MAXITER} "
        f"steps on the log-boundary bracket [{a!r}, {b!r}]"
    )


def _lockstep(searches: Sequence[Generator], f: Callable) -> list[float]:
    """Results of the searches (_brent generators), run together: each round
    evaluates the candidates of all unfinished searches with one call
    f(their indices, their candidates) and sends each search its value."""
    out, sends = [math.nan] * len(searches), dict.fromkeys(range(len(searches)))
    while sends:
        pending = {}
        for i, value in sends.items():
            try:
                pending[i] = searches[i].send(value)
            except StopIteration as stop:
                out[i] = stop.value
        sends = dict(zip(pending, map(float, f(list(pending), list(pending.values()))))) if pending else {}
    return out


def _gaps(euro: MrEuropeanSolution, b_log: np.ndarray) -> np.ndarray:
    """Smooth-fit gaps at candidate boundaries b_log, of one solution or a _stack."""
    Q, q, _, _, _ = _assemble(euro, b_log)
    (w,), _, _ = _solve_dense(Q, [q], "american system")
    return _smooth_fit_gap(euro, b_log, w)[0]


def _bracket(euro: MrEuropeanSolution) -> tuple[float, float, float, float]:
    """(a, b, gap at a, gap at b): the log-boundary bracket of the one
    smooth-fit sign change that the boundary scan finds."""
    for lo, hi, size in _BOUNDARY_GRIDS:
        pts = euro.log_strike + np.geomspace(lo, hi, size)
        vals = _gaps(euro, pts)
        brackets = [i for i in range(size - 1) if vals[i] == 0.0 or vals[i] * vals[i + 1] < 0.0]
        if brackets:
            break
    else:
        raise NoBoundaryError(f"no smooth-fit sign change on (K, K*e^20) at theta={euro.theta} "
                              "(degenerate early-exercise region)")
    if len(brackets) > 1:
        spot_br = [(math.exp(pts[i]), math.exp(pts[i + 1])) for i in brackets]
        raise AmbiguousBoundaryError(f"{len(brackets)} smooth-fit sign changes found: {spot_br}", spot_br)
    (i,) = brackets
    return float(pts[i]), float(pts[i + 1]), float(vals[i]), float(vals[i + 1])


@_abscissa_cache
def solve_american_mr(model: HejdModel, spec: DownOutStepSpec, thetas: tuple) -> list[MrAmericanSolution]:
    """Randomized American solution at theta, one abscissa or a tuple of
    them (then a tuple of solutions): an outer scalar search on each
    abscissa's early-exercise boundary.

    The boundary is the unique sign change of the smooth-fit slope gap on
    (K, K*e^20].  Log-spaced grids of candidates bracket it, tried in turn
    until one shows a sign change: all candidate premium systems of a grid
    are assembled as one stack and solved by stacked LAPACK calls, each
    system gated by the same condition and backward-error checks as a
    single solve, and a candidate that fails them raises
    SingularSystemError.  More than one sign change on a grid raises
    AmbiguousBoundaryError, none on any grid NoBoundaryError.  Brent's
    zero-finder (Brent 1973, ch. 4, as the C routine brentq.c runs it) then
    pins the boundary inside the bracket, starting from the scan's gaps at
    its ends.  The abscissae's searches run in lockstep, a round solving
    their candidates as one stack, as are the European and final solves;
    stacked LAPACK rounds as one call per system, so each solution equals
    the one solved alone.
    """
    if model.delta <= 0.0:
        raise NoBoundaryError(
            "early exercise of the call requires a positive dividend yield"
        )
    euros = solve_european_mr(model, spec, thetas)
    round_gaps = lambda active, b_log: _gaps(_stack([euros[i] for i in active]), np.array(b_log))
    b_logs = _lockstep([_brent(*_bracket(euro)) for euro in euros], round_gaps)

    # one matrix per abscissa serves the total and both premium-split
    # right-hand sides
    stack, b = _stack(euros), np.array(b_logs)
    Q, q, q0, qJ, _ = _assemble(stack, b)
    (w, w0, wJ), resid, cond = _solve_dense(Q, [q, q0, qJ], "american system")
    g, g_scale = _smooth_fit_gap(stack, b, w)
    return [
        MrAmericanSolution(european=euro, boundary=math.exp(b_log), log_boundary=b_log,
                           coef=np.stack([w[s], w0[s], wJ[s]]),
                           smooth_fit_residual=float(abs(g[s]) / g_scale[s]),
                           residual_inf=float(resid[s]), cond_estimate=float(cond[s]))
        for s, (euro, b_log) in enumerate(zip(euros, b_logs))
    ]


def eval_eep_mr(sol: MrAmericanSolution, x: float) -> float:
    """Randomized early-exercise premium at spot x."""
    x = _check_spot(x)
    if x == 0.0:
        return 0.0
    if x >= sol.boundary:
        return x - sol.european.spec.strike - eval_european_mr(sol.european, x)
    return _eval_corridor(sol.european, sol.coef[0], sol.log_boundary, x)


def eval_eep_split_mr(sol: MrAmericanSolution, x: float) -> tuple[float, float, float]:
    """(total, diffusion, jump) premium at spot x.

    At the boundary the diffusion part carries the full exercise gap and the
    jump part is zero; strictly above it the roles swap.  The total is
    evaluated from the unsplit coefficients, so total == diffusion + jump is
    a solver property, not an identity of this function.
    """
    x = _check_spot(x)
    total = eval_eep_mr(sol, x)
    if x == 0.0:
        return 0.0, 0.0, 0.0
    if abs(x - sol.boundary) <= 1e-12 * sol.boundary:
        return total, x - sol.european.spec.strike - eval_european_mr(sol.european, x), 0.0
    if x > sol.boundary:
        # the total is already the exercise gap there
        return total, 0.0, total
    euro, b = sol.european, sol.log_boundary
    return total, _eval_corridor(euro, sol.coef[1], b, x), _eval_corridor(euro, sol.coef[2], b, x)


def eval_american_mr(sol: MrAmericanSolution, x: float) -> float:
    """Randomized American price: European part plus premium."""
    return eval_european_mr(sol.european, x) + eval_eep_mr(sol, x)
