"""Maturity-randomized pricing of geometric down-and-out step calls.

Replacing the deterministic maturity with an independent exponential time of
intensity theta turns the pricing PIDE into an ordinary integro-differential
equation whose solutions are piecewise combinations of power functions
x^{root}, with the roots taken at level r + theta - knock_rate below the
barrier and r + theta elsewhere.  Matching the jump-integral residuals across
regions plus value/slope continuity at the barrier and the strike closes a
dense linear system for the coefficients; the American contract adds an
early-exercise boundary pinned by smooth fit, and its premium splits into
diffusion and jump contributions that share the same matrix and differ only
in the right-hand side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import brentq

from .errors import (
    AmbiguousBoundaryError,
    NoBoundaryError,
    SingularSystemError,
)
from .model import (
    DownOutStepSpec,
    GeneratorConfig,
    HejdModel,
    generator_apply,
)
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
    "seasoned_price",
    "oide_residual",
]

_COND_CAP = 1e14
_RESIDUAL_REL = 1e-9
# a strike-to-barrier gap below this fraction of K is treated as L = K(1 - gap)
_MIN_LOG_GAP = 1e-9
_BOUNDARY_SCAN = 41


@dataclass(frozen=True, eq=False)
class MrEuropeanSolution:
    """Piecewise-exponential representation of the randomized European price.

    Below the barrier the price is sum_s a_plus[s] (x/L)^{betas_low[s]}, on
    [L, K] it is sum_s b_plus[s] (x/L)^{betas_mid[s]} + sum_u b_minus[u]
    (x/K)^{gammas[u]}, and above K it is sum_u c_minus[u] (x/K)^{gammas[u]}
    + slope_inf * x - offset_inf.  With barrier == 0 the lower region is
    empty, the gamma terms below the strike vanish, and b_plus anchors at K.
    """

    model: HejdModel
    spec: DownOutStepSpec
    theta: float
    roots_low: RootSet | None
    roots_mid: RootSet
    a_plus: np.ndarray
    b_plus: np.ndarray
    b_minus: np.ndarray
    c_minus: np.ndarray
    barrier_eff: float
    log_barrier: float | None
    log_strike: float
    slope_inf: float
    offset_inf: float
    residual_inf: float
    cond_estimate: float

    @property
    def mid_anchor(self) -> float:
        return self.log_strike if self.log_barrier is None else self.log_barrier


@dataclass(frozen=True, eq=False)
class MrAmericanSolution:
    """Randomized American solution: free boundary, premium coefficients and
    their diffusion/jump split (same matrix, split right-hand sides).

    Between the barrier and the boundary the premium is
    sum_s f_plus[s] (x/b)^{betas_mid[s]} + sum_u f_minus[u] (x/L)^{gammas[u]}
    (each family anchored where it is largest); below the barrier it is
    sum_s d_plus[s] (x/L)^{betas_low[s]}; at and above b it equals the
    exercise gap x - K - Euro(x).
    """

    european: MrEuropeanSolution
    boundary: float
    log_boundary: float
    d_plus: np.ndarray
    f_plus: np.ndarray
    f_minus: np.ndarray
    d0_plus: np.ndarray
    f0_plus: np.ndarray
    f0_minus: np.ndarray
    dj_plus: np.ndarray
    fj_plus: np.ndarray
    fj_minus: np.ndarray
    smooth_fit_residual: float
    residual_inf: float
    cond_estimate: float

    @property
    def theta(self) -> float:
        return self.european.theta


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
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray, SingularSystemError | None]:
    """Solve each system of the stack Q (S, n, n) for each right-hand side,
    an (S, n) array.  Each system gets one equilibration and one condition
    estimate, then one LU solve and one backward-error check per right-hand
    side; the stacked LAPACK calls round exactly as one call per system.

    The systems are taken in order, and the first one that fails a check
    (non-finite entries, condition estimate above 1e14, backward error above
    1e-9) ends the run.  Returns the solutions of the systems before it (one
    (S', n) array per right-hand side), their largest raw residuals, their
    condition estimates, and the SingularSystemError of the failing system
    (None when all S pass).
    """
    n_ok, failure = len(Q), None

    def stop_at_first(bad: np.ndarray, message: Callable[[int], str]) -> None:
        nonlocal n_ok, failure
        if bad.any():
            n_ok = int(np.argmax(bad))
            failure = SingularSystemError(message(n_ok))

    finite = np.isfinite(Q).all(axis=(1, 2))
    for b in rhs:
        finite &= np.isfinite(b).all(axis=1)
    stop_at_first(~finite, lambda s: f"{what}: non-finite entries in the assembled system")
    Qs, row, col = _equilibrate(Q[:n_ok])
    try:
        cond = np.linalg.cond(Qs)
    except np.linalg.LinAlgError:
        # an SVD did not converge: estimate one system at a time up to it
        cond = []
        for A in Qs:
            try:
                cond.append(np.linalg.cond(A))
            except np.linalg.LinAlgError as exc:
                n_ok = len(cond)
                failure = SingularSystemError(f"{what}: condition estimate failed ({exc})")
                break
        cond = np.asarray(cond)
    stop_at_first(
        ~np.isfinite(cond) | (cond > _COND_CAP),
        lambda s: f"{what}: condition estimate {cond[s]:.3e} exceeds {_COND_CAP:.0e}",
    )
    sols, resid = [], np.zeros(n_ok)
    for i, b in enumerate(rhs):
        Qs, row, col, b = Qs[:n_ok], row[:n_ok], col[:n_ok], b[:n_ok]
        sol = np.linalg.solve(Qs, (b / row)[:, :, None])[:, :, 0] / col
        backward, raw = _check_residual(Q[:n_ok], sol, b, row, col, Qs)
        resid = np.maximum(resid[:n_ok], raw)
        label = what if len(rhs) == 1 else f"{what} (right-hand side {i})"
        stop_at_first(
            backward > _RESIDUAL_REL,
            lambda s: f"{label}: backward error {backward[s]:.3e} above {_RESIDUAL_REL:.0e}",
        )
        sols.append(sol)
    return [w[:n_ok] for w in sols], resid[:n_ok], cond[:n_ok], failure


def _solve_all(
    Q: np.ndarray, rhs: Sequence[np.ndarray], what: str
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """_solve_dense when every system of the stack must solve: raises the
    SingularSystemError of the first one that fails."""
    sols, resid, cond, failure = _solve_dense(Q, rhs, what)
    if failure is not None:
        raise failure
    return sols, resid, cond


@lru_cache(maxsize=4096)
def solve_european_mr(model: HejdModel, spec: DownOutStepSpec, theta: float) -> MrEuropeanSolution:
    """Coefficients of the maturity-randomized European down-and-out step call.

    Assembles the dense (2m+2n+4)-square system (or the reduced (m+n+2) one
    when the barrier is 0) and solves it by LU with partial pivoting.  All
    exponentials enter in shifted form exp(root * (logK - logL)); nothing is
    clamped, ill conditioning raises SingularSystemError.
    """
    theta = float(theta)
    if not theta > 0.0:
        raise ValueError("theta must be strictly positive")
    r, d = model.r, model.delta
    K = spec.strike
    k = math.log(K)
    rho = spec.knock_rate
    barrier_eff, ell = _effective_log_barrier(spec)
    roots_mid = find_roots(model, r + theta)
    bM, gM = roots_mid.betas, roots_mid.gammas
    xi = np.asarray(model.up_rates)
    eta = np.asarray(model.down_rates)
    mm, n = model.m, model.n
    thK = theta * K
    slope_inf = theta / (d + theta)
    offset_inf = thK / (r + theta)

    if ell is None:
        # barrier at zero: single region below the strike, beta terms anchored
        # at log K, no decaying-at-minus-infinity gamma terms below K
        roots_low = None
        size = mm + n + 2
        Q = np.zeros((size, size))
        rhs = np.zeros(size)
        cB = slice(0, mm + 1)
        cC = slice(mm + 1, size)
        row = 0
        for i in range(mm):
            Q[row, cB] = -1.0 / (xi[i] - bM)
            Q[row, cC] = 1.0 / (xi[i] - gM)
            rhs[row] = thK / (xi[i] * (r + theta)) - thK / ((xi[i] - 1.0) * (d + theta))
            row += 1
        for j in range(n):
            Q[row, cB] = 1.0 / (eta[j] + bM)
            Q[row, cC] = -1.0 / (eta[j] + gM)
            rhs[row] = thK / ((eta[j] + 1.0) * (d + theta)) - thK / (eta[j] * (r + theta))
            row += 1
        Q[row, cB] = 1.0
        Q[row, cC] = -1.0
        rhs[row] = thK / (d + theta) - thK / (r + theta)
        row += 1
        Q[row, cB] = bM
        Q[row, cC] = -gM
        rhs[row] = thK / (d + theta)
        (v,), resid, cond = _solve_all(Q[None], [rhs[None]], "european system (zero barrier)")
        return MrEuropeanSolution(
            model=model, spec=spec, theta=theta,
            roots_low=roots_low, roots_mid=roots_mid,
            a_plus=np.zeros(0), b_plus=v[0, cB], b_minus=np.zeros(0), c_minus=v[0, cC],
            barrier_eff=0.0, log_barrier=None, log_strike=k,
            slope_inf=slope_inf, offset_inf=offset_inf,
            residual_inf=float(resid[0]), cond_estimate=float(cond[0]),
        )

    # r + theta - 0.0 == r + theta exactly, so a standard contract's low
    # region shares the mid-region roots
    roots_low = roots_mid if rho == 0.0 else find_roots(model, r + theta - rho)
    bL = roots_low.betas
    kl = k - ell
    size = 2 * mm + 2 * n + 4
    Q = np.zeros((size, size))
    rhs = np.zeros(size)
    cA = slice(0, mm + 1)
    cB = slice(mm + 1, 2 * mm + 2)
    cBm = slice(2 * mm + 2, 2 * mm + n + 3)
    cC = slice(2 * mm + n + 3, size)
    row = 0
    # up-jump residuals seen from below the barrier
    for i in range(mm):
        x_i = xi[i]
        Q[row, cA] = -1.0 / (x_i - bL)
        Q[row, cB] = (1.0 - np.exp((bM - x_i) * kl)) / (x_i - bM)
        Q[row, cBm] = (np.exp(-gM * kl) - math.exp(-x_i * kl)) / (x_i - gM)
        Q[row, cC] = math.exp(-x_i * kl) / (x_i - gM)
        rhs[row] = thK * math.exp(-x_i * kl) * (
            1.0 / (x_i * (r + theta)) - 1.0 / ((x_i - 1.0) * (d + theta))
        )
        row += 1
    # up-jump residuals seen from the barrier-strike corridor
    for i in range(mm):
        x_i = xi[i]
        Q[row, cB] = -np.exp(bM * kl) / (x_i - bM)
        Q[row, cBm] = -1.0 / (x_i - gM)
        Q[row, cC] = 1.0 / (x_i - gM)
        rhs[row] = thK / (x_i * (r + theta)) - thK / ((x_i - 1.0) * (d + theta))
        row += 1
    # down-jump residuals seen from the corridor
    for j in range(n):
        e_j = eta[j]
        Q[row, cA] = 1.0 / (e_j + bL)
        Q[row, cB] = -1.0 / (e_j + bM)
        Q[row, cBm] = -np.exp(-gM * kl) / (e_j + gM)
        row += 1
    # down-jump residuals seen from above the strike
    for j in range(n):
        e_j = eta[j]
        Q[row, cA] = math.exp(-e_j * kl) / (e_j + bL)
        Q[row, cB] = (np.exp(bM * kl) - math.exp(-e_j * kl)) / (e_j + bM)
        Q[row, cBm] = (1.0 - np.exp(-(e_j + gM) * kl)) / (e_j + gM)
        Q[row, cC] = -1.0 / (e_j + gM)
        rhs[row] = -thK / (e_j * (r + theta)) + thK / ((e_j + 1.0) * (d + theta))
        row += 1
    # value continuity at the barrier and the strike
    Q[row, cA] = 1.0
    Q[row, cB] = -1.0
    Q[row, cBm] = -np.exp(-gM * kl)
    row += 1
    Q[row, cB] = np.exp(bM * kl)
    Q[row, cBm] = 1.0
    Q[row, cC] = -1.0
    rhs[row] = thK / (d + theta) - thK / (r + theta)
    row += 1
    # slope continuity at the barrier and the strike
    Q[row, cA] = bL
    Q[row, cB] = -bM
    Q[row, cBm] = -gM * np.exp(-gM * kl)
    row += 1
    Q[row, cB] = bM * np.exp(bM * kl)
    Q[row, cBm] = gM
    Q[row, cC] = -gM
    rhs[row] = thK / (d + theta)

    (v,), resid, cond = _solve_all(Q[None], [rhs[None]], "european system")
    return MrEuropeanSolution(
        model=model, spec=spec, theta=theta,
        roots_low=roots_low, roots_mid=roots_mid,
        a_plus=v[0, cA], b_plus=v[0, cB], b_minus=v[0, cBm], c_minus=v[0, cC],
        barrier_eff=barrier_eff, log_barrier=ell, log_strike=k,
        slope_inf=slope_inf, offset_inf=offset_inf,
        residual_inf=float(resid[0]), cond_estimate=float(cond[0]),
    )


def eval_european_mr(sol: MrEuropeanSolution, x: float) -> float:
    """Randomized European price at spot x (middle branch at the seams)."""
    x = float(x)
    if x < 0.0:
        raise ValueError("spot must be non-negative")
    if x == 0.0:
        return 0.0
    lx = math.log(x)
    K = sol.spec.strike
    if sol.log_barrier is not None and x < sol.barrier_eff:
        return float(np.sum(sol.a_plus * np.exp(sol.roots_low.betas * (lx - sol.log_barrier))))
    if x <= K:
        out = float(np.sum(sol.b_plus * np.exp(sol.roots_mid.betas * (lx - sol.mid_anchor))))
        if sol.b_minus.size:
            out += float(np.sum(sol.b_minus * np.exp(sol.roots_mid.gammas * (lx - sol.log_strike))))
        return out
    tail = float(np.sum(sol.c_minus * np.exp(sol.roots_mid.gammas * (lx - sol.log_strike))))
    return tail + sol.slope_inf * x - sol.offset_inf


def _assemble_american(
    sol: MrEuropeanSolution, b_log: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[slice]]:
    """American premium systems at a stack of S candidate log-boundaries.

    Returns (Q, q_total, q_diffusion, q_jump, column slices): Q has shape
    (S, size, size) and each right-hand side (S, size).  The diffusion
    right-hand side carries only the value-matching row at the boundary, the
    jump one carries the jump-integral rows, and they sum to q_total.

    Each exponential family is anchored where it is largest: the beta terms
    at the boundary, the gamma terms at the barrier (the unknowns are the
    per-term values there).  Every matrix entry then carries a decaying
    exponential and the system stays bounded however far out the candidate
    boundary sits.  Exponentials of a scalar (a candidate, or a candidate
    times an up rate) go through math.exp, one call each: numpy's vectorized
    exp differs from it in the last bit for a few percent of arguments.
    """
    model, theta = sol.model, sol.theta
    r, d = model.r, model.delta
    rK = r * sol.spec.strike
    bM, gM = sol.roots_mid.betas, sol.roots_mid.gammas
    xi = np.asarray(model.up_rates)
    xi_bM = xi[:, None] - bM
    xi_gM = xi[:, None] - gM
    up_r = xi * (r + theta)
    up_d = (xi - 1.0) * (d + theta)
    mm, n = model.m, model.n
    S = len(b_log)
    d_eb = d * np.array([math.exp(b) for b in b_log])
    e_euro = np.exp(gM * (b_log - sol.log_strike)[:, None])  # gamma terms of the Euro at b
    C_euro = sol.c_minus * e_euro
    value_gap = d_eb / (d + theta) - rK / (r + theta) - C_euro.sum(axis=1)
    # jump rows of the corridor: the exercise gap an up jump lands in
    up_gap = (C_euro[:, None, :] / xi_gM).sum(axis=2) + rK / up_r - d_eb[:, None] / up_d

    if sol.log_barrier is None:
        # zero barrier: premium is a pure beta combination below the boundary
        size = mm + 1
        Q = np.zeros((S, size, size))
        qJ = np.zeros((S, size))
        q0 = np.zeros((S, size))
        Q[:, :mm, :] = -1.0 / xi_bM
        qJ[:, :mm] = up_gap
        Q[:, mm, :] = 1.0
        q0[:, mm] = value_gap
        return Q, q0 + qJ, q0, qJ, [slice(0, 0), slice(0, size), slice(size, size)]

    bL = sol.roots_low.betas
    eta = np.asarray(model.down_rates)[:, None]
    bl = b_log - sol.log_barrier
    # (b/L)^{-xi_i}: an up jump from the barrier clears the boundary
    e_up = np.array([[math.exp(-x * v) for x in model.up_rates] for v in bl])
    bl = bl[:, None]
    e_beta = np.exp(-bM * bl)  # beta terms at the barrier
    e_gamma = np.exp(gM * bl)  # gamma terms at the boundary
    size = 2 * mm + n + 3
    Q = np.zeros((S, size, size))
    q0 = np.zeros((S, size))
    qJ = np.zeros((S, size))
    cD = slice(0, mm + 1)
    cF = slice(mm + 1, 2 * mm + 2)
    cFm = slice(2 * mm + 2, size)
    # up-jump residuals seen from below the barrier
    rows = slice(0, mm)
    Q[:, rows, cD] = -1.0 / (xi[:, None] - bL)
    Q[:, rows, cF] = (e_beta[:, None, :] - e_up[:, :, None]) / xi_bM
    Q[:, rows, cFm] = (1.0 - np.exp((gM - xi[:, None]) * bl[:, :, None])) / xi_gM
    qJ[:, rows] = (
        (sol.c_minus * e_up[:, :, None] * e_euro[:, None, :] / xi_gM).sum(axis=2)
        + rK * e_up / up_r
        - d_eb[:, None] * e_up / up_d
    )
    # up-jump residuals seen from the corridor
    rows = slice(mm, 2 * mm)
    Q[:, rows, cF] = -1.0 / xi_bM
    Q[:, rows, cFm] = -e_gamma[:, None, :] / xi_gM
    qJ[:, rows] = up_gap
    # down-jump residuals seen from the corridor
    rows = slice(2 * mm, 2 * mm + n)
    Q[:, rows, cD] = 1.0 / (eta + bL)
    Q[:, rows, cF] = -e_beta[:, None, :] / (eta + bM)
    Q[:, rows, cFm] = -1.0 / (eta + gM)
    # value continuity at the barrier, value match at the boundary
    row = 2 * mm + n
    Q[:, row, cD] = 1.0
    Q[:, row, cF] = -e_beta
    Q[:, row, cFm] = -1.0
    Q[:, row + 1, cF] = 1.0
    Q[:, row + 1, cFm] = e_gamma
    q0[:, row + 1] = value_gap
    # slope continuity at the barrier
    Q[:, row + 2, cD] = bL
    Q[:, row + 2, cF] = -bM * e_beta
    Q[:, row + 2, cFm] = -gM
    return Q, q0 + qJ, q0, qJ, [cD, cF, cFm]


def _smooth_fit_gap(
    sol: MrEuropeanSolution, b_log: np.ndarray, w: np.ndarray, cols
) -> tuple[np.ndarray, np.ndarray]:
    """Slope mismatch at each candidate boundary b_log[s] of the premium
    solved in w[s], and its natural scale."""
    model, theta = sol.model, sol.theta
    d = model.delta
    bM, gM = sol.roots_mid.betas, sol.roots_mid.gammas
    eb = np.array([math.exp(b) for b in b_log])
    _, cF, cFm = cols
    lhs = (w[:, cF] * bM).sum(axis=1)
    if sol.log_barrier is not None:
        bl = (b_log - sol.log_barrier)[:, None]
        lhs = lhs + (w[:, cFm] * gM * np.exp(gM * bl)).sum(axis=1)
    euro_slope = (sol.c_minus * gM * np.exp(gM * (b_log - sol.log_strike)[:, None])).sum(axis=1)
    exercise_slope = d * eb / (d + theta)
    scale = np.maximum(1.0, np.maximum(np.abs(exercise_slope), np.abs(euro_slope)))
    return lhs - (exercise_slope - euro_slope), scale


@lru_cache(maxsize=4096)
def solve_american_mr(model: HejdModel, spec: DownOutStepSpec, theta: float) -> MrAmericanSolution:
    """Randomized American solution via an outer scalar search on the
    early-exercise boundary.

    The boundary is the unique sign change of the smooth-fit slope gap on
    (K, K*e^20].  A log-spaced scan brackets it: all its candidate premium
    systems are assembled as one stack and solved by stacked LAPACK calls,
    each system gated by the same condition and backward-error checks as a
    single solve.  The scan ends at the first candidate that fails them
    (the usable range stops there), and every sign change before it is
    reported; more than one raises AmbiguousBoundaryError.  Brent's method
    then pins the boundary inside the bracket, one candidate per step.
    """
    if model.delta <= 0.0:
        raise NoBoundaryError(
            "early exercise of the call requires a positive dividend yield"
        )
    euro = solve_european_mr(model, spec, theta)
    k = euro.log_strike

    def gaps(b_log: np.ndarray) -> tuple[np.ndarray, SingularSystemError | None]:
        """Smooth-fit gaps of the leading candidates whose systems pass the
        solve checks, and the failure of the first one that does not."""
        Q, q, _, _, cols = _assemble_american(euro, b_log)
        (w,), _, _, failure = _solve_dense(Q, [q], "american system")
        return _smooth_fit_gap(euro, b_log[: len(w)], w, cols)[0], failure

    def gap(b_log: float) -> float:
        g, failure = gaps(np.array([b_log]))
        if failure is not None:
            raise failure
        return float(g[0])

    def scan(offsets: np.ndarray) -> tuple[list[tuple[float, float]], bool]:
        pts = k + offsets
        vals, failure = gaps(pts)
        found = [
            (pts[i], pts[i + 1])
            for i in range(len(vals) - 1)
            if vals[i] == 0.0 or vals[i] * vals[i + 1] < 0.0
        ]
        return found, failure is not None

    # log-offset grid from K*(1+1e-6), upper end expanded geometrically to e^20
    brackets, wall = scan(np.geomspace(math.log1p(1e-6), 5.0, _BOUNDARY_SCAN))
    if not brackets and not wall:
        for hi in (10.0, 20.0):
            brackets, wall = scan(np.geomspace(hi / 2.0, hi, 12))
            if brackets or wall:
                break
    if not brackets:
        # boundaries pinned against the strike (large theta) sit below the
        # nominal lower end; shrink it before giving up
        brackets, _ = scan(np.geomspace(1e-12, math.log1p(1e-6), 25))
    if not brackets:
        raise NoBoundaryError(
            f"no smooth-fit sign change on (K, K*e^20) at theta={theta} "
            + ("(scan truncated by ill conditioning) " if wall else "")
            + "(degenerate early-exercise region)"
        )
    if len(brackets) > 1:
        spot_br = [(math.exp(a), math.exp(b)) for a, b in brackets]
        raise AmbiguousBoundaryError(
            f"{len(brackets)} smooth-fit sign changes found: {spot_br}", spot_br
        )
    b_log = float(brentq(gap, *brackets[0], xtol=1e-13, rtol=8.9e-16, maxiter=200))

    # one matrix serves the total and both premium-split right-hand sides
    b = np.array([b_log])
    Q, q, q0, qJ, cols = _assemble_american(euro, b)
    (w, w0, wJ), resid, cond = _solve_all(Q, [q, q0, qJ], "american system")
    g, g_scale = _smooth_fit_gap(euro, b, w, cols)
    w, w0, wJ = w[0], w0[0], wJ[0]
    cD, cF, cFm = cols
    return MrAmericanSolution(
        european=euro,
        boundary=math.exp(b_log),
        log_boundary=b_log,
        d_plus=w[cD], f_plus=w[cF], f_minus=w[cFm],
        d0_plus=w0[cD], f0_plus=w0[cF], f0_minus=w0[cFm],
        dj_plus=wJ[cD], fj_plus=wJ[cF], fj_minus=wJ[cFm],
        smooth_fit_residual=float(abs(g[0]) / g_scale[0]),
        residual_inf=float(resid[0]),
        cond_estimate=float(cond[0]),
    )


def _eval_premium_piece(
    sol: MrAmericanSolution,
    d_plus: np.ndarray,
    f_plus: np.ndarray,
    f_minus: np.ndarray,
    x: float,
) -> float:
    euro = sol.european
    lx = math.log(x)
    if euro.log_barrier is not None and x < euro.barrier_eff:
        return float(np.sum(d_plus * np.exp(euro.roots_low.betas * (lx - euro.log_barrier))))
    # premium corridor terms: beta family anchored at the boundary, gamma
    # family at the barrier (each where it is largest)
    out = float(np.sum(f_plus * np.exp(euro.roots_mid.betas * (lx - sol.log_boundary))))
    if f_minus.size:
        out += float(np.sum(f_minus * np.exp(euro.roots_mid.gammas * (lx - euro.log_barrier))))
    return out


def eval_eep_mr(sol: MrAmericanSolution, x: float) -> float:
    """Randomized early-exercise premium at spot x."""
    x = float(x)
    if x < 0.0:
        raise ValueError("spot must be non-negative")
    if x == 0.0:
        return 0.0
    if x >= sol.boundary:
        return x - sol.european.spec.strike - eval_european_mr(sol.european, x)
    return _eval_premium_piece(sol, sol.d_plus, sol.f_plus, sol.f_minus, x)


def eval_eep_split_mr(sol: MrAmericanSolution, x: float) -> tuple[float, float, float]:
    """(total, diffusion, jump) premium at spot x.

    At the boundary the diffusion part carries the full exercise gap and the
    jump part is zero; strictly above it the roles swap.  The total is
    evaluated from the unsplit coefficients, so total == diffusion + jump is
    a solver property, not an identity of this function.
    """
    x = float(x)
    if x < 0.0:
        raise ValueError("spot must be non-negative")
    total = eval_eep_mr(sol, x)
    if x == 0.0:
        return 0.0, 0.0, 0.0
    gap_at = lambda s: s - sol.european.spec.strike - eval_european_mr(sol.european, s)
    if abs(x - sol.boundary) <= 1e-12 * sol.boundary:
        return total, gap_at(x), 0.0
    if x > sol.boundary:
        return total, 0.0, gap_at(x)
    diff = _eval_premium_piece(sol, sol.d0_plus, sol.f0_plus, sol.f0_minus, x)
    jump = _eval_premium_piece(sol, sol.dj_plus, sol.fj_plus, sol.fj_minus, x)
    return total, diff, jump


def eval_american_mr(sol: MrAmericanSolution, x: float) -> float:
    """Randomized American price: European part plus premium."""
    return eval_european_mr(sol.european, x) + eval_eep_mr(sol, x)


def seasoned_price(raw_price: float, spec: DownOutStepSpec) -> float:
    """Scale a freshly-initiated price by the already-accrued knock-out
    factor exp(knock_rate * seasoning)."""
    return math.exp(spec.knock_rate * spec.seasoning) * raw_price


def _branch_points(sol) -> tuple[list[float], float | None]:
    pts: list[float] = []
    if isinstance(sol, MrAmericanSolution):
        euro = sol.european
        if euro.log_barrier is not None:
            pts.append(euro.barrier_eff)
        pts.append(euro.spec.strike)
        pts.append(sol.boundary)
        return pts, sol.boundary
    if isinstance(sol, MrEuropeanSolution):
        if sol.log_barrier is not None:
            pts.append(sol.barrier_eff)
        pts.append(sol.spec.strike)
        return pts, None
    return pts, None


def oide_residual(
    model: HejdModel,
    spec: DownOutStepSpec,
    theta: float,
    sol,
    x_grid: Sequence[float],
    cfg: GeneratorConfig | None = None,
) -> float:
    """Max normalized residual of the randomized pricing equation on a grid.

    The solution is treated as a black box evaluator: derivatives come from
    central differences and the jump integral from adaptive quadrature, so a
    small residual confirms the assembled coefficients independently.  For American
    solutions the equation only holds on the continuation region, so the grid
    must stay below the boundary.  Grid points must keep a margin of at least
    1e-4 * strike from every branch point.  The residual is normalized by
    theta * strike.
    """
    theta = float(theta)
    K = spec.strike
    pts, boundary = _branch_points(sol)
    if callable(sol) and not isinstance(sol, (MrEuropeanSolution, MrAmericanSolution)):
        value: Callable[[float], float] = sol
        pts = [spec.barrier, K] if spec.barrier > 0 else [K]
        barrier_for_rate = spec.barrier
    elif isinstance(sol, MrAmericanSolution):
        value = lambda s: eval_american_mr(sol, s)
        barrier_for_rate = sol.european.barrier_eff
    else:
        value = lambda s: eval_european_mr(sol, s)
        barrier_for_rate = sol.barrier_eff

    margin = 1e-4 * K
    for x in x_grid:
        if min(abs(x - p) for p in pts) < margin:
            raise ValueError(f"grid point {x} closer than {margin} to a branch point")
        if boundary is not None and x >= boundary:
            raise ValueError("American residual grid must stay below the boundary")
        if x <= 0.0:
            raise ValueError("grid points must be positive")

    base_cfg = cfg or GeneratorConfig()
    log_breaks = tuple(math.log(p) for p in pts if p > 0.0)
    worst = 0.0
    g = lambda l: value(math.exp(l))
    for x in x_grid:
        lx = math.log(x)
        log_margin = min(abs(lx - b) for b in log_breaks)
        step = min(base_cfg.fd_step, 0.25 * log_margin)
        cfg_x = GeneratorConfig(
            fd_step=step,
            rel_tol=base_cfg.rel_tol,
            abs_tol=base_cfg.abs_tol,
            density_floor=base_cfg.density_floor,
            breakpoints=log_breaks,
            growth_pos=1.0,
            growth_neg=0.0,
        )
        gen = generator_apply(model, g, lx, cfg_x)
        rate = model.r + theta - (spec.knock_rate if x < barrier_for_rate else 0.0)
        resid = theta * max(x - K, 0.0) + gen - rate * value(x)
        worst = max(worst, abs(resid))
    return worst / (theta * K)
