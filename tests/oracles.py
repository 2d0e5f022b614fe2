"""Independent oracles for the maturity-randomized prices (tests only).

- ``oide_residual`` checks a randomized solution against its ordinary
  integro-differential equation: ``generator_apply`` applies the generator
  of the log-price by central differences and adaptive quadrature, so it
  treats the solution as a black box.  ``eep_split_residual`` checks the
  premium's diffusion and jump parts against the same equation.
- ``randomized_call`` prices the randomized vanilla call (a step call with
  knock rate 0) by Lewis's Fourier formula on the resolvent of the
  log-price, from ``levy_exponent`` alone: no roots, no linear system.

Neither shares code with the engine's solver.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Sequence

import numpy as np
from scipy import integrate

from hejdstep import (
    DownOutStepSpec,
    HejdModel,
    MrAmericanSolution,
    MrEuropeanSolution,
    eval_american_mr,
    eval_eep_split_mr,
    eval_european_mr,
)

# generator_apply's finite-difference step (log-price), quadrature
# tolerances, and the jump-component density below which it truncates a tail
_FD_STEP = 1e-4
_QUAD_REL_TOL = 1e-10
_QUAD_ABS_TOL = 1e-12
_DENSITY_FLOOR = 1e-16


class QuadratureError(Exception):
    """Adaptive quadrature failed to reach the requested tolerance."""


def levy_exponent(model: HejdModel, theta: complex) -> complex:
    """Characteristic (Levy) exponent Psi(theta) = -log E[e^{i theta X_1}];
    satisfies Psi(-i theta) = -Phi(theta) on the strip of definition."""
    theta = complex(theta)
    value = -1j * model.drift * theta + 0.5 * model.sigma**2 * theta * theta
    if model.lam > 0.0:
        p, xi = np.asarray(model.up_weights), np.asarray(model.up_rates)
        q, eta = np.asarray(model.down_weights), np.asarray(model.down_rates)
        value -= model.lam * (
            complex(np.sum(p * xi / (xi - 1j * theta)))
            + complex(np.sum(q * eta / (eta + 1j * theta)))
            - 1.0
        )
    return value


def _quad(
    integrand: Callable[[float], float], lo: float, hi: float, **options
) -> tuple[float, float]:
    """(value, error estimate) of scipy's quad; any quad warning raises
    QuadratureError instead."""
    result = integrate.quad(integrand, lo, hi, full_output=1, **options)
    if len(result) > 3:  # warning message present
        raise QuadratureError(f"integral did not converge: {result[3]}")
    return result[0], result[1]


def _quad_component(
    integrand: Callable[[float], float],
    lo: float,
    hi: float,
    points: list[float],
) -> float:
    value, abserr = _quad(
        integrand, lo, hi,
        points=points or None, limit=200, epsabs=_QUAD_ABS_TOL, epsrel=_QUAD_REL_TOL,
    )
    if abserr > 100.0 * max(_QUAD_ABS_TOL, _QUAD_REL_TOL * abs(value)):
        raise QuadratureError(
            f"jump integral error estimate {abserr:.3e} above tolerance for value {value:.6e}"
        )
    return value


def generator_apply(
    model: HejdModel,
    V: Callable[[float], float],
    x: float,
    *,
    fd_step: float = _FD_STEP,
    breakpoints: Sequence[float] = (),
    growth_pos: float = 1.0,
    growth_neg: float = 0.0,
) -> float:
    """Apply the infinitesimal generator of the log-price process to V at x.

    Returns sigma^2/2 V'' + drift V' + lam * Int (V(x+y) - V(x)) f(y) dy with
    derivatives by five-point central differences of step ``fd_step`` and
    the jump integral by adaptive quadrature, one mixture component at a
    time, split at ``breakpoints`` (known kinks of V, in log-price).
    ``growth_pos``/``growth_neg`` bound the growth of |V|: |V(x+y)| <=
    C e^{growth_pos*y} as y -> +inf and |V(x-u)| <= C e^{growth_neg*u} as
    u -> +inf.  Each component is truncated where its density, adjusted for
    that growth, falls below 1e-16.
    """
    x = float(x)
    h = fd_step
    v0 = V(x)
    vp1, vm1, vp2, vm2 = V(x + h), V(x - h), V(x + 2 * h), V(x - 2 * h)
    d1 = (-vp2 + 8.0 * vp1 - 8.0 * vm1 + vm2) / (12.0 * h)
    d2 = (-vp2 + 16.0 * vp1 - 30.0 * v0 + 16.0 * vm1 - vm2) / (12.0 * h * h)
    out = 0.5 * model.sigma**2 * d2 + model.drift * d1

    if model.lam == 0.0:
        return out

    log_floor = -math.log(_DENSITY_FLOOR)
    jump = 0.0
    for p_i, xi_i in zip(model.up_weights, model.up_rates):
        decay = xi_i - growth_pos
        if decay <= 0.0:
            raise QuadratureError(
                f"up-jump tail not integrable: rate {xi_i} vs growth bound {growth_pos}"
            )
        y_max = log_floor / min(xi_i, decay)
        pts = sorted(b - x for b in breakpoints if 0.0 < b - x < y_max)
        integrand = lambda y, _xi=xi_i: (V(x + y) - v0) * _xi * math.exp(-_xi * y)
        val = _quad_component(integrand, 0.0, y_max, pts)
        val -= v0 * math.exp(-xi_i * y_max)  # exact tail of the -V(x) part
        jump += p_i * val
    for q_j, eta_j in zip(model.down_weights, model.down_rates):
        decay = eta_j - growth_neg
        if decay <= 0.0:
            raise QuadratureError(
                f"down-jump tail not integrable: rate {eta_j} vs growth bound {growth_neg}"
            )
        y_min = -log_floor / min(eta_j, decay)
        pts = sorted(b - x for b in breakpoints if y_min < b - x < 0.0)
        integrand = lambda y, _eta=eta_j: (V(x + y) - v0) * _eta * math.exp(_eta * y)
        val = _quad_component(integrand, y_min, 0.0, pts)
        val -= v0 * math.exp(eta_j * y_min)
        jump += q_j * val
    return out + model.lam * jump


def oide_residual(
    model: HejdModel,
    spec: DownOutStepSpec,
    theta: float,
    sol,
    x_grid: Sequence[float],
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
    # branch points: the barrier, the strike and an American boundary
    boundary = None
    if isinstance(sol, MrAmericanSolution):
        value = lambda s: eval_american_mr(sol, s)
        barrier, boundary = sol.european.barrier_eff, sol.boundary
    elif isinstance(sol, MrEuropeanSolution):
        value = lambda s: eval_european_mr(sol, s)
        barrier = sol.barrier_eff
    else:
        value, barrier = sol, spec.barrier
    pts = ([barrier] if barrier > 0.0 else []) + [K] + ([boundary] if boundary is not None else [])

    margin = 1e-4 * K
    for x in x_grid:
        if min(abs(x - p) for p in pts) < margin:
            raise ValueError(f"grid point {x} closer than {margin} to a branch point")
        if boundary is not None and x >= boundary:
            raise ValueError("American residual grid must stay below the boundary")
        if x <= 0.0:
            raise ValueError("grid points must be positive")

    log_breaks = tuple(math.log(p) for p in pts if p > 0.0)
    worst = 0.0
    g = lambda l: value(math.exp(l))
    for x in x_grid:
        lx = math.log(x)
        log_margin = min(abs(lx - b) for b in log_breaks)
        gen = generator_apply(
            model, g, lx, fd_step=min(_FD_STEP, 0.25 * log_margin), breakpoints=log_breaks,
        )
        rate = model.r + theta - (spec.knock_rate if x < barrier else 0.0)
        resid = theta * max(x - K, 0.0) + gen - rate * value(x)
        worst = max(worst, abs(resid))
    return worst / (theta * K)


def eep_split_residual(
    model: HejdModel,
    spec: DownOutStepSpec,
    theta: float,
    sol: MrAmericanSolution,
    x_grid: Sequence[float],
) -> tuple[float, float]:
    """Max normalized residuals (diffusion, jump) of the premium's two parts
    against the homogeneous randomized equation on a grid below the boundary.

    Below the boundary b each part is eval_eep_split_mr's.  Its exterior
    comes from the split's definition, with the exercise gap
    g(x) = x - K - euro(x): the diffusion part is g(b) at b and 0 above it,
    the jump part 0 at b and g(x) above it.  The residual
    gen V - (r + theta - knock_rate 1{x < L}) V is normalized by
    theta * strike, and grid points keep a margin of 1e-4 * strike from L, K
    and b.
    """
    theta, K, b = float(theta), spec.strike, sol.boundary
    barrier = sol.european.barrier_eff
    gap = lambda s: s - K - eval_european_mr(sol.european, s)
    parts = (
        lambda s: eval_eep_split_mr(sol, s)[1] if s < b else (gap(s) if s == b else 0.0),
        lambda s: eval_eep_split_mr(sol, s)[2] if s < b else (0.0 if s == b else gap(s)),
    )
    pts = ([barrier] if barrier > 0.0 else []) + [K, b]
    log_breaks = tuple(math.log(p) for p in pts)
    worst = [0.0, 0.0]
    for x in x_grid:
        if not 0.0 < x < b or min(abs(x - p) for p in pts) < 1e-4 * K:
            raise ValueError(f"grid point {x} outside (0, b) or too close to a branch point")
        lx = math.log(x)
        fd_step = min(_FD_STEP, 0.25 * min(abs(lx - p) for p in log_breaks))
        rate = model.r + theta - (spec.knock_rate if x < barrier else 0.0)
        for i, V in enumerate(parts):
            gen = generator_apply(model, lambda l: V(math.exp(l)), lx, fd_step=fd_step, breakpoints=log_breaks)
            worst[i] = max(worst[i], abs(gen - rate * V(x)))
    return worst[0] / (theta * K), worst[1] / (theta * K)


def randomized_call(model: HejdModel, strike: float, theta: float, x: float) -> tuple[float, float]:
    """Maturity-randomized vanilla call at spot x > 0 and its error bound.

    With maturity tau ~ Exp(theta), the call's Laplace-Carson transform is
    theta/a E[(x e^{X_T} - K)^+] with a = theta + r and T ~ Exp(a), and
    E e^{iu X_T} = a/(a + Psi(u)).  Lewis's formula ("A simple option
    formula for general jump-diffusion and other exponential Levy
    processes", 2001) on the line Im u = -1/2 then gives, with
    k = log(x/K),

        theta x/(theta + delta)
          - theta/a sqrt(x K)/pi Int_0^inf Re[e^{iuk} g(u)] du/(u^2 + 1/4),

    g(u) = a/(a + Psi(u - i/2)).  The integral is split into its cosine and
    sine parts, each integrated with quad's Fourier weight.  The bound is
    quad's two error estimates times the prefactor, plus 4 eps of the two
    terms' magnitudes for the final products and difference.
    """
    a = theta + model.r
    k = math.log(x / strike)
    g = lambda u: a / (a + levy_exponent(model, u - 0.5j)) / (u * u + 0.25)
    fourier = dict(lo=0.0, hi=math.inf, wvar=k, epsabs=_QUAD_ABS_TOL)
    cos_part, cos_err = _quad(lambda u: g(u).real, weight="cos", **fourier)
    sin_part, sin_err = _quad(lambda u: g(u).imag, weight="sin", **fourier)
    scale = theta / a * math.sqrt(x * strike) / math.pi
    first, second = theta * x / (theta + model.delta), scale * (cos_part - sin_part)
    rounding = 4.0 * sys.float_info.epsilon * (first + abs(second))
    return first - second, scale * (cos_err + sin_err) + rounding
