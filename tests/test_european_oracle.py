"""Per-abscissa oracle for the randomized European price.

``european_reference`` builds the European system in its original form (the
corridor's beta terms anchored at the barrier, its gamma terms and the tail
at the strike; both families at the strike when the barrier is 0) in
50-digit decimal arithmetic on the engine's float roots, solves it by
Gaussian elimination and evaluates the price at one spot.  It uses the
standard library only and shares no code with the engine, so it checks the
engine's anchoring, assembly, solve and evaluation at once.
"""

from __future__ import annotations

import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest

from hejdstep import DownOutStepSpec, HejdModel, eval_european_mr, solve_european_mr
from conftest import BS, HEAVY, KOU

EPS = sys.float_info.epsilon

KOU_LOW_VOL = HejdModel(r=0.05, delta=0.07, sigma=0.02, lam=1.0,
                        up_weights=(0.7,), up_rates=(25.0,), down_weights=(0.3,), down_rates=(50.0,))

CASES = [
    pytest.param(KOU, DownOutStepSpec(100.0, 95.0, -26.34), id="kou-step"),
    pytest.param(KOU, DownOutStepSpec(100.0, 95.0, 0.0), id="kou-standard"),
    pytest.param(KOU, DownOutStepSpec(100.0, 95.0, -5.0e7), id="kou-knockout"),
    pytest.param(HEAVY, DownOutStepSpec(100.0, 95.0, -26.34), id="m3n3-step"),
    pytest.param(KOU, DownOutStepSpec(100.0, 0.0, 0.0), id="kou-zero-barrier"),
    pytest.param(HEAVY, DownOutStepSpec(100.0, 0.0, 0.0), id="m3n3-zero-barrier"),
    pytest.param(BS, DownOutStepSpec(100.0, 95.0, -26.34), id="lambda-0"),
    pytest.param(KOU_LOW_VOL, DownOutStepSpec(100.0, 80.0, -26.34), id="sigma-0.02-L80"),
]
THETAS = (0.05, math.log(2.0), 1.3, 9.7, 400.0)


def _solve(Q: list[list], rhs: list) -> list[Decimal]:
    """Gaussian elimination with partial pivoting, in the current context."""
    size = len(rhs)
    A = [list(row) + [b] for row, b in zip(Q, rhs)]
    for col in range(size):
        piv = max(range(col, size), key=lambda i: abs(A[i][col]))
        A[col], A[piv] = A[piv], A[col]
        for i in range(col + 1, size):
            f = A[i][col] / A[col][col]
            A[i] = [a - f * p for a, p in zip(A[i], A[col])]
    out = [Decimal(0)] * size
    for i in reversed(range(size)):
        out[i] = (A[i][size] - sum(A[i][j] * out[j] for j in range(i + 1, size))) / A[i][i]
    return out


def european_reference(sol, x: float) -> tuple[float, list[tuple[float, float, float]]]:
    """Randomized European price at spot x > 0 from the original system of
    sol's contract and abscissa, solved in 50 digits on sol's roots; and the
    (value, root, log-anchor) of each term of the branch that holds x."""
    model, spec = sol.model, sol.spec
    with localcontext() as ctx:
        ctx.prec = 50
        r, d, th, K = (Decimal(v) for v in (model.r, model.delta, sol.theta, spec.strike))
        xi = [Decimal(v) for v in model.up_rates]
        eta = [Decimal(v) for v in model.down_rates]
        bM = [Decimal(v) for v in sol.roots_mid.betas]
        gM = [Decimal(v) for v in sol.roots_mid.gammas]
        nM, nG = len(bM), len(gM)
        k, thK = K.ln(), th * K
        # jump residuals, value and slope of the tail's linear part
        # theta x / (d + theta) - theta K / (r + theta)
        up = [thK / (x_i * (r + th)) - thK / ((x_i - 1) * (d + th)) for x_i in xi]
        dn = [thK / ((e + 1) * (d + th)) - thK / (e * (r + th)) for e in eta]
        value, slope = thK / (d + th) - thK / (r + th), thK / (d + th)
        if spec.barrier == 0.0:
            Q = [[-1 / (x_i - b) for b in bM] + [1 / (x_i - g) for g in gM] for x_i in xi]
            Q += [[1 / (e + b) for b in bM] + [-1 / (e + g) for g in gM] for e in eta]
            Q += [[1] * nM + [-1] * nG, bM + [-g for g in gM]]
            v = _solve(Q, up + dn + [value, slope])
            B, C = v[:nM], v[nM:]
            low, corridor, tail = [], [(B, bM, k)], [(C, gM, k)]
        else:
            E = lambda z: z.exp()
            bL = [Decimal(v) for v in sol.roots_low.betas]
            nL = len(bL)
            ell = Decimal(sol.barrier_eff).ln()
            kl = k - ell
            Q, rhs = [], []
            for x_i, q in zip(xi, up):  # up jumps seen from below L
                Q.append([-1 / (x_i - b) for b in bL]
                         + [(1 - E((b - x_i) * kl)) / (x_i - b) for b in bM]
                         + [(E(-g * kl) - E(-x_i * kl)) / (x_i - g) for g in gM]
                         + [E(-x_i * kl) / (x_i - g) for g in gM])
                rhs.append(E(-x_i * kl) * q)
            for x_i, q in zip(xi, up):  # up jumps seen from [L, K]
                Q.append([0] * nL + [-E(b * kl) / (x_i - b) for b in bM]
                         + [-1 / (x_i - g) for g in gM] + [1 / (x_i - g) for g in gM])
                rhs.append(q)
            for e in eta:  # down jumps seen from [L, K]
                Q.append([1 / (e + b) for b in bL] + [-1 / (e + b) for b in bM]
                         + [-E(-g * kl) / (e + g) for g in gM] + [0] * nG)
                rhs.append(0)
            for e, q in zip(eta, dn):  # down jumps seen from above K
                Q.append([E(-e * kl) / (e + b) for b in bL]
                         + [(E(b * kl) - E(-e * kl)) / (e + b) for b in bM]
                         + [(1 - E(-(e + g) * kl)) / (e + g) for g in gM]
                         + [-1 / (e + g) for g in gM])
                rhs.append(q)
            # value and slope continuity at L and at K
            Q.append([1] * nL + [-1] * nM + [-E(-g * kl) for g in gM] + [0] * nG)
            Q.append([0] * nL + [E(b * kl) for b in bM] + [1] * nG + [-1] * nG)
            Q.append(bL + [-b for b in bM] + [-g * E(-g * kl) for g in gM] + [0] * nG)
            Q.append([0] * nL + [b * E(b * kl) for b in bM] + gM + [-g for g in gM])
            v = _solve(Q, rhs + [0, value, 0, slope])
            A, B, Bm, C = v[:nL], v[nL:nL + nM], v[nL + nM:nL + nM + nG], v[nL + nM + nG:]
            low, corridor, tail = [(A, bL, ell)], [(B, bM, ell), (Bm, gM, k)], [(C, gM, k)]
        if spec.barrier > 0.0 and x < sol.barrier_eff:
            branch, linear = low, []
        elif x <= spec.strike:
            branch, linear = corridor, []
        else:
            branch, linear = tail, [th * Decimal(x) / (d + th), -thK / (r + th)]
        lx = Decimal(x).ln()
        terms = [(c * (root * (lx - anchor)).exp(), root, anchor)
                 for coef, roots, anchor in branch for c, root in zip(coef, roots)]
        terms += [(t, 0, 0) for t in linear]
        price = sum(t for t, _, _ in terms)
        return float(price), [(float(t), float(root), float(anchor)) for t, root, anchor in terms]


def engine_error_bound(sol, x: float, terms: list[tuple[float, float, float]]) -> float:
    """What float arithmetic may add to sol's price at spot x.

    The solve: each column of the engine's equilibrated system has a unit
    entry in a value row whose largest entry is 1, so the column scales are
    1 and the coefficients v are the equilibrated unknowns.  LU with partial
    pivoting leaves a normwise backward error of about size * eps (entries
    and right-hand side rounded too), on a right-hand side of the size of
    the tail's linear part at K.  The coefficients then err by at most
    size * cond * eps * (sum |v| + slope_inf K + offset_inf), and since no
    term exceeds its coefficient on its own branch (every family is
    anchored where it is largest), the price by size times that.

    The evaluation: a term c * exp(root * (log x - anchor)) picks up
    eps * |root| * (|log x| + |anchor|) from the rounded logarithms and a
    few eps per product and sum.
    """
    coef = sol.coef
    size = coef.size
    data = np.abs(coef).sum() + sol.slope_inf * sol.spec.strike + sol.offset_inf
    solve = size**2 * sol.cond_estimate * EPS * data
    lx = abs(math.log(x))
    evaluation = EPS * sum(abs(t) * (abs(root) * (lx + abs(anchor)) + size) for t, root, anchor in terms)
    return solve + evaluation


def _spots(spec: DownOutStepSpec) -> tuple[float, ...]:
    K, L = spec.strike, spec.barrier
    if L == 0.0:
        return (50.0, 90.0, K, 1.12 * K)
    return (0.97 * L, L, 0.5 * (L + K), K, 1.12 * K)


@pytest.mark.parametrize("model, spec", CASES)
@pytest.mark.parametrize("theta", THETAS)
def test_price_matches_decimal_solve_of_original_system(model, spec, theta):
    sol = solve_european_mr(model, spec, (theta,))[0]
    for x in _spots(spec):
        want, terms = european_reference(sol, x)
        got = eval_european_mr(sol, x)
        assert abs(got - want) <= engine_error_bound(sol, x, terms), (x, got, want)
