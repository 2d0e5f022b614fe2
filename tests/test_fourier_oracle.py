"""The randomized European price at knock rate 0 against Lewis's Fourier
formula (``oracles.randomized_call``), per abscissa and after inversion.

A step call with knock rate 0 is a vanilla call whatever its barrier, so a
finite barrier also checks that the barrier's rows of the engine's system
cancel.  Each comparison allows the oracle's own bound plus
``engine_error_bound``; no tolerance is chosen by hand.
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from hejdstep import (
    DownOutStepSpec,
    HejdModel,
    eval_european_mr,
    price_time_domain,
    pricing,
    solve_european_mr,
)
from conftest import HEAVY, random_model, stehfest_weights
from oracles import randomized_call

EPS = sys.float_info.epsilon
K = 100.0

_rng = np.random.default_rng(1729)
MARKETS = [pytest.param(random_model(_rng), id=f"random-{i}") for i in range(3)] + [
    pytest.param(HejdModel(r=0.05, delta=0.07, sigma=s, lam=0.0), id=f"lambda-0-sigma-{s:g}")
    for s in (0.005, 0.02, 0.2)
]
THETAS = (0.05, 0.69, 9.7)
SPOTS = (80.0, 100.0, 130.0)


def _branch(sol, x: float):
    """(coefficient slice, roots, log-anchor) of each family of terms that
    eval_european_mr sums at spot x > 0, and the magnitude of the linear
    part it adds above the strike."""
    cD, cF, cFm = sol.cols
    barrier = sol.log_barrier is not None
    if barrier and x < sol.barrier_eff:
        return [(cD, sol.roots_low.betas, sol.log_barrier)], 0.0
    if x <= sol.spec.strike:
        corridor = [(cF, sol.roots_mid.betas, sol.log_strike)]
        if barrier:
            corridor.append((cFm, sol.roots_mid.gammas, sol.log_barrier))
        return corridor, 0.0
    tail = slice(cFm.stop, sol.coef.size)
    return [(tail, sol.roots_mid.gammas, sol.log_strike)], sol.slope_inf * x + sol.offset_inf


def engine_error_bound(sol, x: float) -> float:
    """What float arithmetic may add to eval_european_mr(sol, x).

    The solve: reassembled as the solve built it, the system is Q v = q,
    solved as Qs z = b after equilibration (z = v * col).  eta is the
    normwise backward error of z that the solve's gate measures
    (pricing._check_residual; the solve raises above 1e-9), plus
    (size + 2) eps for the rounding of that residual and of the
    equilibration.  The gate's cap itself would bound nothing once
    Gaver-Stehfest multiplies it by sum |zeta_k| = 6.6e7.  With
    kappa = cond_inf(Qs) and rho = 2 eta kappa / (1 - eta kappa),
    |dz| <= rho / (1 - rho) max|z| (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, Thm 7.2), and the price, sum_i z_i
    basis_i(x) / col_i plus a known linear part, moves by at most
    sum_i basis_i(x) / col_i times that.

    The evaluation: a term c exp(root (log x - anchor)) picks up
    eps |root| (|log x| + |anchor|) from the rounded logarithms and a few
    eps per product and sum; the linear part two roundings.
    """
    Q, q, _, _, _ = pricing._assemble(replace(sol, coef=None, cols=None), np.array([sol.log_strike]))
    Qs, row, col = pricing._equilibrate(Q)
    (backward,), _ = pricing._check_residual(Q, sol.coef[None], q, row, col, Qs)
    size = sol.coef.size
    eta = backward + (size + 2) * EPS
    kappa = np.linalg.cond(Qs[0], np.inf)
    rho = 2.0 * eta * kappa / (1.0 - eta * kappa)
    dz = rho / (1.0 - rho) * np.max(np.abs(sol.coef * col[0]))
    lx = math.log(x)
    families, linear = _branch(sol, x)
    bound = 2.0 * EPS * linear
    for cols, roots, anchor in families:
        basis = np.exp(roots * (lx - anchor))
        bound += dz * np.sum(basis / col[0][cols])
        terms = np.abs(sol.coef[cols] * basis)
        bound += EPS * np.sum(terms * (np.abs(roots) * (abs(lx) + abs(anchor)) + size))
    return float(bound)


@pytest.mark.parametrize("model", MARKETS)
def test_randomized_price_matches_fourier_oracle(model):
    for theta in THETAS:
        sols = [solve_european_mr(model, DownOutStepSpec(K, L, 0.0), theta) for L in (0.0, 95.0)]
        for x in SPOTS:
            want, oracle_err = randomized_call(model, K, theta, x)
            for sol in sols:
                got = eval_european_mr(sol, x)
                bound = oracle_err + engine_error_bound(sol, x)
                assert abs(got - want) <= bound, (theta, x, sol.spec.barrier, got, want, bound)


@pytest.mark.parametrize("t", (0.25, 1.0))
def test_time_domain_matches_exact_order7_sum_of_oracle(t):
    """Criterion 7's method on a real price: price_time_domain must equal
    the order-7 Gaver-Stehfest sum of the oracle's transform, summed
    exactly, to within each abscissa's bound times |zeta_k| plus what float
    summation may add (4 eps sum_k |zeta_k F(theta_k)|)."""
    spec = DownOutStepSpec(K, 95.0, 0.0)
    step = math.log(2.0) / t
    for x in (90.0, 100.0, 110.0):
        exact, bound, magnitude = Fraction(0), 0.0, 0.0
        for k, zeta in enumerate(stehfest_weights(7), start=1):
            theta = k * step
            value, oracle_err = randomized_call(HEAVY, K, theta, x)
            exact += zeta * Fraction(value)
            w = abs(float(zeta))
            bound += w * (oracle_err + engine_error_bound(solve_european_mr(HEAVY, spec, theta), x))
            magnitude += w * abs(value)
        got = price_time_domain(HEAVY, spec, t, x, "euro")
        assert abs(got - float(exact)) <= bound + 4.0 * EPS * magnitude, (x, got, float(exact), bound)
