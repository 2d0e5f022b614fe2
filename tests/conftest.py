"""Shared fixtures: reference markets, contracts, a seeded model factory, and
an exact-arithmetic Gaver-Stehfest reference."""

from __future__ import annotations

import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest

from hejdstep import DownOutStepSpec, HejdModel

REFERENCE = dict(r=0.05, delta=0.07, sigma=0.2, K=100.0, L=95.0, RHO=-26.34, T=1.0)

# reference markets: double-exponential at lambda = 1 (the lambda-ladder grid),
# three exponentials a side at lambda = 10, and pure diffusion (empty mixture)
KOU = HejdModel(r=0.05, delta=0.07, sigma=0.2, lam=1.0,
                up_weights=(0.7,), up_rates=(25.0,), down_weights=(0.3,), down_rates=(50.0,))
HEAVY = HejdModel(r=0.05, delta=0.07, sigma=0.2, lam=10.0,
                  up_weights=(0.2, 0.15, 0.1), up_rates=(10.0, 25.0, 50.0),
                  down_weights=(0.25, 0.2, 0.1), down_rates=(8.0, 20.0, 45.0))
BS = HejdModel(r=0.05, delta=0.07, sigma=0.2, lam=0.0)
# reference contracts: step call, standard call (no knock rate), near knock-out
STEP = DownOutStepSpec(strike=100.0, barrier=95.0, knock_rate=-26.34)
STANDARD = DownOutStepSpec(strike=100.0, barrier=95.0, knock_rate=0.0)
BARRIER = DownOutStepSpec(strike=100.0, barrier=95.0, knock_rate=-5.0e7)


@pytest.fixture(scope="session")
def kou_model() -> HejdModel:
    return KOU


@pytest.fixture(scope="session")
def bs_model() -> HejdModel:
    return BS


@pytest.fixture(scope="session")
def step_spec() -> DownOutStepSpec:
    return STEP


@pytest.fixture(scope="session")
def standard_spec() -> DownOutStepSpec:
    return STANDARD


@pytest.fixture(scope="session")
def barrier_spec() -> DownOutStepSpec:
    return BARRIER


def random_model(rng: np.random.Generator, max_terms: int = 3, min_delta: float = 0.02) -> HejdModel:
    """Valid HEJD model with up to max_terms mixture components per side.

    Rates are kept apart by at least 1.0 so the interlacing brackets stay
    well separated; the smallest up rate stays above 1.5.
    """
    m = int(rng.integers(1, max_terms + 1))
    n = int(rng.integers(1, max_terms + 1))
    xi = np.sort(rng.uniform(1.5, 60.0, size=m))
    while np.any(np.diff(xi) < 1.0):
        xi = np.sort(rng.uniform(1.5, 60.0, size=m))
    eta = np.sort(rng.uniform(0.8, 60.0, size=n))
    while np.any(np.diff(eta) < 1.0):
        eta = np.sort(rng.uniform(0.8, 60.0, size=n))
    raw = rng.uniform(0.2, 1.0, size=m + n)
    weights = raw / raw.sum()
    return HejdModel(
        r=float(rng.uniform(0.0, 0.08)),
        delta=float(rng.uniform(min_delta, 0.10)),
        sigma=float(rng.uniform(0.15, 0.45)),
        lam=float(rng.uniform(0.1, 8.0)),
        up_weights=tuple(weights[:m]),
        up_rates=tuple(xi),
        down_weights=tuple(weights[m:]),
        down_rates=tuple(eta),
    )


def random_spec(rng: np.random.Generator) -> DownOutStepSpec:
    strike = 100.0
    return DownOutStepSpec(
        strike=strike,
        barrier=float(rng.uniform(0.82, 0.97) * strike),
        knock_rate=float(-rng.uniform(0.5, 60.0)),
    )


def stehfest_weights(order: int) -> list[Fraction]:
    """Gaver-Stehfest weights zeta_k = V_k / k, k = 1..2*order, from Stehfest's
    factorial formula (Comm. ACM 13, 1970).

    Written independently of ``hejdstep.inversion``, which uses a product of
    binomials instead, so the two agree only if both are right.
    """
    f = math.factorial
    weights = []
    for k in range(1, 2 * order + 1):
        v = sum(
            Fraction(j**order * f(2 * j), f(order - j) * f(j) * f(j - 1) * f(k - j) * f(2 * j - k))
            for j in range((k + 1) // 2, min(k, order) + 1)
        )
        weights.append((-1) ** (order + k) * v / k)
    return weights


class GsPairReference(NamedTuple):
    """Exact order-N Gaver-Stehfest inversion of theta/(theta+a) at time t."""

    value: float         # sum_k zeta_k F(k ln2 / t) in 50 digits, rounded once
    target: float        # exp(-a t), the true inverse
    method_error: float  # |value - target|: the algorithm's own error at this order
    fidelity: float      # 4 eps sum_k |zeta_k F(theta_k)|: what float evaluation may add


def exponential_pair_reference(a: float, t: float, order: int) -> GsPairReference:
    """Evaluate the order-N Gaver-Stehfest sum for the pair
    theta/(theta+a) <-> exp(-a t) in 50-digit decimal arithmetic.

    ``fidelity`` bounds how far a float evaluation of the same sum may drift
    from ``value``: each term picks up at most a few roundings (weight,
    abscissa, transform, product), each of relative size eps/2, so 4 eps
    times the sum of the absolute terms is a safe bound.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        a_d, t_d = Decimal(a), Decimal(t)
        step = Decimal(2).ln() / t_d
        terms = []
        for k, zeta in enumerate(stehfest_weights(order), start=1):
            theta = k * step
            terms.append(Decimal(zeta.numerator) / Decimal(zeta.denominator) * theta / (theta + a_d))
        value = sum(terms)
        target = (-a_d * t_d).exp()
        return GsPairReference(
            value=float(value),
            target=float(target),
            method_error=float(abs(value - target)),
            fidelity=4.0 * sys.float_info.epsilon * float(sum(abs(x) for x in terms)),
        )
