"""Hyper-exponential jump-diffusion (HEJD) market model and contracts.

The risky asset is S_t = S_0 exp(X_t) where X is a Brownian motion with drift
plus compound-Poisson jumps whose size density is a two-sided mixture of
exponentials:

    f(y) = sum_i p_i xi_i exp(-xi_i y) 1{y>=0} + sum_j q_j eta_j exp(eta_j y) 1{y<0}

The drift is never a free parameter: it is pinned by the martingale condition
Phi_X(1) = r - delta on the Laplace exponent, so the discounted cum-dividend
asset is a martingale by construction.

The module holds what pricing needs: the Laplace exponent, on which the
roots are found, and the dual market of the put-call duality.  The
characteristic exponent and the generator of the log-price serve only to
check prices, and live with the test oracles in tests/oracles.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import PoleError

__all__ = [
    "HejdModel",
    "DownOutStepSpec",
    "laplace_exponent",
    "dual_model",
]

_WEIGHT_SUM_TOL = 1e-12
_POLE_REL_TOL = 1e-14


def _as_float_tuple(values: Sequence[float]) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


@dataclass(frozen=True)
class HejdModel:
    """Immutable HEJD market parameters.

    Parameters are annual: risk-free rate ``r``, dividend yield ``delta``,
    diffusion volatility ``sigma`` (> 0), jump intensity ``lam`` (>= 0).
    ``up_weights``/``up_rates`` and ``down_weights``/``down_rates`` describe
    the exponential mixture; weights must sum to one across both sides, rates
    must be strictly increasing with ``up_rates[0] > 1`` (integrability of
    e^X) and ``down_rates[0] > 0``.  ``lam == 0`` requires empty mixtures and
    degenerates to Black-Scholes.
    """

    r: float
    delta: float
    sigma: float
    lam: float
    up_weights: tuple[float, ...] = ()
    up_rates: tuple[float, ...] = ()
    down_weights: tuple[float, ...] = ()
    down_rates: tuple[float, ...] = ()
    # (p_i * xi_i, xi_i) and (q_j * eta_j, eta_j) pairs, precomputed once for
    # the plain-float Laplace-exponent kernel (hot path in root finding)
    _up: tuple[tuple[float, float], ...] = field(init=False, repr=False, compare=False)
    _down: tuple[tuple[float, float], ...] = field(init=False, repr=False, compare=False)
    # mean percentage jump size E[e^J - 1] (0 for the no-jump model)
    zeta: float = field(init=False, repr=False, compare=False)
    # martingale-consistent drift of the log-price
    drift: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "up_weights", _as_float_tuple(self.up_weights))
        object.__setattr__(self, "up_rates", _as_float_tuple(self.up_rates))
        object.__setattr__(self, "down_weights", _as_float_tuple(self.down_weights))
        object.__setattr__(self, "down_rates", _as_float_tuple(self.down_rates))
        for name in ("r", "delta", "sigma", "lam"):
            object.__setattr__(self, name, float(getattr(self, name)))

        if not all(map(math.isfinite, (self.r, self.delta, self.sigma, self.lam))):
            raise ValueError("model scalars must be finite")
        if not all(map(math.isfinite, self.up_weights + self.up_rates + self.down_weights + self.down_rates)):
            raise ValueError("mixture weights and rates must be finite")
        if self.r < 0.0 or self.delta < 0.0:
            raise ValueError("r and delta must be non-negative")
        if self.sigma <= 0.0:
            raise ValueError("sigma must be strictly positive")
        if self.sigma**2 == 0.0:
            raise ValueError(f"sigma**2 underflows to zero at sigma = {self.sigma!r}")
        if self.lam < 0.0:
            raise ValueError("lam must be non-negative")
        if len(self.up_weights) != len(self.up_rates):
            raise ValueError("up_weights and up_rates must have equal length")
        if len(self.down_weights) != len(self.down_rates):
            raise ValueError("down_weights and down_rates must have equal length")

        if self.lam == 0.0:
            if self.up_weights or self.down_weights:
                raise ValueError("lam == 0 requires empty jump mixtures")
        else:
            if not (self.up_weights or self.down_weights):
                raise ValueError("lam > 0 requires a jump mixture")
            if any(w <= 0.0 for w in self.up_weights + self.down_weights):
                raise ValueError("mixture weights must be strictly positive")
            total = math.fsum(self.up_weights + self.down_weights)
            if abs(total - 1.0) > _WEIGHT_SUM_TOL:
                raise ValueError(f"mixture weights must sum to 1 (got {total!r})")
            if any(b <= a for a, b in zip(self.up_rates, self.up_rates[1:])):
                raise ValueError("up_rates must be strictly increasing")
            if any(b <= a for a, b in zip(self.down_rates, self.down_rates[1:])):
                raise ValueError("down_rates must be strictly increasing")
            if self.up_rates and self.up_rates[0] <= 1.0:
                raise ValueError("up_rates must exceed 1 (integrability of e^X)")
            if self.down_rates and self.down_rates[0] <= 0.0:
                raise ValueError("down_rates must be positive")

        object.__setattr__(self, "_up", tuple((p * x, x) for p, x in zip(self.up_weights, self.up_rates)))
        object.__setattr__(self, "_down", tuple((q * e, e) for q, e in zip(self.down_weights, self.down_rates)))
        zeta = 0.0
        if self.m + self.n:
            p, xi = np.asarray(self.up_weights), np.asarray(self.up_rates)
            q, eta = np.asarray(self.down_weights), np.asarray(self.down_rates)
            zeta = float(np.sum(p * xi / (xi - 1.0)) + np.sum(q * eta / (eta + 1.0)) - 1.0)
        object.__setattr__(self, "zeta", zeta)
        object.__setattr__(self, "drift", self.r - self.delta - self.lam * zeta - 0.5 * self.sigma**2)

    @property
    def m(self) -> int:
        return len(self.up_rates)

    @property
    def n(self) -> int:
        return len(self.down_rates)

    @property
    def poles(self) -> tuple[float, ...]:
        """Poles of the Laplace exponent: the up rates and negated down rates."""
        return self.up_rates + tuple(-e for e in self.down_rates)


@dataclass(frozen=True)
class DownOutStepSpec:
    """Geometric down-and-out step call contract.

    Payoff at exercise time t: exp(knock_rate * (seasoning + occupation time
    below ``barrier``)) * (S_t - strike)^+.  ``knock_rate <= 0`` makes the
    barrier a soft knock-out; ``seasoning`` is occupation time already accrued
    before the valuation date.
    """

    strike: float
    barrier: float
    knock_rate: float = 0.0
    seasoning: float = 0.0

    def __post_init__(self) -> None:
        for name in ("strike", "barrier", "knock_rate", "seasoning"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not all(
            map(math.isfinite, (self.strike, self.barrier, self.knock_rate, self.seasoning))
        ):
            raise ValueError("contract parameters must be finite")
        if not self.strike > 0.0:
            raise ValueError(f"strike must be strictly positive, got {self.strike!r}")
        if not 0.0 <= self.barrier <= self.strike:
            raise ValueError("need 0 <= barrier <= strike < inf")
        if self.knock_rate > 0.0:
            raise ValueError("knock_rate must be <= 0 (knock-out contract)")
        if self.seasoning < 0.0:
            raise ValueError("seasoning must be >= 0")


def _check_pole(model: HejdModel, theta: float) -> None:
    for pole in model.poles:
        if abs(theta - pole) <= _POLE_REL_TOL * max(1.0, abs(pole)):
            raise PoleError(f"theta={theta!r} is within tolerance of pole {pole!r}")


def _phi_raw(model: HejdModel, theta: float) -> float:
    """Phi without the pole guard; the root solver works legitimately inside
    the public exclusion zone (the subtraction rate - theta stays exact).

    Plain float arithmetic: each mixture sum runs left to right from 0.0,
    which is how numpy sums arrays of fewer than eight terms, so the values
    match the array expressions p*xi/(xi - theta) bit for bit at that size.
    """
    value = model.drift * theta + 0.5 * model.sigma**2 * theta * theta
    if model.lam > 0.0:
        up = 0.0
        for pxi, xi in model._up:
            up += pxi / (xi - theta)
        down = 0.0
        for qeta, eta in model._down:
            down += qeta / (eta + theta)
        value += model.lam * (up + down - 1.0)
    return value


def _phi_prime_raw(model: HejdModel, theta: float) -> float:
    value = model.drift + model.sigma**2 * theta
    if model.lam > 0.0:
        up = 0.0
        for pxi, xi in model._up:
            up += pxi / ((xi - theta) * (xi - theta))
        down = 0.0
        for qeta, eta in model._down:
            down += qeta / ((eta + theta) * (eta + theta))
        value += model.lam * (up - down)
    return value


def laplace_exponent(model: HejdModel, theta: float) -> float:
    """Laplace exponent Phi(theta) = log E[e^{theta X_1}], extended to all
    real theta away from the mixture-rate poles."""
    theta = float(theta)
    _check_pole(model, theta)
    return _phi_raw(model, theta)


def dual_model(model: HejdModel) -> HejdModel:
    """Dual market of the put-call duality measure change.

    r and delta exchange roles, the diffusion volatility is unchanged, and
    the jump measure maps through Pi_Y(dy) = e^{-y} Pi_X(-dy): down
    components (rate eta) become up components with rate eta + 1, up
    components (rate xi) become down components with rate xi - 1, and the
    intensity rescales by 1 + zeta.  The dual of the dual recovers the
    original model; the map is well defined because up rates exceed 1, so
    the dual down rates xi - 1 stay positive.
    """
    scale = 1.0 + model.zeta
    up_w = [q * e / ((e + 1.0) * scale) for q, e in zip(model.down_weights, model.down_rates)]
    up_r = [e + 1.0 for e in model.down_rates]
    down_w = [p * x / ((x - 1.0) * scale) for p, x in zip(model.up_weights, model.up_rates)]
    down_r = [x - 1.0 for x in model.up_rates]
    return HejdModel(
        r=model.delta,
        delta=model.r,
        sigma=model.sigma,
        lam=model.lam * scale,
        up_weights=up_w,
        up_rates=up_r,
        down_weights=down_w,
        down_rates=down_r,
    )
