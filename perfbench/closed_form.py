"""Closed-form Black-Scholes prices used as independent oracles.

Written from the textbook formulas, sharing no code with ``hejdstep``: the
call with a continuous dividend yield, and the Merton/Reiner-Rubinstein
continuously monitored down-and-out call with barrier below the strike.
"""

from __future__ import annotations

import math


def _ncdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def bs_call(x: float, strike: float, r: float, q: float, sigma: float, t: float) -> float:
    """European call on a stock paying dividend yield q."""
    if x <= 0.0:
        return 0.0
    vol = sigma * math.sqrt(t)
    d1 = (math.log(x / strike) + (r - q + 0.5 * sigma * sigma) * t) / vol
    return x * math.exp(-q * t) * _ncdf(d1) - strike * math.exp(-r * t) * _ncdf(d1 - vol)


def down_out_call(
    x: float, strike: float, barrier: float, r: float, q: float, sigma: float, t: float
) -> float:
    """Continuously monitored down-and-out call, barrier <= strike < spot
    allowed; zero at or below the barrier (Reiner and Rubinstein, 1991)."""
    if not barrier <= strike:
        raise ValueError("the formula covers barrier <= strike only")
    if x <= barrier:
        return 0.0
    vol = sigma * math.sqrt(t)
    lam = (r - q + 0.5 * sigma * sigma) / (sigma * sigma)
    y = math.log(barrier * barrier / (x * strike)) / vol + lam * vol
    ratio = barrier / x
    knocked_in = (
        x * math.exp(-q * t) * ratio ** (2.0 * lam) * _ncdf(y)
        - strike * math.exp(-r * t) * ratio ** (2.0 * lam - 2.0) * _ncdf(y - vol)
    )
    return bs_call(x, strike, r, q, sigma, t) - knocked_in
