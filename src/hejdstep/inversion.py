"""Gaver-Stehfest inversion of maturity-randomized quantities.

The randomized European price is the Laplace-Carson transform in maturity of
the calendar-time price, so inverting it on the real axis with the
Gaver-Stehfest weights recovers the time-domain price.  American prices and
early-exercise premiums are not exact transforms, but they carry the same
structure and are inverted with the same weights; the bias of this heuristic
is not corrected (README, "Numerical notes").
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .errors import HejdStepError, OrderError
from .model import DownOutStepSpec, HejdModel
from .pricing import (
    _check_spot,
    eval_american_mr,
    eval_eep_split_mr,
    eval_european_mr,
    solve_american_mr,
    solve_european_mr,
)

__all__ = [
    "gs_weights",
    "gs_invert",
    "price_time_domain",
    "price_summary",
    "QUANTITIES",
    "DEFAULT_GS_ORDER",
]

# Order 7 (14 abscissae) inverts the exponential pair theta/(theta+a) <->
# exp(-a t) to about 1e-6 absolute at a*t <= 1 and to about 5e-5 at a*t = 5;
# see gs_invert for the numbers.
DEFAULT_GS_ORDER = 7
QUANTITIES = ("euro", "amer", "eep", "eep_diffusion", "eep_jump")


@lru_cache(maxsize=None)
def gs_weights(order: int) -> tuple[Fraction, ...]:
    """Gaver-Stehfest weights of the given order (1..10) as exact rationals.
    Their alternating binomial sums cancel massively (at order 10 the weights
    exceed 1e10), so only exact arithmetic can certify that they sum to one."""
    if not isinstance(order, int) or isinstance(order, bool):
        raise OrderError(f"order must be an integer, got {order!r}")
    if not 1 <= order <= 10:
        raise OrderError(f"order must lie in [1, 10], got {order}")
    exact: list[Fraction] = []
    n_fact = math.factorial(order)
    for k in range(1, 2 * order + 1):
        acc = Fraction(0)
        for j in range((k + 1) // 2, min(k, order) + 1):
            acc += (
                Fraction(j ** (order + 1), n_fact)
                * math.comb(order, j)
                * math.comb(2 * j, j)
                * math.comb(j, k - j)
            )
        exact.append(Fraction((-1) ** (order + k), k) * acc)
    return tuple(exact)


@lru_cache(maxsize=None)
def _float_weights(order: int) -> tuple[float, ...]:
    return tuple(float(z) for z in gs_weights(order))


def _check_maturity(t: float) -> float:
    """t as a float, or ValueError unless it is finite and strictly positive."""
    t = float(t)
    if not 0.0 < t < math.inf:
        raise ValueError(f"t must be finite and strictly positive, got {t!r}")
    return t


@lru_cache(maxsize=64)
def _abscissae(t: float, order: int) -> tuple[float, ...]:
    """The 2*order abscissae k log2 / t, k = 1..2*order, rounded as gs_invert uses them."""
    step = math.log(2.0) / t
    return tuple([k * step for k in range(1, 2 * order + 1)])


def gs_invert(F: Callable[[float], float | tuple], t: float, order: int = DEFAULT_GS_ORDER) -> float | tuple:
    """Invert the transform F at time t: sum_k zeta_k F(k log2 / t).

    The zeta_k are the float roundings of gs_weights(order).  Evaluations run
    in ascending k and the weighted sum is accumulated with fsum, so the
    result is deterministic regardless of how F parallelizes internally; a
    tuple-valued F is inverted component by component.  Errors raised by F
    are re-raised annotated with the offending abscissa.

    The truncation error is the method's own, not a rounding effect.  At the
    default order 7 the exact sum for theta/(theta+a) differs from exp(-a t)
    by about 1e-6 at a*t <= 1 (9.5e-7 at a*t = 1), and the error oscillates
    up to about 5e-5 beyond (1.8e-5 at a*t = 2.5, 5.0e-5 at a*t = 5, peak
    5.2e-5 near a*t = 5.4); orders 8, 9 and 10 bring that peak down to
    1.8e-5, 5.8e-6 and 2.0e-6.  Rounding adds at most a few eps times
    sum_k |zeta_k F(theta_k)|, about 1e-8 at order 7.
    """
    weights = _float_weights(order)
    t = _check_maturity(t)
    values = []
    for k, theta_k in enumerate(_abscissae(t, order), start=1):
        try:
            values.append(F(theta_k))
        except Exception as exc:
            exc.args = (f"{exc}, while evaluating the transform at theta={theta_k:.9g} (k={k}, t={t})",)
            raise
    if isinstance(values[0], tuple):
        return tuple([math.fsum(map(operator.mul, weights, column)) for column in zip(*values)])
    return math.fsum(map(operator.mul, weights, values))


def _transform(solution: Callable, x: float, quantities: tuple[str, ...]) -> Callable:
    """theta -> randomized values of the quantities at spot x from solution(theta).
    All five share one American solution, amer = euro + eep as eval_american_mr
    sums it; one quantity alone runs only its own evaluator (euro: no American)."""
    if quantities == QUANTITIES:
        def F(th):
            sol = solution(th)
            euro = eval_european_mr(sol.european, x)
            eep, diffusion, jump = eval_eep_split_mr(sol, x)
            return euro, euro + eep, eep, diffusion, jump
        return F
    if quantities == ("euro",):
        return lambda th: (eval_european_mr(solution(th), x),)
    if quantities == ("amer",):
        return lambda th: (eval_american_mr(solution(th), x),)
    part = ("eep", "eep_diffusion", "eep_jump").index(quantities[0])  # (total, diffusion, jump)
    return lambda th: (eval_eep_split_mr(solution(th), x)[part],)


def _prices(model: HejdModel, spec: DownOutStepSpec, t: float, x: float,
            quantities: tuple[str, ...], order: int) -> dict[str, float]:
    """Calendar-time values of the quantities from one inversion, times the
    seasoning factor exp(knock_rate * seasoning) of accrued occupation time.
    Order, then spot, then maturity are checked before the x = 0 zeros."""
    gs_weights(order)
    x = _check_spot(x)
    t = _check_maturity(t)
    if x == 0.0:
        return dict.fromkeys(quantities, 0.0)
    solve = solve_european_mr if quantities == ("euro",) else solve_american_mr
    thetas = _abscissae(t, order)  # gs_invert's abscissae, solved in one stacked call
    try:
        solved = dict(zip(thetas, solve(model, spec, thetas)))
    except HejdStepError:  # an engine error: gs_invert solves one by one and names its abscissa
        solved = {}
    solution = lambda th: solved[th] if th in solved else solve(model, spec, (th,))[0]
    raw = gs_invert(_transform(solution, x, quantities), t, order)
    factor = math.exp(spec.knock_rate * spec.seasoning)
    return {q: factor * value for q, value in zip(quantities, raw)}


def price_time_domain(
    model: HejdModel,
    spec: DownOutStepSpec,
    t: float,
    x: float,
    quantity: str = "euro",
    order: int = DEFAULT_GS_ORDER,
) -> float:
    """Calendar-time value of the selected quantity at maturity t and spot x,
    seasoning included.  The American-family quantities use the heuristic
    inversion of the randomized quantities (they are not strict transforms)."""
    if quantity not in QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}; expected one of {QUANTITIES}")
    return _prices(model, spec, t, x, (quantity,), order)[quantity]


def price_summary(
    model: HejdModel,
    spec: DownOutStepSpec,
    t: float,
    x: float,
    order: int = DEFAULT_GS_ORDER,
) -> dict[str, float]:
    """euro/amer/eep values plus the premium share of the American price
    (eep_pct) and the diffusion share of the premium (dc_pct), in percent.

    All five quantities come from one inversion pass, each equal to its
    price_time_domain value bit for bit.
    """
    out = _prices(model, spec, t, x, QUANTITIES, order)
    out["eep_pct"] = 100.0 * out["eep"] / out["amer"] if out["amer"] > 0.0 else math.nan
    out["dc_pct"] = 100.0 * out["eep_diffusion"] / out["eep"] if out["eep"] != 0.0 else math.nan
    return out
