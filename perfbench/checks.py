"""Output checks for the benchmark's workloads.

Every check compares an engine output with an independent computation (the
closed forms in ``closed_form``, the paper's published values, a Monte-Carlo
estimate) or with a property the prices must have.  None compares with a
stored copy of the engine's own output.  Each function returns a list of
problems, empty when the output passes.

Tolerances come from the order-7 Gaver-Stehfest inversion (README, "Output
checks and their tolerances"):

* ``GS_PAIR_ERROR``: the method's own peak error on the exponential pair
  theta/(theta+a) <-> exp(-a t), relative to the transform's scale.  A price
  whose transform is at most the spot x is therefore inverted to within
  about ``GS_PAIR_ERROR * x``; a European price, an exact transform, to
  within about ``GS_PAIR_ERROR`` times its own size.
* ``rounding(x)``: the float sum sum_k zeta_k F(theta_k) picks up a few
  roundings per term, each of relative size eps, on terms |zeta_k F| with
  |F| <= x.  Identities that hold per abscissa (eep = amer - euro,
  eep = diffusion + jump) survive the inversion only to this.
"""

from __future__ import annotations

import sys

from closed_form import bs_call, down_out_call

GS_PAIR_ERROR = 5.2e-5
# sum_k |zeta_k| of the order-7 weights (the largest is 1.7e7)
WEIGHT_MASS = 6.62e7
EPS = sys.float_info.epsilon

# tolerances of tests/test_acceptance.py for the paper's published values
REL_EURO = 5e-3
REL_AMER = 1.5e-2
REL_EEP = 2e-2
ABS_EEP_PCT = 0.1
ABS_DC_PCT = 0.5

# a Monte-Carlo estimate may sit this many standard errors from the engine
MC_Z_LIMIT = 5.0

AMERICAN_FAMILY = ("amer", "eep", "eep_diffusion", "eep_jump")


def rounding(x: float) -> float:
    """What float evaluation of the order-7 sum may add to a price of scale x."""
    return 8.0 * EPS * WEIGHT_MASS * max(x, 1.0)


def bound_tol(x: float) -> float:
    """Tolerance of a bound on a price of scale x (spot x)."""
    return GS_PAIR_ERROR * x + rounding(x)


def european_problems(x: float, euro: float) -> list[str]:
    """0 <= euro <= x."""
    tol = bound_tol(x)
    if not -tol <= euro <= x + tol:
        return [f"euro {euro!r} outside [0, x={x}]"]
    return []


def american_problems(x: float, strike: float, p: dict[str, float]) -> list[str]:
    """Bounds on the American family at spot x, given all five quantities.

    euro <= amer <= x, amer >= (x - K)^+, eep = amer - euro,
    eep = eep_diffusion + eep_jump, and no premium part larger than the spot
    in size (each is a discounted amount on a claim worth at most x).
    """
    tol = bound_tol(x)
    out = []
    euro, amer, eep = p["euro"], p["amer"], p["eep"]
    if not euro - tol <= amer <= x + tol:
        out.append(f"amer {amer!r} outside [euro={euro!r}, x={x}]")
    if amer < max(x - strike, 0.0) - tol:
        out.append(f"amer {amer!r} below intrinsic {max(x - strike, 0.0)!r}")
    if abs(eep - (amer - euro)) > rounding(x):
        out.append(f"eep {eep!r} != amer - euro {amer - euro!r}")
    split = p["eep_diffusion"] + p["eep_jump"]
    if abs(eep - split) > rounding(x):
        out.append(f"eep {eep!r} != diffusion + jump {split!r}")
    for part in ("eep_diffusion", "eep_jump"):
        if abs(p[part]) > x + tol:
            out.append(f"{part} {p[part]!r} exceeds the spot {x} in size")
    return out


def quote_problems(contract, summary: dict[str, float]) -> list[str]:
    """Bounds, closed forms and published values for one quote."""
    x, K = contract.x, contract.spec.strike
    out = european_problems(x, summary["euro"]) + american_problems(x, K, summary)
    model = contract.model
    if model.lam == 0.0:
        args = (K, model.r, model.delta, model.sigma, contract.t)
        bs = bs_call(x, *args)
        if contract.spec.knock_rate == 0.0:
            tol = GS_PAIR_ERROR * bs + rounding(x)
            if abs(summary["euro"] - bs) > tol:
                out.append(f"euro {summary['euro']!r} != Black-Scholes {bs!r} (tol {tol:.2e})")
        else:
            lo = down_out_call(x, K, contract.spec.barrier, *args[1:])
            tol = bound_tol(x)
            if not lo - tol <= summary["euro"] <= bs + tol:
                out.append(f"euro {summary['euro']!r} outside [down-and-out {lo!r}, Black-Scholes {bs!r}]")
    ref = contract.reference or {}
    for key, rel in (("euro", REL_EURO), ("amer", REL_AMER), ("eep", REL_EEP)):
        if key in ref and abs(summary[key] / ref[key] - 1.0) > rel:
            out.append(f"{key} {summary[key]!r} vs published {ref[key]} beyond {rel:.1%}")
    for key, lim in (("eep_pct", ABS_EEP_PCT), ("dc_pct", ABS_DC_PCT)):
        if key in ref and not abs(summary[key] - ref[key]) <= lim:
            out.append(f"{key} {summary[key]!r} vs published {ref[key]} beyond {lim}")
    return out


def ordering_problems(triple: dict[float, dict[str, float]], x: float) -> list[str]:
    """barrier <= step <= standard for euro and amer; ``triple`` maps the
    knock rates of one market, maturity and spot to their summaries, in
    decreasing knock rate (standard first)."""
    out = []
    tol = bound_tol(x)
    rates = sorted(triple, reverse=True)
    for q in ("euro", "amer"):
        vals = [triple[rho][q] for rho in rates]
        if any(b > a + tol for a, b in zip(vals, vals[1:])):
            out.append(f"{q} not ordered barrier <= step <= standard: {vals}")
    return out


def monotone_problems(points: list[tuple[float, float]], what: str) -> list[str]:
    """Prices at increasing spots must not decrease: a drop larger than the
    change of the inversion error over the step (GS_PAIR_ERROR per unit of
    spot) plus rounding is a fault."""
    out = []
    pts = sorted(points)
    for (x0, v0), (x1, v1) in zip(pts, pts[1:]):
        if v1 < v0 - GS_PAIR_ERROR * (x1 - x0) - 2.0 * rounding(x1):
            out.append(f"{what} falls from {v0!r} at {x0!r} to {v1!r} at {x1!r}")
    return out


def bs_surface_problems(model, strike: float, t: float, x: float, h: float,
                        down: float, centre: float, up: float) -> list[str]:
    """Value and central-difference delta of a lambda = 0 standard call
    against closed-form Black-Scholes with the same bump."""
    args = (strike, model.r, model.delta, model.sigma, t)
    ref = {s: bs_call(s, *args) for s in (x - h, x, x + h)}
    tol = {s: GS_PAIR_ERROR * v + rounding(s) for s, v in ref.items()}
    out = []
    if abs(centre - ref[x]) > tol[x]:
        out.append(f"euro {centre!r} at {x} != Black-Scholes {ref[x]!r}")
    delta = (up - down) / (2.0 * h)
    delta_ref = (ref[x + h] - ref[x - h]) / (2.0 * h)
    delta_tol = (tol[x + h] + tol[x - h]) / (2.0 * h)
    if abs(delta - delta_ref) > delta_tol:
        out.append(f"delta {delta!r} at {x} != Black-Scholes {delta_ref!r} (tol {delta_tol:.2e})")
    return out


def mc_problems(engine: float, estimate, duality) -> list[str]:
    """Engine vs Monte Carlo, and call vs dual put, within MC_Z_LIMIT
    standard errors."""
    out = []
    z = (estimate.value - engine) / estimate.std_error
    if not abs(z) <= MC_Z_LIMIT:
        out.append(f"engine {engine!r} vs Monte Carlo {estimate.value!r}: z = {z:+.2f}")
    if not abs(duality.z_score) <= MC_Z_LIMIT:
        out.append(f"call {duality.call.value!r} vs dual put {duality.dual_put.value!r}: "
                   f"z = {duality.z_score:+.2f}")
    return out
