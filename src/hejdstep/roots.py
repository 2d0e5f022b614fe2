"""Real roots of Phi(theta) = alpha with interlacing brackets.

For alpha > 0 the equation has exactly m+n+2 real roots: one positive root in
each interval cut by the up rates, (0, xi_1), (xi_1, xi_2), ..., (xi_m, inf),
and one negative root in each interval cut by the negated down rates,
(-eta_1, 0), ..., (-inf, -eta_n).  Each root is isolated by bracketed
bisection on its interval and polished with safeguarded Newton steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketError, ConvergenceError
from .model import HejdModel, _phi_prime_raw, _phi_raw

__all__ = ["RootSet", "find_roots"]

_MAX_ITER = 200
_POLE_OFFSET_FRAC = 1e-9  # initial interior offset as a fraction of the bracket
_DOUBLING_CAP = 2.0**60


@dataclass(frozen=True, eq=False)
class RootSet:
    """Roots of Phi(theta) = alpha.

    ``betas`` are the m+1 positive roots in increasing order (beta_s sits
    between the up-rate poles xi_{s-1} and xi_s).  ``gammas`` are the n+1
    negative roots ordered from the one closest to zero outward:
    0 > gammas[0] > -eta_1 > gammas[1] > ... > gammas[n] > -inf.
    """

    alpha: float
    betas: np.ndarray
    gammas: np.ndarray
    max_residual: float

    def labelled(self, model: HejdModel):
        """(kind, index, root, lo, hi) of each root with its interlacing
        interval: the betas, then the gammas, each indexed from 0."""
        brackets = root_brackets(model)
        for kind, found, intervals in (("beta", self.betas, brackets[: model.m + 1]),
                                       ("gamma", self.gammas, brackets[model.m + 1 :])):
            for i, (root, (lo, hi)) in enumerate(zip(found, intervals)):
                yield kind, i, root, lo, hi

    def validate(self, model: HejdModel) -> None:
        """Check count, strict interlacing with the poles, and residuals.

        The residual tolerance is 1e-12 * max(1, alpha), relaxed only by the
        double-precision conditioning floor |Phi'(root)| * ulp(root)
        (binding for roots pinned against a pole by very large alpha).
        """
        if len(self.betas) != model.m + 1 or len(self.gammas) != model.n + 1:
            raise BracketError("root count does not match mixture size")
        for kind, i, root, lo, hi in self.labelled(model):
            if not lo < root < hi:
                raise BracketError(f"{kind}[{i}]={root} escapes ({lo}, {hi})")
        tol = 1e-12 * max(1.0, self.alpha)
        for root in list(self.betas) + list(self.gammas):
            resid = abs(_phi_raw(model, root) - self.alpha)
            floor = 4.0 * abs(_phi_prime_raw(model, root)) * math.ulp(abs(root))
            if resid > max(tol, floor):
                raise ConvergenceError(
                    f"residual {resid:.3e} at root {float(root)!r} exceeds tolerance {tol:.3e}"
                )


def _bisect_newton(model: HejdModel, alpha: float, lo: float, hi: float) -> float:
    """One root of Phi - alpha in (lo, hi), f(lo) < 0 < f(hi) or reversed: the
    iterate of least residual, which RootSet.validate checks."""
    f = lambda t: _phi_raw(model, t) - alpha
    fa, fb = f(lo), f(hi)
    if fa == 0.0:
        return lo
    if fb == 0.0:
        return hi
    if fa * fb > 0.0:
        raise BracketError(f"no sign change in ({lo}, {hi}) for alpha={alpha}")
    a, b = lo, hi
    x = 0.5 * (a + b)
    tol = 1e-12 * max(1.0, alpha)
    best_x, best_f = x, math.inf
    for _ in range(_MAX_ITER):
        fx = f(x)
        if abs(fx) < abs(best_f):
            best_x, best_f = x, fx
        if fx == 0.0:
            return x
        if (fx < 0.0) == (fa < 0.0):
            a = x
        else:
            b = x
        width = b - a
        if width <= 2.0 * math.ulp(max(abs(a), abs(b))):
            break
        # Newton step once the bracket is tight enough for it to be safe,
        # else (and wherever it leaves the bracket) the bisection midpoint
        xn = math.nan
        if width < 0.125 * (hi - lo):
            dfx = _phi_prime_raw(model, x)
            if dfx != 0.0:
                xn = x - fx / dfx
        x = xn if a < xn < b else 0.5 * (a + b)
        if abs(fx) <= tol and width <= 1e-9 * max(1.0, abs(x)):
            break
    return best_x


def _pole_side_point(
    model: HejdModel,
    alpha: float,
    pole: float,
    direction: float,
    want_positive: bool,
    init_offset: float,
) -> float:
    """Point pole + direction*d where Phi - alpha has the requested sign.

    The limit sign at the pole is known (the mixture term blows up), but a
    vanishing intensity can shrink the region carrying that sign to a sliver;
    the offset halves until the sign shows, down to a few ulps of the pole.
    """
    floor = 4.0 * math.ulp(max(abs(pole), 1.0))
    d = init_offset
    while d >= floor:
        theta = pole + direction * d
        val = _phi_raw(model, theta) - alpha
        if val == 0.0 or (val > 0.0) == want_positive:
            return theta
        d *= 0.5
    raise BracketError(
        f"no point of the required sign next to pole {pole} for alpha={alpha} "
        "(root indistinguishable from the pole at double precision)"
    )


def _root(model: HejdModel, alpha: float, lo: float, hi: float) -> float:
    """Root in one interlacing interval (lo, hi) of root_brackets.

    At a pole end the exponent diverges: to -inf just above an up-rate pole
    and just below a down-rate pole, to +inf on the other sides.  At a zero
    end f(0) = -alpha < 0 exactly.  An infinite end is bracketed by
    geometric doubling from the finite end (the sigma^2 theta^2 / 2 term
    dominates far out).
    """
    finite = lo if hi == math.inf else hi if lo == -math.inf else None
    offset = _POLE_OFFSET_FRAC * (hi - lo if finite is None else max(1.0, abs(finite)))
    if lo != 0.0 and lo != -math.inf:
        # lo is an up-rate pole (beta side, limit -inf) or a negated
        # down-rate pole (gamma side, limit +inf)
        lo = _pole_side_point(model, alpha, lo, +1.0, want_positive=lo < 0.0, init_offset=offset)
    if hi != 0.0 and hi != math.inf:
        hi = _pole_side_point(model, alpha, hi, -1.0, want_positive=hi > 0.0, init_offset=offset)
    if finite is not None:
        sign, near = (1.0, lo) if hi == math.inf else (-1.0, hi)
        sigma2 = model.sigma**2
        # diffusion-only estimate of the far root, used to seed the doubling
        disc = model.drift**2 + 2.0 * sigma2 * alpha
        seed = (-model.drift + math.sqrt(disc)) / sigma2
        far = sign * max(2.0 * abs(near), seed, 1.0)
        while _phi_raw(model, far) - alpha < 0.0:
            far *= 2.0
            if abs(far) > _DOUBLING_CAP:
                side = "positive" if sign > 0.0 else "negative"
                raise BracketError(f"outer bracket doubling cap reached ({side} side)")
        lo, hi = min(near, far), max(near, far)
    return _bisect_newton(model, alpha, lo, hi)


def root_brackets(model: HejdModel) -> list[tuple[float, float]]:
    """Interlacing interval (lo, hi) of each root: the m+1 betas in
    increasing order, then the n+1 gammas from zero outward."""
    ups = (0.0,) + model.up_rates + (math.inf,)
    downs = (0.0,) + tuple(-e for e in model.down_rates) + (-math.inf,)
    return ([(ups[s], ups[s + 1]) for s in range(model.m + 1)]
            + [(downs[u + 1], downs[u]) for u in range(model.n + 1)])


def find_roots(model: HejdModel, alpha: float) -> RootSet:
    """All m+n+2 real roots of Phi(theta) = alpha for 0 < alpha < inf."""
    alpha = float(alpha)
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be strictly positive and finite, got {alpha!r}")

    found = [_root(model, alpha, lo, hi) for lo, hi in root_brackets(model)]
    resid = max(
        abs(_phi_raw(model, t) - alpha) for t in found
    )
    roots = RootSet(
        alpha=alpha,
        betas=np.asarray(found[: model.m + 1], dtype=float),
        gammas=np.asarray(found[model.m + 1 :], dtype=float),
        max_residual=resid,
    )
    roots.validate(model)
    return roots
