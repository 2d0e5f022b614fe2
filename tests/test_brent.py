"""The boundary search's Brent zero-finder against scipy's brentq.

``pricing._brent`` follows the operation order of brentq.c, so on every
bracket it must return exactly what ``brentq`` returns at the tolerances the
boundary search uses.  The synthetic functions reach each of its branches,
which a line tracer confirms; the real brackets are every one that the
lockstep boundary search of the quotes behind tools/fingerprint.py's
price_summary calls hands to it.
"""

from __future__ import annotations

import importlib.util
import inspect
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from hejdstep import ConvergenceError, solve_american_mr
from hejdstep import pricing
from hejdstep.inversion import _abscissae

TOL = dict(xtol=1e-13, rtol=8.9e-16, maxiter=200)


SYNTHETIC = [
    pytest.param(lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0, id="cubic"),
    pytest.param(lambda x: x**20 - 0.5, 0.0, 2.0, id="x20"),
    pytest.param(lambda x: (x - 0.7) ** 5, 0.0, 1.0, id="flat-root"),
    pytest.param(lambda x: math.exp(x) - 2.0, -5.0, 5.0, id="exp"),
    pytest.param(lambda x: math.atan(1e3 * (x - 0.3)), 0.0, 1.0, id="atan"),
    pytest.param(lambda x: -1.0 if x < 1.0 / 3.0 else 1.0, 0.0, 1.0, id="discontinuous"),
    # the first bisection lands on the root exactly: the f == 0 exit in the loop
    pytest.param(lambda x: x - 0.5, 0.0, 1.0, id="iterate-hits-zero"),
    pytest.param(lambda x: x - 2.0, 2.0, 3.0, id="fa-zero"),
    pytest.param(lambda x: x - 3.0, 2.0, 3.0, id="fb-zero"),
]


def _brent(f, a: float, b: float) -> float:
    """The search on one bracket, driven as the pricer drives many."""
    search = pricing._brent(a, b, f(a), f(b))
    return pricing._lockstep([search], lambda _, xs: [f(x) for x in xs])[0]


def _branches_taken(runs) -> set[str]:
    """Labels of the comment-marked branches of pricing._brent that the
    calls ``runs`` execute: each ``# label`` line names the line below it."""
    lines, start = inspect.getsourcelines(pricing._brent)
    marked = {start + i + 1: line.strip()[2:] for i, line in enumerate(lines) if line.strip().startswith("# ")}
    code, hit = pricing._brent.__code__, set()

    def local(frame, event, arg):
        if event == "line":
            hit.add(frame.f_lineno)
        return local

    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        for f, a, b in runs:
            _brent(f, a, b)
    finally:
        sys.settrace(None)
    return {label for line, label in marked.items() if line in hit}


@pytest.mark.parametrize("f, a, b", SYNTHETIC)
def test_synthetic_equals_brentq(f, a, b):
    got = _brent(f, a, b)
    assert got == brentq(f, a, b, **TOL)
    assert _brent(lambda x: -f(x), a, b) == brentq(lambda x: -f(x), a, b, **TOL)
    assert _brent(f, b, a) == brentq(f, b, a, **TOL)


def test_synthetic_functions_reach_every_branch():
    runs = [p.values for p in SYNTHETIC]
    assert _branches_taken(runs) == {
        "interpolate", "extrapolate", "good short step", "step rejected: bisect", "bisect",
    }
    assert _brent(*SYNTHETIC[-3].values) == 0.5  # not an endpoint: the loop's f == 0 exit
    assert _brent(*SYNTHETIC[-2].values) == 2.0 and _brent(*SYNTHETIC[-1].values) == 3.0


@pytest.mark.parametrize("xtol, rtol", [(1e-13, 8.9e-16), (1e-6, 1e-9), (1e-2, 1e-3)])
def test_random_brackets_equal_brentq(monkeypatch, xtol, rtol):
    # looser tolerances than the boundary search's make the tolerance terms
    # of each step decide more often; brentq gets the same ones
    monkeypatch.setattr(pricing, "_BRENT_XTOL", xtol)
    monkeypatch.setattr(pricing, "_BRENT_RTOL", rtol)
    tol = dict(TOL, xtol=xtol, rtol=rtol)
    # a steep tanh step, a cubic and a slope around a random centre
    rng = np.random.default_rng(12)
    compared = 0
    for _ in range(2000):
        tilt, cubic, steep, centre, below, above = rng.uniform(
            [-3.0, -3.0, 0.1, -2.0, 1e-6, 1e-6], [3.0, 3.0, 50.0, 2.0, 4.0, 4.0]).tolist()
        f = lambda x: math.tanh(steep * (x - centre)) + cubic * (x - centre) ** 3 + tilt * (x - centre)
        a, b = centre - below, centre + above
        if math.copysign(1.0, f(a)) != math.copysign(1.0, f(b)):
            assert _brent(f, a, b) == brentq(f, a, b, **tol), (tilt, cubic, steep, centre, a, b)
            compared += 1
    assert compared > 1500


def test_step_cap_matches_brentq(monkeypatch):
    f, a, b = SYNTHETIC[0].values
    steps = brentq(f, a, b, full_output=True, **TOL)[1].iterations
    monkeypatch.setattr(pricing, "_BRENT_MAXITER", steps)
    assert _brent(f, a, b) == brentq(f, a, b, **TOL)
    monkeypatch.setattr(pricing, "_BRENT_MAXITER", steps - 1)
    with pytest.raises(RuntimeError):
        brentq(f, a, b, **{**TOL, "maxiter": steps - 1})
    with pytest.raises(ConvergenceError, match=r"american boundary search: .* bracket \[2\.0, 3\.0\]"):
        _brent(f, a, b)


def test_nan_gap_raises():
    f = lambda x: math.nan if 0.0 < x < 1.0 else x - 0.5
    with pytest.raises(ConvergenceError, match="american boundary search: smooth-fit gap is NaN"):
        _brent(f, 0.0, 1.0)


def test_step_cap_in_the_pricer(monkeypatch, kou_model, step_spec):
    monkeypatch.setattr(pricing, "_BRENT_MAXITER", 1)
    with pytest.raises(ConvergenceError, match="american boundary search"):
        solve_american_mr.__wrapped__(kou_model, step_spec, (1.3,))


def _fingerprint_american() -> list:
    """One case per (model, spec, t) that tools/fingerprint.py prices with
    price_summary, plus the jump-heavy m = n = 3 market with the step contract."""
    path = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"
    loader = importlib.util.spec_from_file_location("fingerprint", path)
    fingerprint = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(fingerprint)
    cases = {(model, spec, t): name for name, model, spec, t, _ in fingerprint.contracts()}
    cases[(fingerprint.HEAVY, fingerprint.STEP, 1.0)] = "m3n3 step"
    return [pytest.param(*case, id=name) for case, name in cases.items()]


@pytest.mark.parametrize("model, spec, t", _fingerprint_american())
def test_real_brackets_equal_brentq(monkeypatch, model, spec, t):
    # the 14 abscissae of a quote, exactly as gs_invert rounds them, search
    # their boundaries in lockstep; each search must end where brentq ends on
    # the one-candidate gap function
    calls, brent = [], pricing._brent
    monkeypatch.setattr(pricing, "_brent", lambda *bracket: calls.append(bracket) or brent(*bracket))
    sols = solve_american_mr.__wrapped__(model, spec, _abscissae(t, 7))
    monkeypatch.undo()
    assert len(calls) == 14
    for sol, (a, b, fa, fb) in zip(sols, calls):
        f = lambda x: float(pricing._gaps(sol.european, np.array([x]))[0])
        # the scan's stacked gaps at the bracket's ends equal one-candidate solves
        assert (f(a), f(b)) == (fa, fb)
        assert sol.log_boundary == brentq(f, a, b, **TOL), (a, b)
