"""The benchmark's own test, on a reduced size: real engine outputs pass the
output checks, and each check rejects a deliberately wrong output.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py

It lies outside ``tests/`` and so outside the repository's test suite.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hejdstep  # noqa: E402
from checks import (  # noqa: E402
    MC_Z_LIMIT,
    american_problems,
    bound_tol,
    bs_surface_problems,
    european_problems,
    mc_problems,
    monotone_problems,
    ordering_problems,
    quote_problems,
    rounding,
)
from closed_form import bs_call, down_out_call  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    RATES,
    RHO_STEP,
    Contract,
    QuoteBook,
    SolveCaches,
    RiskGrid,
    kou_market,
    spec,
)

ZERO_JUMP = hejdstep.HejdModel(r=0.05, delta=0.07, sigma=0.2, lam=0.0)


@pytest.fixture(scope="module")
def ladder_quote():
    c = Contract("ladder-1", kou_market(), spec(RHO_STEP), 1.0, 100.0, dict(euro=4.596, amer=4.789))
    return c, hejdstep.price_summary(c.model, c.spec, c.t, c.x)


@pytest.fixture(scope="module")
def zero_jump_triple():
    out = {}
    for rho in RATES:
        c = Contract("zero-jump", ZERO_JUMP, spec(rho), 1.0, 100.0)
        out[rho] = (c, hejdstep.price_summary(c.model, c.spec, c.t, c.x))
    return out


def test_closed_forms_match_published_table_1():
    # table 1 prints the Black-Scholes step-market limits 4.511 (step) and
    # 3.332 (barrier); the standard call at these parameters is 6.598
    assert bs_call(100.0, 100.0, 0.05, 0.07, 0.2, 1.0) == pytest.approx(6.5976, abs=1e-4)
    assert down_out_call(100.0, 100.0, 95.0, 0.05, 0.07, 0.2, 1.0) == pytest.approx(3.332, abs=1e-3)
    assert down_out_call(95.0, 100.0, 95.0, 0.05, 0.07, 0.2, 1.0) == 0.0


def test_real_quotes_pass(ladder_quote, zero_jump_triple):
    c, s = ladder_quote
    assert quote_problems(c, s) == []
    for c, s in zero_jump_triple.values():
        assert quote_problems(c, s) == []
    triple = {rho: s for rho, (_, s) in zero_jump_triple.items()}
    assert ordering_problems(triple, 100.0) == []


@pytest.mark.parametrize("change", [
    dict(euro=-1.0),                   # negative price
    dict(euro=120.0),                  # above the spot
    dict(amer=4.0),                    # below the European price
    dict(eep_jump=+1e-3),              # broken premium split
    dict(eep=0.5),                     # eep != amer - euro
])
def test_bounds_reject(ladder_quote, change):
    c, s = ladder_quote
    assert quote_problems(c, dict(s, **change))


def test_absurd_split_parts_reject(ladder_quote):
    c, s = ladder_quote
    parts = dict(eep_diffusion=5e4, eep_jump=s["eep"] - 5e4)
    assert american_problems(c.x, 100.0, dict(s, **parts)) == [
        f"eep_diffusion {5e4!r} exceeds the spot 100.0 in size",
        f"eep_jump {s['eep'] - 5e4!r} exceeds the spot 100.0 in size",
    ]


def test_published_value_rejects_a_moved_price(ladder_quote):
    c, s = ladder_quote
    assert quote_problems(c, dict(s, euro=s["euro"] * 1.006))
    assert quote_problems(c, dict(s, amer=s["amer"] * 1.016))


def test_intrinsic_bound_rejects():
    assert american_problems(120.0, 100.0, dict(euro=18.9, amer=18.9, eep=0.0,
                                                eep_diffusion=0.0, eep_jump=0.0))


def test_closed_form_rejects_a_moved_price(zero_jump_triple):
    c, s = zero_jump_triple[0.0]
    bs = bs_call(c.x, 100.0, 0.05, 0.07, 0.2, 1.0)
    tol = 5.2e-5 * bs + rounding(c.x)
    assert quote_problems(c, dict(s, euro=bs + 2 * tol, amer=s["amer"] + 2 * tol))
    c, s = zero_jump_triple[RHO_STEP]
    lo = down_out_call(c.x, 100.0, 95.0, 0.05, 0.07, 0.2, 1.0)
    low = lo - 2 * bound_tol(c.x)
    assert quote_problems(c, dict(s, euro=low, amer=s["amer"] - s["euro"] + low))
    high = bs + 2 * bound_tol(c.x)
    assert quote_problems(c, dict(s, euro=high, amer=s["amer"] - s["euro"] + high))


def test_ordering_rejects_swapped_rates(zero_jump_triple):
    triple = {rho: s for rho, (_, s) in zero_jump_triple.items()}
    swapped = dict(triple)
    swapped[0.0], swapped[RHO_STEP] = triple[RHO_STEP], triple[0.0]
    assert ordering_problems(swapped, 100.0)


def test_monotone_and_surface_checks():
    assert monotone_problems([(100.0, 5.0), (100.1, 5.05)], "euro") == []
    assert monotone_problems([(100.0, 5.0), (100.1, 4.99)], "euro")
    args = (100.0, 0.05, 0.07, 0.2, 1.0)
    x, h = 100.0, 0.1
    down, centre, up = (bs_call(s, *args) for s in (x - h, x, x + h))
    assert bs_surface_problems(ZERO_JUMP, 100.0, 1.0, x, h, down, centre, up) == []
    assert bs_surface_problems(ZERO_JUMP, 100.0, 1.0, x, h, down, centre + 1e-3, up)
    assert bs_surface_problems(ZERO_JUMP, 100.0, 1.0, x, h, down, centre, up + 2e-3)


def test_mc_check():
    est = SimpleNamespace(value=4.23, std_error=0.03)
    ok = SimpleNamespace(z_score=0.5, call=est, dual_put=est)
    assert mc_problems(4.22, est, ok) == []
    assert mc_problems(4.23 - (MC_Z_LIMIT + 1) * 0.03, est, ok)
    assert mc_problems(4.22, est, SimpleNamespace(z_score=MC_Z_LIMIT + 1, call=est, dual_put=est))


def test_european_bound():
    assert european_problems(100.0, 4.6) == []
    assert european_problems(100.0, -1.0)


def test_quote_book_reports_errors():
    book = QuoteBook(0)
    assert len(book.book) >= 40
    assert len({(c.model, c.spec, c.t) for c in book.book}) == len(book.book)
    assert QuoteBook(0).book == book.book
    book.book = book.book[:1]
    problems, failed = book.check([hejdstep.SingularSystemError("boom")])
    assert problems and failed == 0


@pytest.fixture(scope="module")
def risk_round():
    grid = RiskGrid(0)
    grid.setup()
    outputs = [fn() for _, fn in grid.operations()]
    return grid, outputs


def test_risk_grid_fails_only_the_named_band(risk_round):
    grid, outputs = risk_round
    problems, failed = grid.evaluate(outputs)
    assert problems == []
    assert {name for name, *_ in failed} == {"kou"}
    assert all(114.45 <= grid.spot(i, j) <= 126.74 for _, i, j, _ in failed)


def test_risk_grid_rejects_a_wrong_price(risk_round):
    grid, outputs = risk_round
    for bad in (-1.0, 1e3):
        k = next(k for k, t in enumerate(grid.tasks) if t[0] == "heavy" and t[3] == "euro")
        wrong = list(outputs)
        wrong[k] = bad
        problems, _ = grid.evaluate(wrong)
        assert any("unexpected failure" in p for p in problems)
    # the named market fails only inside the band of its exercise boundaries
    k = next(k for k, t in enumerate(grid.tasks) if t[0] == "kou" and t[1:] == (30, 0, "amer"))
    wrong = list(outputs)
    wrong[k] = -1.0
    problems, failed = grid.evaluate(wrong)
    assert ("kou", 30, 0, "amer") in failed
    assert any("unexpected failure" in p for p in problems)
    # a zero-jump price moved past the Black-Scholes tolerance
    k = next(k for k, t in enumerate(grid.tasks) if t[0] == "zero-jump" and t[3] == "euro" and t[2] == 0)
    wrong = list(outputs)
    wrong[k] = outputs[k] * (1 + 1e-3)
    problems, _ = grid.evaluate(wrong)
    assert problems


def test_tracer_spans_and_restore():
    originals = (hejdstep.pricing.find_roots, hejdstep.inversion.gs_invert, hejdstep.price_time_domain)
    tracer = Tracer()
    caches = SolveCaches()
    caches.clear()
    before = caches.counts()
    tracer.install()
    try:
        value = tracer.span("op", lambda: hejdstep.price_time_domain(
            ZERO_JUMP, spec(RHO_STEP), 1.0, 100.0, "euro"))
    finally:
        tracer.remove()
    after = caches.counts()
    assert (hejdstep.pricing.find_roots, hejdstep.inversion.gs_invert, hejdstep.price_time_domain) == originals
    assert value == pytest.approx(4.5106, abs=1e-3)
    names = [s[0] for s in tracer.spans]
    assert names[0] == "op" and names[1] == "inversion.price_time_domain"
    assert names.count("roots.find_roots") == 28
    assert all(t >= 0.0 for t in tracer.self_times())
    m = layer_metrics(tracer, 1, before, after)
    assert m["roots.find_roots.calls"] == 28
    assert m["pricing.solve_european_mr.calls"] == 14
    assert m["pricing.eval.calls"] == 14
    # mid and low levels differ at every abscissa of a step contract
    assert m["roots.find_roots.distinct_share"] == 1.0

