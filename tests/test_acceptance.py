"""Acceptance suite: one test per exit criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS/FAIL lines as they complete.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from hejdstep import (
    DownOutStepSpec,
    HejdModel,
    PathConfig,
    eval_eep_split_mr,
    eval_european_mr,
    find_roots,
    gs_invert,
    gs_weights,
    laplace_exponent,
    price_summary,
    price_time_domain,
    solve_american_mr,
    solve_european_mr,
    verify_duality,
)
from conftest import (
    BARRIER, STANDARD, STEP, exponential_pair_reference, random_model, random_spec, stehfest_weights,
)
from oracles import oide_residual


def ladder_model(lam: float) -> HejdModel:
    return HejdModel(r=0.05, delta=0.07, sigma=0.2, lam=lam,
                     up_weights=(0.7,), up_rates=(25.0,),
                     down_weights=(0.3,), down_rates=(50.0,))


def grid_model(lam: float, xi: float, eta: float) -> HejdModel:
    return HejdModel(r=0.05, delta=0.07, sigma=0.2, lam=lam,
                     up_weights=(0.5,), up_rates=(xi,),
                     down_weights=(0.5,), down_rates=(eta,))


_CAPSYS = None


@pytest.fixture(autouse=True)
def _live_reporting(capsys):
    # let report() bypass capture so every criterion line reaches the
    # terminal (and any tee'd log), pass or fail
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def report(num: int, ok: bool, detail: str) -> bool:
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {detail}"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line)
    else:
        print(line)
    return ok


def test_criterion_1_blackscholes_limit():
    solve_european_mr.cache_clear()
    solve_american_mr.cache_clear()
    start = time.perf_counter()
    got = price_time_domain(ladder_model(1e-4), STEP, 1.0, 100.0, "euro")
    elapsed = time.perf_counter() - start
    rel = abs(got / 4.511 - 1.0)
    ok = rel <= 1e-3 and elapsed < 1.0
    assert report(1, ok, f"euro(lam=1e-4)={got:.4f} vs B&S 4.511 (rel {rel:.2e}), {elapsed:.3f}s")


def test_criterion_2_convergence_ladder():
    euro_ref = {1.0: 4.596, 0.1: 4.519, 0.01: 4.511, 0.001: 4.510, 0.0001: 4.510}
    amer_ref = {1.0: 4.789, 0.1: 4.706, 0.01: 4.698, 0.001: 4.697, 0.0001: 4.697}
    worst_e = worst_a = 0.0
    for lam, ref in euro_ref.items():
        got = price_time_domain(ladder_model(lam), STEP, 1.0, 100.0, "euro")
        worst_e = max(worst_e, abs(got / ref - 1.0))
    for lam, ref in amer_ref.items():
        got = price_time_domain(ladder_model(lam), STEP, 1.0, 100.0, "amer")
        worst_a = max(worst_a, abs(got / ref - 1.0))
    ok = worst_e <= 5e-3 and worst_a <= 1.5e-2
    assert report(2, ok, f"ladder worst rel: euro {worst_e:.2e} (<=0.5%), amer {worst_a:.2e} (<=1.5%)")


def test_criterion_3_barrier_standard_sandwich():
    model = ladder_model(1.0)
    std = price_time_domain(model, STANDARD, 1.0, 100.0, "euro")
    stp = price_time_domain(model, STEP, 1.0, 100.0, "euro")
    bar = price_time_domain(model, BARRIER, 1.0, 100.0, "euro")
    rel = max(abs(std / 6.833 - 1), abs(stp / 4.596 - 1), abs(bar / 3.374 - 1))
    ok = rel <= 5e-3 and bar <= stp <= std
    assert report(3, ok, f"std {std:.4f}, step {stp:.4f}, barrier {bar:.4f}; worst rel {rel:.2e}; ordered {bar <= stp <= std}")


def test_criterion_4_eep_structure():
    checks = []

    def row(model, x, euro_ref, eep_ref, eep_pct_ref, dc_pct_ref):
        s = price_summary(model, STEP, 1.0, x)
        checks.append(abs(s["euro"] / euro_ref - 1.0) <= 5e-3)
        checks.append(abs(s["eep"] / eep_ref - 1.0) <= 2e-2)
        checks.append(abs(s["eep_pct"] - eep_pct_ref) <= 0.1)
        checks.append(abs(s["dc_pct"] - dc_pct_ref) <= 0.5)
        return s

    s = row(grid_model(5.0, 50.0, 25.0), 100.0, 4.992, 0.178, 3.45, 94.36)
    row(grid_model(5.0, 50.0, 50.0), 105.0, 7.949, 0.355, 4.28, 94.18)
    row(grid_model(10.0, 50.0, 50.0), 100.0, 4.836, 0.190, 3.77, 89.23)
    row(grid_model(5.0, 25.0, 25.0), 110.0, 12.037, 0.544, 4.32, 78.35)
    ok = all(checks)
    assert report(4, ok, f"primary row euro {s['euro']:.4f}, eep {s['eep']:.4f}, "
                         f"eep% {s['eep_pct']:.2f}, dc% {s['dc_pct']:.2f}; "
                         f"{sum(checks)}/{len(checks)} subchecks")


def test_criterion_5_oide_residual_oracle():
    rng = np.random.default_rng(2718)
    margin = 2e-3 * 100.0
    worst_euro = worst_amer = 0.0
    for _ in range(10):
        model = random_model(rng)
        spec = random_spec(rng)
        theta = float(rng.uniform(0.5, 3.0))
        K, L = spec.strike, spec.barrier

        euro = solve_european_mr(model, spec, (theta,))[0]
        grid = np.concatenate([
            np.linspace(0.75 * L, L - margin, 12),
            np.linspace(L + margin, K - margin, 20),
            np.linspace(K + margin, 1.6 * K, 18),
        ])
        worst_euro = max(worst_euro, oide_residual(model, spec, theta, euro, grid))

        amer = solve_american_mr(model, spec, (theta,))[0]
        grid_a = np.linspace(L + margin, amer.boundary - margin, 50)
        worst_amer = max(worst_amer, oide_residual(model, spec, theta, amer, grid_a))
    ok = worst_euro <= 1e-6 and worst_amer <= 1e-6
    assert report(5, ok, f"worst normalized residual: euro {worst_euro:.2e}, amer {worst_amer:.2e} (<=1e-6)")


def test_criterion_6_root_properties():
    rng = np.random.default_rng(31415)
    failures = 0
    count = 0
    for _ in range(100):
        model = random_model(rng)
        for alpha in (0.05, 1.0, 10.0, 100.0):
            count += 1
            try:
                roots = find_roots(model, alpha)
                roots.validate(model)
                tol = 1e-10 * max(1.0, alpha)
                for t in list(roots.betas) + list(roots.gammas):
                    if abs(laplace_exponent(model, t) - alpha) > tol:
                        raise AssertionError("raw residual above spec bound")
            except Exception:
                failures += 1
    ok = failures == 0
    assert report(6, ok, f"{count} root solves, {failures} failures")


def test_criterion_7_gaver_stehfest_sanity():
    sums_ok = all(sum(gs_weights(n)) == 1 for n in range(1, 11))
    weights_ok = list(gs_weights(7)) == stehfest_weights(7)
    failing: list[tuple[float, float]] = []
    points = []
    for a in (0.5, 1.0, 5.0):
        for t in (0.1, 1.0, 5.0):
            ref = exponential_pair_reference(a, t, 7)
            got = gs_invert(lambda th: th / (th + a), t, 7)
            deviation = abs(got - ref.value)
            err = abs(got - ref.target)
            if deviation > ref.fidelity or err > max(1e-5, ref.method_error) + ref.fidelity:
                failing.append((a, t))
            points.append(f"({a:g},{t:g}) {ref.method_error:.1e}/{deviation:.1e}")
    ok = sums_ok and weights_ok and not failing
    # Order 7 itself misses 1e-5 at a*t in {2.5, 5, 25}: its exact error there
    # is up to 4.96e-5, whatever the implementation.  So the pair is checked
    # against the order-7 sum evaluated exactly and independently (conftest):
    # gs_invert must reproduce it to float rounding, and must recover
    # exp(-a t) to 1e-5 wherever order 7 can, to its exact error elsewhere.
    assert report(7, ok, f"weight sums exact: {sums_ok}; weights match Stehfest's "
                         f"formula: {weights_ok}; exact order-7 error/deviation "
                         f"at (a,t): {', '.join(points)}; failing combos {failing}")


def test_criterion_8_split_additivity_and_boundary_rows():
    model = grid_model(5.0, 50.0, 25.0)
    worst_add = worst_smooth = 0.0
    boundary_ok = True
    for theta in (0.8, 1.5, 4.0):
        sol = solve_american_mr(model, STEP, (theta,))[0]
        w, w0, wj = sol.coef
        worst_add = max(worst_add, float(np.max(np.abs(w - (w0 + wj)))))
        worst_smooth = max(worst_smooth, sol.smooth_fit_residual)
        b = sol.boundary
        _, diff, jump = eval_eep_split_mr(sol, b)
        gap = b - STEP.strike - eval_european_mr(sol.european, b)
        boundary_ok &= jump == 0.0 and abs(diff - gap) <= 1e-8
    ok = worst_add <= 1e-9 and worst_smooth <= 1e-8 and boundary_ok
    assert report(8, ok, f"split additivity {worst_add:.2e} (<=1e-9), "
                         f"smooth fit {worst_smooth:.2e} (<=1e-8), boundary rows {boundary_ok}")


def test_criterion_9_monte_carlo_cross_check():
    model = ladder_model(1.0)
    start = time.perf_counter()
    cfg = PathConfig(n_paths=1_000_000, dt=1e-3, seed=2026)
    # the duality check's call side is the mc_euro_step_price estimate for
    # this configuration, bit for bit (TestVerify in test_cli.py asserts it)
    duality = verify_duality(model, STEP, 1.0, 100.0, cfg)
    est = duality.call
    engine = price_time_domain(model, STEP, 1.0, 100.0, "euro")
    z_price = (est.value - engine) / est.std_error
    elapsed = time.perf_counter() - start
    ok = abs(z_price) <= 3.0 and abs(duality.z_score) <= 3.0 and elapsed < 120.0
    assert report(9, ok, f"mc {est.value:.4f} vs engine {engine:.4f} (z={z_price:+.2f}); "
                         f"duality z={duality.z_score:+.2f}; {elapsed:.0f}s")


def test_criterion_10_qualitative_structure():
    # premium share grows with the knock-out severity
    model = grid_model(5.0, 25.0, 50.0)
    shares = []
    for rho in (0.0, -1.0, -26.34, -100.0, -1000.0):
        spec = DownOutStepSpec(100.0, 95.0, rho)
        shares.append(price_summary(model, spec, 1.0, 100.0)["eep_pct"])
    monotone = all(b >= a - 1e-9 for a, b in zip(shares, shares[1:]))

    # prices and finite-difference greeks converge to the no-jump surface
    tiny = HejdModel(r=0.05, delta=0.07, sigma=0.2, lam=1e-12,
                     up_weights=(0.5,), up_rates=(25.0,),
                     down_weights=(0.5,), down_rates=(50.0,))
    none = HejdModel(r=0.05, delta=0.07, sigma=0.2, lam=0.0)
    worst = 0.0
    for x in np.linspace(85.0, 115.0, 7):
        h = 1e-3 * x
        vals = {}
        for tag, m in (("tiny", tiny), ("none", none)):
            f0 = price_time_domain(m, STEP, 1.0, x, "euro")
            fp = price_time_domain(m, STEP, 1.0, x + h, "euro")
            fm = price_time_domain(m, STEP, 1.0, x - h, "euro")
            vals[tag] = (f0, (fp - fm) / (2 * h), (fp - 2 * f0 + fm) / (h * h))
        for a, b in zip(vals["tiny"], vals["none"]):
            worst = max(worst, abs(a - b))
    ok = monotone and worst <= 1e-3
    assert report(10, ok, f"eep% by |rho|: {[round(s, 2) for s in shares]} monotone={monotone}; "
                          f"max |no-jump limit diff| {worst:.2e} (<=1e-3)")
