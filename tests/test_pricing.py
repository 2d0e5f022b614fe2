"""Randomized-maturity pricing tests: system invariants, degenerate cases,
boundary structure, premium split, seasoning, and the equation-residual oracle."""

from __future__ import annotations

import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from hejdstep import (
    AmbiguousBoundaryError,
    ConvergenceError,
    DownOutStepSpec,
    HejdModel,
    NoBoundaryError,
    QUANTITIES,
    PathConfig,
    SingularSystemError,
    eval_american_mr,
    eval_eep_mr,
    eval_eep_split_mr,
    eval_european_mr,
    gs_invert,
    mc_euro_step_price,
    price_summary,
    price_time_domain,
    solve_american_mr,
    solve_european_mr,
)
from hejdstep import pricing
from hejdstep.inversion import _abscissae
from conftest import HEAVY, KOU, random_model, random_spec, stehfest_weights
from oracles import eep_split_residual, oide_residual

THETA = 1.3


def _one_sided_slope(f, s: float, direction: float, h: float = 1e-6) -> float:
    """Second-order one-sided derivative of f at s, approaching from one side."""
    d = direction * h * s
    return (-3.0 * f(s) + 4.0 * f(s + d) - f(s + 2.0 * d)) / (2.0 * d)


@pytest.fixture(scope="module")
def kou_euro(kou_model, step_spec):
    return solve_european_mr(kou_model, step_spec, THETA)


@pytest.fixture(scope="module")
def kou_amer(kou_model, step_spec):
    return solve_american_mr(kou_model, step_spec, THETA)


class TestEuropeanSystem:
    def test_linear_residual(self, kou_euro):
        assert kou_euro.residual_inf <= 1e-9 * THETA * 100.0

    def test_value_continuity_at_seams(self, kou_euro, step_spec):
        K, L = step_spec.strike, step_spec.barrier
        for seam in (L, K):
            lo = eval_european_mr(kou_euro, seam * (1.0 - 1e-9))
            hi = eval_european_mr(kou_euro, seam * (1.0 + 1e-9))
            mid = eval_european_mr(kou_euro, seam)
            assert lo == pytest.approx(mid, rel=1e-7)
            assert hi == pytest.approx(mid, rel=1e-7)

    def test_slope_continuity_at_seams(self, kou_euro, step_spec):
        for seam in (step_spec.barrier, step_spec.strike):
            left = _one_sided_slope(lambda s: eval_european_mr(kou_euro, s), seam, -1.0)
            right = _one_sided_slope(lambda s: eval_european_mr(kou_euro, s), seam, +1.0)
            assert left == pytest.approx(right, rel=1e-6)

    def test_branch_formulas_agree_at_seams(self, kou_euro, step_spec):
        # value and slope of the adjacent branch representations, evaluated
        # exactly at the seams from the coefficient vector: the low-region
        # terms anchored at L, the corridor's beta terms at K and gamma terms
        # at L, the tail's gamma terms at K
        ell, k = kou_euro.log_barrier, kou_euro.log_strike
        bL = kou_euro.roots_low.betas
        bM, gM = kou_euro.roots_mid.betas, kou_euro.roots_mid.gammas
        cD, cF, cFm = kou_euro.cols
        coef = kou_euro.coef
        a, b, bm, c = coef[cD], coef[cF], coef[cFm], coef[cFm.stop:]
        th, K = kou_euro.theta, step_spec.strike

        val_lo = float(np.sum(a))
        val_mid_at_l = float(np.sum(b * np.exp(-bM * (k - ell))) + np.sum(bm))
        assert val_lo == pytest.approx(val_mid_at_l, rel=1e-8)
        slope_lo = float(np.sum(a * bL))
        slope_mid_at_l = float(np.sum(b * bM * np.exp(-bM * (k - ell))) + np.sum(bm * gM))
        assert slope_lo == pytest.approx(slope_mid_at_l, rel=1e-7)

        val_mid_at_k = float(np.sum(b) + np.sum(bm * np.exp(gM * (k - ell))))
        val_hi = float(np.sum(c)) + th * K / (kou_euro.model.delta + th) - kou_euro.offset_inf
        assert val_mid_at_k == pytest.approx(val_hi, rel=1e-8)
        slope_mid_at_k = float(np.sum(b * bM) + np.sum(bm * gM * np.exp(gM * (k - ell))))
        slope_hi = float(np.sum(c * gM)) + th * K / (kou_euro.model.delta + th)
        assert slope_mid_at_k == pytest.approx(slope_hi, rel=1e-7)

    def test_zero_at_origin(self, kou_euro):
        assert eval_european_mr(kou_euro, 0.0) == 0.0

    @pytest.mark.parametrize("theta", [0.0, -0.5])
    def test_theta_must_be_positive(self, kou_model, step_spec, theta):
        with pytest.raises(ValueError, match="theta must be strictly positive"):
            solve_european_mr(kou_model, step_spec, theta)

    def test_failed_condition_estimate_raises(self, monkeypatch, kou_model, step_spec):
        def no_svd(Q):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "cond", no_svd)
        with pytest.raises(SingularSystemError) as info:
            solve_european_mr.__wrapped__(kou_model, step_spec, THETA)
        assert str(info.value) == "european system: condition estimate failed (SVD did not converge)"

    def test_linear_growth_at_infinity(self, kou_euro):
        x = 1e9
        ratio = eval_european_mr(kou_euro, x) / x
        assert ratio == pytest.approx(kou_euro.slope_inf, rel=1e-6)

    def test_large_theta_collapses_to_payoff(self, kou_model, step_spec):
        sol = solve_european_mr(kou_model, step_spec, 5e4)
        for x in (80.0, 99.0, 101.0, 130.0):
            assert eval_european_mr(sol, x) == pytest.approx(max(x - 100.0, 0.0), abs=0.05)

    def test_rho_zero_smooth_across_barrier(self, kou_model, standard_spec):
        # with a zero knock rate the barrier is inert: value and slope glue
        sol = solve_european_mr(kou_model, standard_spec, THETA)
        L = standard_spec.barrier
        lo = eval_european_mr(sol, L * (1.0 - 1e-9))
        hi = eval_european_mr(sol, L * (1.0 + 1e-9))
        assert lo == pytest.approx(eval_european_mr(sol, L), rel=1e-8)
        assert hi == pytest.approx(eval_european_mr(sol, L), rel=1e-8)
        left = _one_sided_slope(lambda s: eval_european_mr(sol, s), L, -1.0)
        right = _one_sided_slope(lambda s: eval_european_mr(sol, s), L, +1.0)
        assert left == pytest.approx(right, rel=1e-7)

    def test_zero_barrier_equals_inert_barrier(self, kou_model, standard_spec):
        # the barrier's rows and columns left out or kept with an inert
        # barrier must produce the same vanilla price
        vanilla = DownOutStepSpec(strike=100.0, barrier=0.0, knock_rate=0.0)
        s0 = solve_european_mr(kou_model, vanilla, THETA)
        s1 = solve_european_mr(kou_model, standard_spec, THETA)
        for x in (50.0, 90.0, 97.0, 100.0, 120.0):
            assert eval_european_mr(s0, x) == pytest.approx(eval_european_mr(s1, x), abs=1e-7)

    def test_randomized_maturity_vanilla_against_mc(self, kou_model):
        # independent oracle: exponential-maturity sampling needs no grid at all
        vanilla = DownOutStepSpec(strike=100.0, barrier=0.0, knock_rate=0.0)
        theta = 1.1
        sol = solve_european_mr(kou_model, vanilla, theta)
        engine = eval_european_mr(sol, 100.0)

        rng = np.random.default_rng(314159)
        n = 6_000_000
        horizon = rng.exponential(1.0 / theta, size=n)
        counts = rng.poisson(kou_model.lam * horizon)
        z = rng.standard_normal(n)
        x_t = kou_model.drift * horizon + kou_model.sigma * np.sqrt(horizon) * z
        total = int(counts.sum())
        up = rng.random(total) < kou_model.up_weights[0]
        marks = np.where(
            up,
            rng.standard_exponential(total) / kou_model.up_rates[0],
            -rng.standard_exponential(total) / kou_model.down_rates[0],
        )
        path_ids = np.repeat(np.arange(n), counts)
        x_t += np.bincount(path_ids, weights=marks, minlength=n)
        payoff = np.exp(-kou_model.r * horizon) * np.maximum(100.0 * np.exp(x_t) - 100.0, 0.0)
        mc, se = float(payoff.mean()), float(payoff.std(ddof=1) / math.sqrt(n))
        assert abs(engine - mc) <= 4.0 * se
        assert se < 2e-3 * engine

    def test_near_degenerate_barrier_clamped(self, kou_model):
        spec = DownOutStepSpec(strike=100.0, barrier=100.0, knock_rate=-26.34)
        sol = solve_european_mr(kou_model, spec, THETA)
        assert math.isfinite(eval_european_mr(sol, 100.0))
        near = DownOutStepSpec(strike=100.0, barrier=100.0 * (1 - 1e-9), knock_rate=-26.34)
        sol2 = solve_european_mr(kou_model, near, THETA)
        assert eval_european_mr(sol, 99.0) == pytest.approx(eval_european_mr(sol2, 99.0), rel=1e-6)


class TestAmericanSystem:
    def test_boundary_above_strike(self, kou_amer, step_spec):
        assert kou_amer.boundary > step_spec.strike

    def test_smooth_fit_residual(self, kou_amer):
        assert kou_amer.smooth_fit_residual <= 1e-8

    def test_premium_nonnegative_and_dominance(self, kou_amer):
        for x in np.linspace(1.0, 220.0, 45):
            eep = eval_eep_mr(kou_amer, x)
            assert eep >= -1e-10
            assert eval_american_mr(kou_amer, x) >= eval_european_mr(kou_amer.european, x) - 1e-10

    def test_value_match_at_boundary(self, kou_amer, step_spec):
        b = kou_amer.boundary
        gap = b - step_spec.strike - eval_european_mr(kou_amer.european, b)
        assert eval_eep_mr(kou_amer, b * (1 - 1e-10)) == pytest.approx(gap, rel=1e-8)

    def test_split_additivity_of_coefficients(self, kou_amer):
        total, diffusion, jump = kou_amer.coef
        np.testing.assert_allclose(diffusion + jump, total, atol=1e-9)

    def test_split_additivity_of_values(self, kou_amer):
        for x in np.linspace(2.0, 200.0, 25):
            total, diff, jump = eval_eep_split_mr(kou_amer, x)
            assert diff + jump == pytest.approx(total, rel=1e-9, abs=1e-12)

    def test_split_boundary_rows(self, kou_amer, step_spec):
        b = kou_amer.boundary
        total, diff, jump = eval_eep_split_mr(kou_amer, b)
        gap = b - step_spec.strike - eval_european_mr(kou_amer.european, b)
        assert jump == 0.0
        assert diff == pytest.approx(gap, abs=1e-8)
        _, diff_hi, jump_hi = eval_eep_split_mr(kou_amer, b * 1.05)
        assert diff_hi == 0.0 and jump_hi > 0.0

    def test_jump_part_vanishes_without_jumps(self, step_spec):
        m = HejdModel(r=0.05, delta=0.07, sigma=0.2, lam=1e-12,
                      up_weights=(0.7,), up_rates=(25.0,),
                      down_weights=(0.3,), down_rates=(50.0,))
        sol = solve_american_mr(m, step_spec, THETA)
        grid = np.linspace(step_spec.barrier, sol.boundary * 0.999, 20)
        for x in grid:
            total, _diff, jump = eval_eep_split_mr(sol, x)
            assert abs(jump) < 1e-6 * max(total, 1e-6)

    def test_boundary_moves_toward_strike_for_large_theta(self, kou_model, step_spec):
        bounds = [solve_american_mr(kou_model, step_spec, th).boundary for th in (0.7, 2.0, 8.0, 30.0)]
        assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))
        assert bounds[-1] < 110.0

    def test_zero_dividend_raises(self, step_spec):
        m = HejdModel(r=0.05, delta=0.0, sigma=0.2, lam=1.0,
                      up_weights=(0.7,), up_rates=(25.0,),
                      down_weights=(0.3,), down_rates=(50.0,))
        with pytest.raises(NoBoundaryError):
            solve_american_mr(m, step_spec, THETA)

    def test_zero_dividend_price_names_the_abscissa(self, step_spec):
        # the calendar-time price reaches the solver's error, annotated with
        # the abscissa; a zero spot is worth zero without a solve
        m = HejdModel(r=0.05, delta=0.0, sigma=0.2, lam=1.0,
                      up_weights=(0.7,), up_rates=(25.0,),
                      down_weights=(0.3,), down_rates=(50.0,))
        with pytest.raises(NoBoundaryError, match="theta="):
            price_time_domain(m, step_spec, 1.0, 100.0, "amer")
        assert [price_time_domain(m, step_spec, 1.0, 0.0, q) for q in QUANTITIES] == [0.0] * 5


class TestOrderingsAcrossKnockRates:
    def test_monotone_in_knock_rate(self, kou_model):
        # softer knock-out (rho closer to 0) is worth more, everywhere
        rhos = (-1e7, -100.0, -26.34, -1.0, 0.0)
        sols = [solve_european_mr(kou_model, DownOutStepSpec(100.0, 95.0, r), THETA) for r in rhos]
        for x in (80.0, 96.0, 100.0, 115.0):
            vals = [eval_european_mr(s, x) for s in sols]
            assert all(v1 <= v2 + 1e-10 for v1, v2 in zip(vals, vals[1:]))

    def test_barrier_step_standard_sandwich(self, kou_model, step_spec, standard_spec, barrier_spec):
        s_bar = solve_european_mr(kou_model, barrier_spec, THETA)
        s_step = solve_european_mr(kou_model, step_spec, THETA)
        s_std = solve_european_mr(kou_model, standard_spec, THETA)
        for x in (85.0, 97.0, 100.0, 120.0):
            vb = eval_european_mr(s_bar, x)
            vs = eval_european_mr(s_step, x)
            vv = eval_european_mr(s_std, x)
            assert vb <= vs + 1e-12 and vs <= vv + 1e-12


class TestSeasoning:
    def test_identity_cases(self, kou_model, standard_spec):
        # rho 0: accrued occupation time costs nothing
        aged = replace(standard_spec, seasoning=0.3)
        for q in QUANTITIES:
            assert price_time_domain(kou_model, aged, 1.0, 100.0, q) == price_time_domain(
                kou_model, standard_spec, 1.0, 100.0, q)

    def test_accrued_decay(self, kou_model, step_spec):
        aged = replace(step_spec, seasoning=0.1)
        factor = math.exp(aged.knock_rate * aged.seasoning)
        assert factor == pytest.approx(math.exp(-2.634), rel=1e-15)
        for q in QUANTITIES:
            assert price_time_domain(kou_model, aged, 1.0, 100.0, q) == factor * price_time_domain(
                kou_model, step_spec, 1.0, 100.0, q)


class TestSpotValidation:
    @pytest.mark.parametrize("x", [-1.0, math.nan, math.inf])
    def test_spot_outside_domain_raises(self, kou_euro, kou_amer, x):
        for evaluate, sol in ((eval_european_mr, kou_euro), (eval_eep_mr, kou_amer),
                              (eval_eep_split_mr, kou_amer), (eval_american_mr, kou_amer)):
            with pytest.raises(ValueError, match="spot"):
                evaluate(sol, x)

    def test_zero_spot_premium_is_zero(self, kou_amer):
        assert eval_eep_mr(kou_amer, 0.0) == 0.0
        assert eval_eep_split_mr(kou_amer, 0.0) == (0.0, 0.0, 0.0)


class TestEquationResidual:
    def test_european_residual_small(self, kou_model, step_spec, kou_euro):
        grid = np.concatenate([
            np.linspace(70.0, 93.0, 8), np.linspace(96.0, 99.0, 6), np.linspace(101.5, 150.0, 8),
        ])
        resid = oide_residual(kou_model, step_spec, THETA, kou_euro, grid)
        assert resid <= 1e-6

    def test_american_residual_small(self, kou_model, step_spec, kou_amer):
        grid = np.linspace(step_spec.barrier + 0.7, kou_amer.boundary - 0.7, 20)
        resid = oide_residual(kou_model, step_spec, THETA, kou_amer, grid)
        assert resid <= 1e-6

    def test_premium_parts_solve_the_equation(self):
        # the paper's premium split: the diffusion and jump parts each solve
        # the homogeneous randomized equation below the boundary, on
        # criterion 5's markets
        rng = np.random.default_rng(2718)
        worst = [0.0, 0.0]
        for _ in range(10):
            model, spec = random_model(rng), random_spec(rng)
            theta = float(rng.uniform(0.5, 3.0))
            sol = solve_american_mr(model, spec, theta)
            K, L, margin = spec.strike, spec.barrier, 2e-3 * spec.strike
            grid = np.concatenate([
                np.linspace(0.75 * L, L - margin, 6),
                np.linspace(L + margin, K - margin, 7),
                np.linspace(K + margin, sol.boundary - margin, 7),
            ])
            worst = np.maximum(worst, eep_split_residual(model, spec, theta, sol, grid))
        assert max(worst) <= 1e-6, worst

    def test_zero_function_far_from_strike(self, kou_model):
        # identically-zero candidate with an unreachable strike solves the
        # homogeneous equation exactly
        spec = DownOutStepSpec(strike=1e9, barrier=0.0, knock_rate=0.0)
        resid = oide_residual(kou_model, spec, THETA, lambda _x: 0.0, [50.0, 100.0, 200.0])
        assert resid == 0.0

    def test_grid_margin_enforced(self, kou_model, step_spec, kou_euro):
        with pytest.raises(ValueError, match="branch point"):
            oide_residual(kou_model, step_spec, THETA, kou_euro, [step_spec.strike + 1e-6])


class TestConcurrency:
    def test_concurrent_solves_match_sequential(self, kou_model, step_spec):
        # pure solvers with immutable outputs: racing them across maturities
        # must reproduce the sequential values exactly
        from concurrent.futures import ThreadPoolExecutor

        thetas = [0.31 + 0.47 * i for i in range(16)]
        solve_european_mr.cache_clear()
        solve_american_mr.cache_clear()
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(
                lambda th: eval_american_mr(solve_american_mr(kou_model, step_spec, th), 100.0),
                thetas,
            ))
        solve_european_mr.cache_clear()
        solve_american_mr.cache_clear()
        sequential = [
            eval_american_mr(solve_american_mr(kou_model, step_spec, th), 100.0) for th in thetas
        ]
        assert parallel == sequential


class TestZeroBarrierPremiumSplit:
    def test_split_pipeline_without_barrier(self, kou_model):
        vanilla = DownOutStepSpec(strike=100.0, barrier=0.0, knock_rate=0.0)
        sol = solve_american_mr(kou_model, vanilla, THETA)
        cD, _, cFm = sol.european.cols
        assert sol.coef[:, cD].size == 0 and sol.coef[:, cFm].size == 0
        for x in (60.0, 95.0, sol.boundary * 0.98, sol.boundary * 1.3):
            total, diff, jump = eval_eep_split_mr(sol, x)
            assert diff + jump == pytest.approx(total, rel=1e-9, abs=1e-12)
            assert total >= -1e-12



LOW_VOL_KOU = dict(r=0.05, delta=0.07, lam=1.0, up_weights=(0.7,), up_rates=(25.0,),
                   down_weights=(0.3,), down_rates=(50.0,))
LOW_VOL_CASES = [
    pytest.param(HejdModel(sigma=0.01, **LOW_VOL_KOU), DownOutStepSpec(100.0, 80.0, -26.34), id="kou-0.01-L80"),
    pytest.param(HejdModel(sigma=0.01, **LOW_VOL_KOU), DownOutStepSpec(100.0, 95.0, -26.34), id="kou-0.01-L95"),
    pytest.param(HejdModel(sigma=0.02, **LOW_VOL_KOU), DownOutStepSpec(100.0, 80.0, -26.34), id="kou-0.02-L80"),
    pytest.param(HejdModel(r=0.05, delta=0.07, sigma=0.005, lam=0.0), DownOutStepSpec(100.0, 50.0, -26.34),
                 id="lambda-0-0.005-L50"),
]


def _rounding(x: float) -> float:
    """What float evaluation of the order-7 Gaver-Stehfest sum may add to a
    price of scale x: a few roundings of relative size eps per term."""
    return 8.0 * sys.float_info.epsilon * float(sum(abs(z) for z in stehfest_weights(7))) * max(x, 1.0)


class TestLowVolatility:
    """The European system stays well conditioned at low volatility: its
    beta terms are anchored at the strike and its gamma terms at the
    barrier, so no entry grows like (K/L)^|root|."""

    @pytest.mark.parametrize("model, spec", LOW_VOL_CASES)
    def test_prices_with_consistent_quantities(self, model, spec):
        # spots at and above the barrier, below the band of randomized
        # exercise boundaries and in the exercise region
        for x in (spec.barrier, 90.0, 100.0, 105.0, 110.0):
            s = price_summary(model, spec, 1.0, x)
            tol = _rounding(x)
            assert s["euro"] <= s["amer"] + tol, x
            assert s["amer"] >= max(x - spec.strike, 0.0) - tol, x
            assert abs(s["eep"] - (s["eep_diffusion"] + s["eep_jump"])) <= tol, x

    def test_european_price_against_mc(self):
        model, spec = LOW_VOL_CASES[1].values
        engine = price_time_domain(model, spec, 1.0, 100.0, "euro")
        est = mc_euro_step_price(model, spec, 1.0, 100.0, PathConfig(n_paths=200_000, seed=0))
        assert abs(est.value - engine) <= 3.0 * est.std_error, (est.value, est.std_error, engine)


SCAN_GRID = np.geomspace(math.log1p(1e-6), 5.0, 41)
SCAN_CASES = [
    pytest.param("kou", DownOutStepSpec(100.0, 95.0, -26.34), id="kou-step"),
    pytest.param("kou", DownOutStepSpec(100.0, 95.0, -5.0e7), id="kou-knockout"),
    pytest.param("heavy", DownOutStepSpec(100.0, 95.0, -26.34), id="m3n3-step"),
    pytest.param("kou", DownOutStepSpec(100.0, 0.0, 0.0), id="zero-barrier"),
    pytest.param("heavy", DownOutStepSpec(100.0, 0.0, 0.0), id="m3n3-zero-barrier"),
    pytest.param("bs", DownOutStepSpec(100.0, 95.0, -26.34), id="lambda-0"),
]


def _assemble_reference(sol, b_log: float):
    """One-candidate American system, row by row: the reference for the
    stacked assembler (same arithmetic, so results must match bit for bit)."""
    model, theta = sol.model, sol.theta
    r, d, K, k = model.r, model.delta, sol.spec.strike, sol.log_strike
    bM, gM, C = sol.roots_mid.betas, sol.roots_mid.gammas, sol.c_minus
    xi, eta, mm, n = np.asarray(model.up_rates), np.asarray(model.down_rates), model.m, model.n
    eb = math.exp(b_log)
    cg = float(np.sum(C * np.exp(gM * (b_log - k))))
    if sol.log_barrier is None:
        size = mm + 1
        Q, q0, qJ = np.zeros((size, size)), np.zeros(size), np.zeros(size)
        for i in range(mm):
            Q[i, :] = -1.0 / (xi[i] - bM)
            qJ[i] = (float(np.sum(C * np.exp(gM * (b_log - k)) / (xi[i] - gM)))
                     + r * K / (xi[i] * (r + theta)) - d * eb / ((xi[i] - 1.0) * (d + theta)))
        Q[mm, :] = 1.0
        q0[mm] = d * eb / (d + theta) - r * K / (r + theta) - cg
        return Q, q0 + qJ, q0, qJ, (slice(0, 0), slice(0, size), slice(size, size))
    bL, bl = sol.roots_low.betas, b_log - sol.log_barrier
    size = 2 * mm + n + 3
    Q, q0, qJ = np.zeros((size, size)), np.zeros(size), np.zeros(size)
    cD, cF, cFm = slice(0, mm + 1), slice(mm + 1, 2 * mm + 2), slice(2 * mm + 2, size)
    for i in range(mm):
        x_i = xi[i]
        Q[i, cD] = -1.0 / (x_i - bL)
        Q[i, cF] = (np.exp(-bM * bl) - math.exp(-x_i * bl)) / (x_i - bM)
        Q[i, cFm] = (1.0 - np.exp((gM - x_i) * bl)) / (x_i - gM)
        qJ[i] = (float(np.sum(C * math.exp(-x_i * bl) * np.exp(gM * (b_log - k)) / (x_i - gM)))
                 + r * K * math.exp(-x_i * bl) / (x_i * (r + theta))
                 - d * eb * math.exp(-x_i * bl) / ((x_i - 1.0) * (d + theta)))
        Q[mm + i, cF] = -1.0 / (x_i - bM)
        Q[mm + i, cFm] = -np.exp(gM * bl) / (x_i - gM)
        qJ[mm + i] = (float(np.sum(C * np.exp(gM * (b_log - k)) / (x_i - gM)))
                      + r * K / (x_i * (r + theta)) - d * eb / ((x_i - 1.0) * (d + theta)))
    for j in range(n):
        Q[2 * mm + j, cD] = 1.0 / (eta[j] + bL)
        Q[2 * mm + j, cF] = -np.exp(-bM * bl) / (eta[j] + bM)
        Q[2 * mm + j, cFm] = -1.0 / (eta[j] + gM)
    row = 2 * mm + n
    Q[row, cD], Q[row, cF], Q[row, cFm] = 1.0, -np.exp(-bM * bl), -1.0
    Q[row + 1, cF], Q[row + 1, cFm] = 1.0, np.exp(gM * bl)
    q0[row + 1] = d * eb / (d + theta) - r * K / (r + theta) - cg
    Q[row + 2, cD], Q[row + 2, cF], Q[row + 2, cFm] = bL, -bM * np.exp(-bM * bl), -gM
    return Q, q0 + qJ, q0, qJ, (cD, cF, cFm)


def _gap_reference(sol, b_log: float, w: np.ndarray) -> tuple[float, float]:
    """One-candidate smooth-fit gap and its scale (reference)."""
    d, theta = sol.model.delta, sol.theta
    bM, gM = sol.roots_mid.betas, sol.roots_mid.gammas
    eb = math.exp(b_log)
    _, cF, cFm = sol.cols
    if sol.log_barrier is None:
        lhs = float(np.sum(w[cF] * bM))
    else:
        bl = b_log - sol.log_barrier
        lhs = float(np.sum(w[cF] * bM) + np.sum(w[cFm] * gM * np.exp(gM * bl)))
    euro_slope = float(np.sum(sol.c_minus * gM * np.exp(gM * (b_log - sol.log_strike))))
    rhs = d * eb / (d + theta) - euro_slope
    return lhs - rhs, max(1.0, abs(d * eb / (d + theta)), abs(euro_slope))


def _stacked_scan(euro, pts):
    """Smooth-fit gaps of the boundary scan, all candidates in one stack."""
    Q, q, _, _, _ = pricing._assemble(euro, pts)
    (w,), _, _ = pricing._solve_dense(Q, [q], "american system")
    return pricing._smooth_fit_gap(euro, pts, w)[0]


def _loop_scan(euro, pts):
    """Reference: the same gaps, one candidate at a time."""
    return [_stacked_scan(euro, np.array([b]))[0] for b in pts]


class TestStackedBoundaryScan:
    @pytest.mark.parametrize("market, spec", SCAN_CASES)
    def test_gaps_equal_per_candidate_loop(self, market, spec, kou_model, bs_model):
        model = {"kou": kou_model, "heavy": HEAVY, "bs": bs_model}[market]
        for theta in (0.05, math.log(2.0), 1.3, 9.7, 400.0):
            euro = solve_european_mr(model, spec, theta)
            pts = euro.log_strike + SCAN_GRID
            assert _stacked_scan(euro, pts).tolist() == _loop_scan(euro, pts)  # bit for bit

    @pytest.mark.parametrize("market, spec", SCAN_CASES)
    def test_assembly_equals_row_by_row_reference(self, market, spec, kou_model, bs_model):
        model = {"kou": kou_model, "heavy": HEAVY, "bs": bs_model}[market]
        for theta in (0.05, math.log(2.0), 1.3, 9.7, 400.0):
            euro = solve_european_mr(model, spec, theta)
            pts = euro.log_strike + SCAN_GRID
            Q, q, q0, qJ, cols = pricing._assemble(euro, pts)
            (w,), _, _ = pricing._solve_dense(Q, [q], "american system")
            gap, scale = pricing._smooth_fit_gap(euro, pts, w)
            for s, b in enumerate(pts):
                Qr, qr, q0r, qJr, cols_r = _assemble_reference(euro, float(b))
                assert cols == cols_r == euro.cols  # _smooth_fit_gap slices by euro.cols
                for got, want in ((Q[s], Qr), (q[s], qr), (q0[s], q0r), (qJ[s], qJr)):
                    assert np.array_equal(got, want), (theta, s)
                assert (gap[s], scale[s]) == _gap_reference(euro, float(b), w[s]), (theta, s)

    @staticmethod
    def _poison(monkeypatch, bad: dict[float, str]) -> None:
        """Make the system of each candidate in ``bad`` fail the solve check
        named there, wherever the candidate sits in a stack."""
        assemble = pricing._assemble

        def poisoned(sol, b_log):
            Q, q, q0, qJ, cols = assemble(sol, b_log)
            for s, b in enumerate(b_log):
                if bad.get(b) == "inf-matrix":
                    Q[s, 1, 2] = math.inf
                elif bad.get(b) == "nan-rhs":
                    q[s, 0] = math.nan
                elif bad.get(b) == "singular":
                    Q[s, :, 1] = Q[s, :, 0]
            return Q, q, q0, qJ, cols

        monkeypatch.setattr(pricing, "_assemble", poisoned)

    @pytest.mark.parametrize("poison", ["inf-matrix", "nan-rhs", "singular"])
    @pytest.mark.parametrize("j", [0, 7, 40])
    def test_forced_failure_stops_scan_at_candidate(self, monkeypatch, kou_model, step_spec, poison, j):
        euro = solve_european_mr(kou_model, step_spec, THETA)
        pts = euro.log_strike + SCAN_GRID
        check = "condition estimate" if poison == "singular" else "non-finite entries"
        # a later candidate failing an earlier check must not win
        self._poison(monkeypatch, {pts[-1]: "inf-matrix", pts[j]: poison})
        with pytest.raises(SingularSystemError, match=check) as stacked:
            _stacked_scan(euro, pts)
        with pytest.raises(SingularSystemError) as loop:
            _loop_scan(euro, pts)
        assert str(stacked.value) == str(loop.value)

    @pytest.mark.parametrize("where", [3, -1], ids=["before-bracket", "after-bracket"])
    def test_failing_candidate_raises(self, monkeypatch, kou_model, step_spec, kou_amer, where):
        # the Kou boundary at THETA brackets between these two candidates
        euro = solve_european_mr(kou_model, step_spec, THETA)
        pts = euro.log_strike + SCAN_GRID
        assert pts[3] < kou_amer.log_boundary < pts[-1]
        self._poison(monkeypatch, {pts[where]: "singular"})
        with pytest.raises(SingularSystemError, match="american system: condition estimate"):
            solve_american_mr.__wrapped__(kou_model, step_spec, THETA)


class TestBoundarySearchExits:
    """The scan's outcomes other than one bracket on its first grid."""

    @staticmethod
    def _record_stacks(monkeypatch) -> list[int]:
        """Record the stack size of every system _assemble builds."""
        sizes, assemble = [], pricing._assemble

        def recorded(sol, b_log):
            sizes.append(len(b_log))
            return assemble(sol, b_log)

        monkeypatch.setattr(pricing, "_assemble", recorded)
        return sizes

    def test_two_sign_changes_are_reported_in_spot_units(self, monkeypatch, kou_model, step_spec):
        euro = solve_european_mr(kou_model, step_spec, THETA)
        roots = (0.1, 1.0)  # log offsets from the strike

        def two_changes(sol, b_log, w):
            off = b_log - sol.log_strike
            return (off - roots[0]) * (off - roots[1]), np.ones(len(b_log))

        monkeypatch.setattr(pricing, "_smooth_fit_gap", two_changes)
        with pytest.raises(AmbiguousBoundaryError, match="2 smooth-fit sign changes") as err:
            solve_american_mr.__wrapped__(kou_model, step_spec, THETA)
        # spot-unit brackets between neighbouring candidates of the first grid
        spots = [math.exp(b) for b in euro.log_strike + SCAN_GRID]
        pairs = list(zip(spots[:-1], spots[1:]))
        brackets = err.value.brackets
        assert len(brackets) == 2
        for bracket, root in zip(brackets, roots):
            assert bracket in pairs
            assert bracket[0] < step_spec.strike * math.exp(root) < bracket[1]

    def test_no_sign_change_tries_every_grid(self, monkeypatch, kou_model, step_spec):
        solve_european_mr(kou_model, step_spec, THETA)  # cached: builds no system below
        sizes = self._record_stacks(monkeypatch)
        monkeypatch.setattr(pricing, "_smooth_fit_gap", lambda sol, b_log, w: (np.ones(len(b_log)),) * 2)
        with pytest.raises(NoBoundaryError, match="no smooth-fit sign change"):
            solve_american_mr.__wrapped__(kou_model, step_spec, THETA)
        assert sizes == [41, 12, 12, 25]

    @pytest.mark.parametrize("delta, r, theta, stacks, upper", [
        pytest.param(1e-4, 0.05, 1.0, [41, 12], 10.0, id="grid-5-10"),
        pytest.param(1e-5, 0.2, 0.05, [41, 12, 12], 20.0, id="grid-10-20"),
        pytest.param(0.07, 0.05, 1e13, [41, 12, 12, 25], math.log1p(1e-6), id="grid-toward-strike"),
    ])
    def test_expanded_grids_find_far_boundaries(self, monkeypatch, kou_model, step_spec,
                                                 delta, r, theta, stacks, upper):
        model = replace(kou_model, delta=delta, r=r)
        solve_european_mr(model, step_spec, theta)
        sizes = self._record_stacks(monkeypatch)
        sol = solve_american_mr.__wrapped__(model, step_spec, theta)
        K = step_spec.strike
        assert K * math.exp(upper / 2.0) < sol.boundary <= K * math.exp(upper)
        assert sol.smooth_fit_residual <= 1e-8
        # the scan's stacks, then Brent's and the final solve's one-candidate ones
        assert sizes[: len(stacks)] == stacks and set(sizes[len(stacks):]) == {1}


STACK_CASES = [
    pytest.param(KOU, DownOutStepSpec(100.0, 95.0, 0.0), id="kou-standard"),
    pytest.param(KOU, DownOutStepSpec(100.0, 95.0, -26.34), id="kou-step"),
    pytest.param(KOU, DownOutStepSpec(100.0, 95.0, -5.0e7), id="kou-knockout"),
    pytest.param(KOU, DownOutStepSpec(100.0, 0.0, 0.0), id="kou-zero-barrier"),
    pytest.param(HejdModel(r=0.05, delta=0.07, sigma=0.2, lam=0.0), DownOutStepSpec(100.0, 95.0, -26.34),
                 id="lambda-0"),
    *LOW_VOL_CASES,
    # boundaries beyond K*e^5 at every abscissa: the scan's second grid
    pytest.param(replace(KOU, delta=1e-4), DownOutStepSpec(100.0, 95.0, -26.34), id="kou-delta-1e-4"),
    pytest.param(HEAVY, DownOutStepSpec(100.0, 95.0, -26.34), id="m3n3-step"),
]
ABSCISSAE = _abscissae(1.0, 7)


def _fields(sol) -> tuple:
    """Every number an American solution holds, European part included."""
    euro = sol.european
    return (sol.log_boundary, sol.boundary, sol.coef.tolist(), sol.smooth_fit_residual, sol.residual_inf,
            sol.cond_estimate, euro.theta, euro.coef.tolist(), euro.residual_inf, euro.cond_estimate,
            euro.roots_mid.betas.tolist(), euro.roots_mid.gammas.tolist(), euro.slope_inf, euro.offset_inf,
            None if euro.roots_low is None else euro.roots_low.betas.tolist())


class TestStackedAbscissae:
    """A quote solves its 14 abscissae as one stack: one European solve,
    the boundary searches in lockstep, one final solve."""

    @pytest.mark.parametrize("model, spec", STACK_CASES)
    def test_stack_equals_abscissa_alone(self, model, spec):
        alone = []
        for theta in ABSCISSAE:
            solve_european_mr.cache_clear()
            alone.append(solve_american_mr.__wrapped__(model, spec, theta))
        solve_european_mr.cache_clear()
        stacked = solve_american_mr.__wrapped__(model, spec, ABSCISSAE)
        assert [_fields(s) for s in stacked] == [_fields(s) for s in alone]  # bit for bit

    def test_failure_at_one_abscissa_raises_as_alone(self, monkeypatch, kou_model, step_spec):
        # the smooth-fit gap turns NaN at k = 5 only, once Brent's search runs
        theta5, smooth_fit_gap = ABSCISSAE[4], pricing._smooth_fit_gap

        def nan_at_k5(sol, b_log, w):
            gap, scale = smooth_fit_gap(sol, b_log, w)
            if isinstance(sol.theta, np.ndarray):  # a Brent round's stack, not a scan
                gap = np.where(sol.theta == theta5, math.nan, gap)
            return gap, scale

        monkeypatch.setattr(pricing, "_smooth_fit_gap", nan_at_k5)
        solve_european_mr.cache_clear()
        solve_american_mr.cache_clear()
        with pytest.raises(ConvergenceError, match="smooth-fit gap is NaN"):
            solve_american_mr(kou_model, step_spec, ABSCISSAE)
        assert solve_american_mr.cache_info().currsize == 0  # nothing of the failed stack
        with pytest.raises(ConvergenceError) as quote:
            price_summary(kou_model, step_spec, 1.0, 100.0)
        solve_american_mr.cache_clear()
        with pytest.raises(ConvergenceError) as alone:
            gs_invert(lambda th: eval_american_mr(solve_american_mr(kou_model, step_spec, th), 100.0), 1.0)
        assert str(quote.value) == str(alone.value)
        assert str(quote.value).endswith(f"theta={theta5:.9g} (k=5, t=1.0)")
        # abscissae 1-4, solved one by one before k = 5 failed, as alone
        assert solve_american_mr.cache_info().currsize == 4

    def test_a_fault_outside_the_engine_is_not_retried(self, monkeypatch, kou_model, step_spec):
        # only an engine error sends a quote's abscissae one by one through
        # gs_invert; any other fault of the stacked solve propagates
        stack = pricing._stack

        def broken(sols):
            if len(sols) >= 2:
                raise TypeError("no stacks")
            return stack(sols)

        monkeypatch.setattr(pricing, "_stack", broken)
        solve_european_mr.cache_clear()
        solve_american_mr.cache_clear()
        with pytest.raises(TypeError, match="no stacks"):
            price_summary(kou_model, step_spec, 1.0, 100.0)
        # the failed stack's 14 misses in each cache, and no one-abscissa retries
        assert [solve.cache_info()[1:] for solve in (solve_european_mr, solve_american_mr)] == [(14, 256, 0)] * 2

    def test_cold_quote_counts_14_misses_per_cache(self, kou_model, step_spec):
        solve_european_mr.cache_clear()
        solve_american_mr.cache_clear()
        price_summary(kou_model, step_spec, 1.0, 100.0)
        counts = lambda: [solve.cache_info()[:2] for solve in (solve_european_mr, solve_american_mr)]
        assert counts() == [(0, 14), (0, 14)]
        price_summary(kou_model, step_spec, 1.0, 100.0)
        assert counts() == [(0, 14), (14, 14)]  # a warm quote: one lookup per abscissa

    def test_cache_bound_and_failed_solves(self):
        solved = []

        def solve_stack(model, spec, thetas):
            if any(math.isnan(th) for th in thetas):
                raise ValueError("theta must be strictly positive")
            solved.append(thetas)
            return [(model, th) for th in thetas]

        solve = pricing._abscissa_cache(solve_stack)
        assert solve("a", "s", 1.0) == ("a", 1.0) and solve("a", "s", (1.0, 2.0)) == (("a", 1.0), ("a", 2.0))
        assert solved == [(1.0,), (1.0, 2.0)]  # an overlapping stack is solved whole
        assert solve("a", "s", (1.0, 2.0)) == (("a", 1.0), ("a", 2.0)) and len(solved) == 2
        assert solve.cache_info() == (2, 3, 256, 2)  # hits and misses per abscissa, size in stacks
        with pytest.raises(ValueError):
            solve("b", "s", (3.0, math.nan))
        assert solve.cache_info().currsize == 2  # nothing of a failed solve
        solve.cache_clear()
        assert solve.cache_info() == (0, 0, 256, 0)
        solve("a", "s", 1.0)
        for k in range(255):
            solve("c", "s", (float(k), -1.0))
        assert solve.cache_info().currsize == 256
        solve("a", "s", 1.0)  # the stack ("c", (0.0, -1.0)) is now the least recently used
        solve("d", "s", 1.0)  # 257 stacks: that one goes
        assert solve.cache_info().currsize == 256
        solved.clear()
        solve("a", "s", 1.0)
        solve("c", "s", (1.0, -1.0))
        assert solved == []
        solve("c", "s", (0.0, -1.0))
        assert solved == [(0.0, -1.0)]
        assert solve("a", "s", ()) == () and solved == [(0.0, -1.0)]  # an empty stack solves nothing

    def test_cache_counts_hold_under_threads(self):
        # more threads than cores race lookups, inserts and evictions on
        # shared keys: a lost update breaks the per-abscissa counts
        from concurrent.futures import ThreadPoolExecutor

        solved, probing = [], []

        def solve_stack(model, spec, thetas):
            if probing:
                raise LookupError("not cached")
            solved.append((model, thetas))
            return [(model, th) for th in thetas]

        solve = pricing._abscissa_cache(solve_stack)

        def client(i):
            # threads 2k and 2k + 1 ask for the same 25 stacks of 6, twice:
            # 800 stacks, so the bound of 256 evicts
            for j in range(50):
                thetas = (float(i // 2), float(j % 25), 2.0, 3.0, 4.0, 5.0)
                assert solve(j % 5, "s", thetas)[1] == (j % 5, float(j % 25))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for future in [pool.submit(client, i) for i in range(64)]:
                    future.result(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        info = solve.cache_info()
        assert info.hits + info.misses == 64 * 50 * 6 and info.hits > 0
        # every miss solved its stack once, nothing counted twice
        assert info.misses == sum(len(thetas) for _, thetas in solved)
        # currsize is the number of stacks the cache holds: probe each one
        probing.append(True)
        held = 0
        for key, thetas in set(solved):
            try:
                held += solve(key, "s", thetas) == tuple((key, th) for th in thetas)
            except LookupError:
                pass
        assert held == info.currsize == info.maxsize == 256
