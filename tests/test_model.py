"""Model-layer tests: exponents, martingale drift, duality, generator."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from hejdstep import (
    DownOutStepSpec,
    HejdModel,
    PoleError,
    dual_model,
    laplace_exponent,
)
from hejdstep.model import _phi_prime_raw
from conftest import random_model
from oracles import QuadratureError, generator_apply, levy_exponent


class TestModelValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            HejdModel(r=0.05, delta=0.0, sigma=0.2, lam=1.0,
                      up_weights=(0.7,), up_rates=(25.0,),
                      down_weights=(0.4,), down_rates=(50.0,))

    def test_up_rate_must_exceed_one(self):
        with pytest.raises(ValueError, match="exceed 1"):
            HejdModel(r=0.05, delta=0.0, sigma=0.2, lam=1.0,
                      up_weights=(1.0,), up_rates=(0.9,))

    def test_rates_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            HejdModel(r=0.05, delta=0.0, sigma=0.2, lam=1.0,
                      up_weights=(0.5, 0.5), up_rates=(30.0, 25.0))

    def test_sigma_positive(self):
        with pytest.raises(ValueError, match="sigma"):
            HejdModel(r=0.05, delta=0.0, sigma=0.0, lam=0.0)

    def test_lambda_zero_requires_empty_mixture(self):
        with pytest.raises(ValueError, match="empty"):
            HejdModel(r=0.05, delta=0.0, sigma=0.2, lam=0.0,
                      up_weights=(1.0,), up_rates=(25.0,))

    def test_one_sided_mixture_allowed(self):
        m = HejdModel(r=0.05, delta=0.02, sigma=0.3, lam=2.0,
                      up_weights=(1.0,), up_rates=(10.0,))
        assert m.n == 0 and m.m == 1
        assert laplace_exponent(m, 1.0) == pytest.approx(m.r - m.delta, abs=1e-12)

    @pytest.mark.parametrize("params, message", [
        (dict(r=math.nan), "model scalars must be finite"),
        (dict(sigma=math.inf), "model scalars must be finite"),
        (dict(r=-0.01), "r and delta must be non-negative"),
        (dict(delta=-0.01), "r and delta must be non-negative"),
        (dict(lam=-1.0), "lam must be non-negative"),
        (dict(up_weights=(0.4, 0.3)), "up_weights and up_rates must have equal length"),
        (dict(down_rates=(50.0, 60.0)), "down_weights and down_rates must have equal length"),
        (dict(up_weights=(), up_rates=(), down_weights=(), down_rates=()), "lam > 0 requires a jump mixture"),
        (dict(up_weights=(1.0,), down_weights=(0.0,)), "mixture weights must be strictly positive"),
        (dict(down_weights=(0.2, 0.1), down_rates=(50.0, 40.0)), "down_rates must be strictly increasing"),
        (dict(down_rates=(0.0,)), "down_rates must be positive"),
        # the root finder divides by sigma**2 (1e-160 squares to a subnormal and stays valid)
        (dict(sigma=1e-200), "sigma**2 underflows to zero at sigma = 1e-200"),
        (dict(up_rates=(math.inf,)), "mixture weights and rates must be finite"),
        (dict(up_weights=(math.nan,)), "mixture weights and rates must be finite"),
        (dict(down_rates=(math.nan,)), "mixture weights and rates must be finite"),
    ])
    def test_invalid_parameters_rejected(self, params, message):
        kou = dict(r=0.05, delta=0.07, sigma=0.2, lam=1.0, up_weights=(0.7,), up_rates=(25.0,),
                   down_weights=(0.3,), down_rates=(50.0,))
        with pytest.raises(ValueError) as info:
            HejdModel(**{**kou, **params})
        assert str(info.value) == message

    def test_contract_validation(self):
        with pytest.raises(ValueError, match="contract parameters must be finite"):
            DownOutStepSpec(strike=100.0, barrier=95.0, knock_rate=-math.inf)
        with pytest.raises(ValueError):
            DownOutStepSpec(strike=100.0, barrier=110.0)  # barrier above strike
        with pytest.raises(ValueError, match="strike must be strictly positive, got 0.0"):
            DownOutStepSpec(strike=0.0, barrier=0.0)
        with pytest.raises(ValueError):
            DownOutStepSpec(strike=100.0, barrier=95.0, knock_rate=1.0)  # knock-in
        with pytest.raises(ValueError):
            DownOutStepSpec(strike=100.0, barrier=95.0, seasoning=-0.1)


class TestLaplaceExponent:
    def test_vanishes_at_zero(self, kou_model):
        assert laplace_exponent(kou_model, 0.0) == 0.0

    def test_martingale_condition(self, kou_model, bs_model):
        for m in (kou_model, bs_model):
            assert laplace_exponent(m, 1.0) == pytest.approx(m.r - m.delta, abs=1e-12)

    def test_martingale_condition_random_models(self):
        rng = np.random.default_rng(101)
        for _ in range(25):
            m = random_model(rng)
            assert laplace_exponent(m, 1.0) == pytest.approx(m.r - m.delta, abs=1e-11)

    def test_kou_value_against_exact_rational_arithmetic(self, kou_model):
        # independent oracle: same formula evaluated exactly over rationals
        r, d, sig, lam = map(Fraction, ("0.05", "0.07", "0.2", "1"))
        p, xi, q, eta = map(Fraction, ("0.7", "25", "0.3", "50"))
        theta = Fraction(1, 2)
        zeta = p * xi / (xi - 1) + q * eta / (eta + 1) - 1
        drift = r - d - lam * zeta - sig * sig / 2
        exact = drift * theta + sig * sig * theta * theta / 2 + lam * (
            p * xi / (xi - theta) + q * eta / (eta + theta) - 1
        )
        got = laplace_exponent(kou_model, 0.5)
        assert got == pytest.approx(float(exact), rel=1e-14)

    def test_pole_error(self, kou_model):
        with pytest.raises(PoleError):
            laplace_exponent(kou_model, 25.0)
        with pytest.raises(PoleError):
            laplace_exponent(kou_model, -50.0 * (1.0 + 1e-15))

    def test_convex_between_innermost_poles(self, kou_model):
        thetas = np.linspace(-49.0, 24.0, 250)
        vals = np.array([laplace_exponent(kou_model, t) for t in thetas])
        second = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
        assert np.all(second > 0.0)

    def test_blackscholes_limit(self):
        m = HejdModel(r=0.05, delta=0.07, sigma=0.2, lam=1e-12,
                      up_weights=(0.7,), up_rates=(25.0,),
                      down_weights=(0.3,), down_rates=(50.0,))
        quad = lambda t: (m.r - m.delta - 0.5 * m.sigma**2) * t + 0.5 * m.sigma**2 * t * t
        for t in (-5.0, -1.0, 0.3, 1.0, 7.0):
            assert laplace_exponent(m, t) == pytest.approx(quad(t), abs=1e-9)

    def test_derivative_matches_difference_quotient(self, kou_model):
        h = 1e-6
        for t in (-10.0, 0.2, 3.0, 20.0):
            fd = (laplace_exponent(kou_model, t + h) - laplace_exponent(kou_model, t - h)) / (2 * h)
            assert _phi_prime_raw(kou_model, t) == pytest.approx(fd, rel=1e-7)


class TestLevyExponent:
    def test_vanishes_at_zero(self, kou_model):
        assert levy_exponent(kou_model, 0.0) == 0.0

    def test_consistency_with_laplace(self, kou_model):
        # Psi(-i theta) = -Phi(theta) on the strip
        for t in (-3.0, 0.5, 1.0, 10.0):
            got = levy_exponent(kou_model, -1j * t)
            assert got.real == pytest.approx(-laplace_exponent(kou_model, t), rel=1e-12, abs=1e-12)
            assert got.imag == pytest.approx(0.0, abs=1e-12)

    def test_martingale_in_levy_form(self, kou_model):
        got = levy_exponent(kou_model, -1j)
        assert got.real == pytest.approx(-(kou_model.r - kou_model.delta), abs=1e-12)

    def test_real_part_nonnegative(self, kou_model):
        for t in np.linspace(-50.0, 50.0, 101):
            assert levy_exponent(kou_model, t).real >= -1e-12


class TestDualModel:
    def test_kou_rates(self, kou_model):
        dual = dual_model(kou_model)
        assert dual.up_rates == (51.0,)
        assert dual.down_rates == (24.0,)
        assert dual.r == kou_model.delta and dual.delta == kou_model.r

    def test_involution(self, kou_model):
        rng = np.random.default_rng(77)
        models = [kou_model] + [random_model(rng) for _ in range(10)]
        for m in models:
            back = dual_model(dual_model(m))
            assert back.r == pytest.approx(m.r, abs=1e-10)
            assert back.delta == pytest.approx(m.delta, abs=1e-10)
            assert back.lam == pytest.approx(m.lam, rel=1e-10)
            np.testing.assert_allclose(back.up_rates, m.up_rates, atol=1e-10)
            np.testing.assert_allclose(back.down_rates, m.down_rates, atol=1e-10)
            np.testing.assert_allclose(back.up_weights, m.up_weights, atol=1e-10)
            np.testing.assert_allclose(back.down_weights, m.down_weights, atol=1e-10)

    def test_self_dual_fixed_point(self):
        # jump measure fixed point: xi = eta + 1 with p*xi = q*eta, plus r = delta
        eta, xi = 30.0, 31.0
        p = eta / (xi + eta)
        m = HejdModel(r=0.05, delta=0.05, sigma=0.25, lam=2.0,
                      up_weights=(p,), up_rates=(xi,),
                      down_weights=(1.0 - p,), down_rates=(eta,))
        assert m.zeta == pytest.approx(0.0, abs=1e-14)
        dual = dual_model(m)
        assert dual.up_rates == (xi,) and dual.down_rates == (eta,)
        assert dual.up_weights[0] == pytest.approx(p, abs=1e-14)
        assert dual.lam == pytest.approx(m.lam, rel=1e-14)

    def test_dual_intensity_scaling(self, kou_model):
        want = kou_model.lam * (1.0 + kou_model.zeta)
        assert dual_model(kou_model).lam == pytest.approx(want, rel=1e-14)

    def test_dual_laplace_exponent_shift(self, kou_model):
        # Phi_dual(theta) = Phi(1 - theta) - Phi(1)
        dual = dual_model(kou_model)
        shift = kou_model.r - kou_model.delta
        for t in (-2.0, 0.3, 0.9, 4.0):
            lhs = laplace_exponent(dual, t)
            rhs = laplace_exponent(kou_model, 1.0 - t) - shift
            assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)

    def test_lambda_zero_dual(self, bs_model):
        dual = dual_model(bs_model)
        assert dual.lam == 0.0 and dual.m == dual.n == 0
        assert dual.r == bs_model.delta


class TestGeneratorApply:
    def test_kills_constants(self, kou_model):
        got = generator_apply(kou_model, lambda _x: 3.7, 0.1)
        assert got == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("theta", [-25.0, 0.5, 1.0, 13.0])
    def test_exponential_eigenfunctions(self, kou_model, theta):
        # e^{theta x} is an eigenfunction with eigenvalue Phi(theta)
        x0 = 0.3
        got = generator_apply(kou_model, lambda x: math.exp(theta * x), x0,
                              growth_pos=max(theta, 0.0) + 0.5, growth_neg=max(-theta, 0.0) + 0.5)
        want = math.exp(theta * x0) * laplace_exponent(kou_model, theta)
        assert got == pytest.approx(want, rel=1e-7, abs=1e-8)

    def test_martingale_eigenfunction(self, kou_model):
        got = generator_apply(kou_model, math.exp, 0.0, growth_pos=1.5)
        assert got == pytest.approx(kou_model.r - kou_model.delta, rel=1e-7)

    def test_lambda_zero_is_pure_diffusion(self, bs_model):
        got = generator_apply(bs_model, lambda x: x * x, 0.5)
        want = bs_model.sigma**2 + bs_model.drift * 1.0  # V''=2, V'=2x at x=0.5
        assert got == pytest.approx(want, abs=1e-9)

    def test_nonintegrable_growth_bound_rejected(self, kou_model):
        with pytest.raises(QuadratureError, match="not integrable"):
            # growth bound above the slowest up rate
            generator_apply(kou_model, math.exp, 0.0, growth_pos=30.0)
