"""Root-solver tests: counts, interlacing, residuals, limits, duality shift."""

from __future__ import annotations

import math

import numpy as np
import pytest

from hejdstep import (
    BracketError,
    ConvergenceError,
    HejdModel,
    RootSet,
    dual_model,
    find_roots,
    laplace_exponent,
)
from hejdstep import roots as roots_module
from hejdstep.model import _phi_prime_raw, _phi_raw
from conftest import random_model


class TestKouRoots:
    def test_four_roots_interlaced(self, kou_model):
        roots = find_roots(kou_model, 5.05)
        assert len(roots.betas) == 2 and len(roots.gammas) == 2
        b1, b2 = roots.betas
        g1, g2 = roots.gammas
        assert 0.0 < b1 < 25.0 < b2
        assert g2 < -50.0 < g1 < 0.0

    def test_residuals(self, kou_model):
        for alpha in (0.05, 1.0, 10.0, 100.0):
            roots = find_roots(kou_model, alpha)
            tol = 1e-10 * max(1.0, alpha)
            for t in list(roots.betas) + list(roots.gammas):
                assert abs(laplace_exponent(kou_model, t) - alpha) <= tol

    def test_alpha_must_be_positive(self, kou_model):
        with pytest.raises(ValueError):
            find_roots(kou_model, 0.0)
        with pytest.raises(ValueError):
            find_roots(kou_model, -1.0)


class TestLimits:
    def test_diffusion_limit(self):
        # vanishing intensity: inner roots approach the diffusion quadratic,
        # outer roots collapse onto the poles
        m = HejdModel(r=0.05, delta=0.07, sigma=0.2, lam=1e-12,
                      up_weights=(0.7,), up_rates=(25.0,),
                      down_weights=(0.3,), down_rates=(50.0,))
        alpha = 0.1
        roots = find_roots(m, alpha)
        b = m.r - m.delta - 0.5 * m.sigma**2
        disc = math.sqrt(b * b + 2.0 * m.sigma**2 * alpha)
        quad_pos = (-b + disc) / m.sigma**2
        quad_neg = (-b - disc) / m.sigma**2
        assert roots.betas[0] == pytest.approx(quad_pos, rel=1e-6)
        assert roots.gammas[0] == pytest.approx(quad_neg, rel=1e-6)
        assert roots.betas[1] == pytest.approx(25.0, rel=1e-9)
        assert roots.gammas[1] == pytest.approx(-50.0, rel=1e-9)

    def test_lambda_zero_two_roots(self, bs_model):
        roots = find_roots(bs_model, 1.0)
        assert len(roots.betas) == 1 and len(roots.gammas) == 1
        b = bs_model.drift
        disc = math.sqrt(b * b + 2.0 * bs_model.sigma**2)
        assert roots.betas[0] == pytest.approx((-b + disc) / bs_model.sigma**2, rel=1e-12)

    def test_small_alpha_root_near_zero(self, kou_model):
        roots = find_roots(kou_model, 1e-10)
        smallest = min(roots.betas[0], -roots.gammas[0])
        assert smallest < 1e-8

    def test_huge_alpha_barrier_limit_level(self, kou_model):
        # level used by the knock-out limit rho = -5e7; root locations must
        # stay strictly interlaced even when pinned against the poles
        roots = find_roots(kou_model, 5.0e7 + 5.05)
        assert 0.0 < roots.betas[0] < 25.0 < roots.betas[1]
        assert roots.gammas[1] < -50.0 < roots.gammas[0] < 0.0
        assert roots.betas[1] > 1e4  # sigma-dominated growth


class TestRandomizedProperties:
    def test_count_interlacing_residual(self):
        rng = np.random.default_rng(2024)
        for _ in range(30):
            m = random_model(rng)
            for alpha in (0.05, 1.0, 10.0, 100.0):
                roots = find_roots(m, alpha)
                roots.validate(m)  # strict interlacing + residual bound
                assert len(roots.betas) == m.m + 1
                assert len(roots.gammas) == m.n + 1

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            m = random_model(rng)
            r1 = find_roots(m, 0.7)
            r2 = find_roots(m, 2.9)
            assert np.all(r1.betas < r2.betas)
            assert np.all(r2.gammas < r1.gammas)

    def test_dual_root_shift(self):
        # theta solves Phi(theta)=alpha  =>  1-theta solves Phi_dual = alpha - (r-delta)
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = random_model(rng)
            dual = dual_model(m)
            alpha = 2.0 + m.r
            roots = find_roots(m, alpha)
            target = alpha - (m.r - m.delta)
            for t in list(roots.betas) + list(roots.gammas):
                got = laplace_exponent(dual, 1.0 - t)
                assert got == pytest.approx(target, abs=1e-8 * max(1.0, alpha))


def _phi_numpy(model: HejdModel, theta: float) -> float:
    """Array form of Phi that the scalar kernel replaced: the reference."""
    p, xi = np.asarray(model.up_weights), np.asarray(model.up_rates)
    q, eta = np.asarray(model.down_weights), np.asarray(model.down_rates)
    value = model.drift * theta + 0.5 * model.sigma**2 * theta * theta
    if model.lam > 0.0:
        value += model.lam * (
            float(np.sum(p * xi / (xi - theta)))
            + float(np.sum(q * eta / (eta + theta)))
            - 1.0
        )
    return value


def _phi_prime_numpy(model: HejdModel, theta: float) -> float:
    p, xi = np.asarray(model.up_weights), np.asarray(model.up_rates)
    q, eta = np.asarray(model.down_weights), np.asarray(model.down_rates)
    value = model.drift + model.sigma**2 * theta
    if model.lam > 0.0:
        value += model.lam * (
            float(np.sum(p * xi / (xi - theta) ** 2))
            - float(np.sum(q * eta / (eta + theta) ** 2))
        )
    return value


class TestScalarKernel:
    def test_bit_identical_to_array_form(self, kou_model, bs_model):
        # wide uniform thetas, points a few ulps to 1e-3 off every pole, and
        # the roots themselves, where the solver evaluates most often
        rng = np.random.default_rng(77)
        models = [kou_model, bs_model] + [random_model(rng) for _ in range(40)]
        for model in models:
            thetas = list(rng.uniform(-80.0, 80.0, size=40)) + list(rng.uniform(-1e4, 1e4, size=5))
            for pole in model.poles:
                for rel in (4e-16, 1e-12, 1e-9, 1e-6, 1e-3):
                    thetas += [pole * (1.0 + rel), pole * (1.0 - rel)]
            for alpha in (0.05, 3.0, 1e4):
                roots = find_roots(model, alpha)
                thetas += list(roots.betas) + list(roots.gammas)
            for theta in map(float, thetas):
                assert _phi_raw(model, theta) == _phi_numpy(model, theta), (model, theta)
                assert _phi_prime_raw(model, theta) == _phi_prime_numpy(model, theta), (model, theta)


class TestErrorPaths:
    """The bracketing failures that real markets reach, each with its message."""

    @pytest.mark.parametrize("params, alpha, message", [
        # the negative root sits closer to the pole -1e-4 than a double resolves
        (dict(sigma=0.005, lam=1e-9, up_weights=(0.5,), up_rates=(1.0001,),
              down_weights=(0.5,), down_rates=(1e-4,)), 35.0,
         "no point of the required sign next to pole -0.0001 for alpha=35.0 "
         "(root indistinguishable from the pole at double precision)"),
        # the positive root lies beyond 2**60
        (dict(sigma=1e-150, lam=0.0), 1.0, "outer bracket doubling cap reached (positive side)"),
        # the diffusion-only seed overflows, so the positive root comes back inf
        (dict(sigma=1e-160, lam=0.0), 1.0, "beta[0]=inf escapes (0.0, inf)"),
    ])
    def test_bracket_failures(self, params, alpha, message):
        model = HejdModel(r=0.05, delta=0.07, **params)
        with pytest.raises(BracketError) as info:
            find_roots(model, alpha)
        assert str(info.value) == message

    def test_root_count_must_match_mixture(self, kou_model):
        roots = RootSet(alpha=1.0, betas=np.array([1.0]), gammas=np.array([-1.0, -60.0]), max_residual=0.0)
        with pytest.raises(BracketError) as info:
            roots.validate(kou_model)
        assert str(info.value) == "root count does not match mixture size"

    def test_residual_error_names_the_root_as_a_float(self, monkeypatch, kou_model):
        # every root moved by a relative 1e-12 still interlaces, but the
        # first one's residual then exceeds 1e-12 * alpha
        root = roots_module._root
        monkeypatch.setattr(roots_module, "_root", lambda *args: root(*args) * (1.0 + 1e-12))
        with pytest.raises(ConvergenceError) as info:
            find_roots(kou_model, 5.05)
        message = str(info.value)
        assert message == "residual 1.200e-11 at root 15.70488725860194 exceeds tolerance 5.050e-12"
        assert "np.float64" not in message

    def test_bisection_exits(self, kou_model):
        # f is exactly 0 at lo: lo is the root; no sign change: no root
        assert roots_module._bisect_newton(kou_model, _phi_raw(kou_model, 1.0), 1.0, 2.0) == 1.0
        with pytest.raises(BracketError) as info:
            roots_module._bisect_newton(kou_model, 1e6, 1.0, 2.0)
        assert str(info.value) == "no sign change in (1.0, 2.0) for alpha=1000000.0"
