"""Monte-Carlo oracle tests: law checks, determinism, bias, duality."""

from __future__ import annotations

import math
import os
import sys
import threading

import numpy as np
import pytest

from hejdstep import (
    BudgetError,
    DownOutStepSpec,
    HejdModel,
    PathConfig,
    mc_euro_step_price,
    price_time_domain,
    simulate_terminal,
    verify_duality,
)
from hejdstep import montecarlo

from conftest import HEAVY


class TestPathConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PathConfig(n_paths=5000)
        with pytest.raises(ValueError):
            PathConfig(n_paths=10_000, dt=2e-3)
        with pytest.raises(ValueError, match="batch_size must be at least 2"):
            PathConfig(n_paths=10_000, batch_size=1)
        with pytest.raises(ValueError, match="n_paths must be an integer, got 10000.5"):
            PathConfig(n_paths=10000.5)
        with pytest.raises(ValueError, match="batch_size must be an integer, got 4096.0"):
            PathConfig(n_paths=10_000, batch_size=4096.0)

    @pytest.mark.parametrize("seed", [-1, 2.5, "3", True])
    def test_seed_must_be_a_non_negative_int(self, seed):
        with pytest.raises(ValueError, match="seed"):
            PathConfig(n_paths=10_000, seed=seed)

    def test_budget(self, kou_model):
        # 1e5 paths * 1e8 steps exceed the 4e9 budget; the check raises
        # before any path array is allocated
        cfg = PathConfig(n_paths=100_000, dt=1e-3)
        with pytest.raises(BudgetError):
            simulate_terminal(kou_model, 100.0, 95.0, 1e5, cfg)


    @pytest.mark.parametrize("x", [0.0, math.nan, math.inf])
    def test_spot_must_be_finite_and_positive(self, kou_model, x):
        with pytest.raises(ValueError, match="spot"):
            simulate_terminal(kou_model, x, 95.0, 0.1, PathConfig(n_paths=10_000))

    @pytest.mark.parametrize("horizon", [math.nan, math.inf])
    def test_horizon_must_be_finite(self, kou_model, step_spec, horizon):
        cfg = PathConfig(n_paths=10_000)
        with pytest.raises(ValueError, match="horizon"):
            simulate_terminal(kou_model, 100.0, 95.0, horizon, cfg)
        with pytest.raises(ValueError, match="horizon"):
            mc_euro_step_price(kou_model, step_spec, horizon, 100.0, cfg)

    def test_nan_barrier_rejected(self, kou_model):
        # a NaN barrier compares false with every price: no path would ever be below it
        with pytest.raises(ValueError, match="barrier"):
            simulate_terminal(kou_model, 100.0, math.nan, 0.1, PathConfig(n_paths=10_000))


class TestTerminalLaw:
    def test_martingale_no_jumps(self, bs_model):
        cfg = PathConfig(n_paths=40_000, dt=1e-3, seed=11)
        s, _ = simulate_terminal(bs_model, 100.0, 95.0, 0.25, cfg)
        want = 100.0 * math.exp((bs_model.r - bs_model.delta) * 0.25)
        se = s.std(ddof=1) / math.sqrt(len(s))
        assert abs(s.mean() - want) <= 3.0 * se

    def test_martingale_with_jumps(self, kou_model):
        cfg = PathConfig(n_paths=60_000, dt=1e-3, seed=12)
        s, _ = simulate_terminal(kou_model, 100.0, 95.0, 0.5, cfg)
        want = 100.0 * math.exp((kou_model.r - kou_model.delta) * 0.5)
        se = s.std(ddof=1) / math.sqrt(len(s))
        assert abs(s.mean() - want) <= 3.5 * se

    def test_occupation_bounds(self, kou_model):
        cfg = PathConfig(n_paths=10_000, dt=1e-3, seed=13)
        _, occ = simulate_terminal(kou_model, 100.0, 101.0, 0.2, cfg)
        assert np.all(occ >= 0.0) and np.all(occ <= 0.2)
        assert occ.max() > 0.0

    def test_zero_barrier_never_occupied(self, kou_model):
        cfg = PathConfig(n_paths=10_000, dt=1e-3, seed=14)
        _, occ = simulate_terminal(kou_model, 100.0, 0.0, 0.1, cfg)
        assert np.all(occ == 0.0)

    @pytest.mark.parametrize("horizon", [0.1, 1e-16])
    def test_infinite_barrier_always_occupied(self, kou_model, horizon):
        cfg = PathConfig(n_paths=10_000, dt=1e-3, seed=15)
        _, occ = simulate_terminal(kou_model, 100.0, math.inf, horizon, cfg)
        assert np.all(occ == horizon)


class _ZeroNormals:
    """A generator whose normal draws are zero; every other draw comes from rng."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def standard_normal(self, size=None, out=None):
        if out is None:
            return np.zeros(size)
        out.fill(0.0)
        return out


class TestStepLoop:
    def test_matches_a_per_path_event_walk(self, monkeypatch):
        # with zero normal draws a path is its drift plus its jumps, so the
        # step loop's exact sub-steps must agree with a plain walk over the
        # merged grid of dt multiples and that path's jump epochs: occupation
        # is added at the left end of each interval, each jump at its epoch.
        # The second input puts one jump an ulp below each dt multiple k * dt
        # whose quotient by dt still truncates to k, on its own path: a step
        # rule of int(t / dt) would sub-step it from after its epoch
        nb, dt, horizon, seed = 256, 1e-3, 0.25, 3
        x_barrier = math.log(95.0 / 100.0)
        n_steps = int(math.ceil(horizon / dt - 1e-12))
        grid = [min(k * dt, horizon) for k in range(1, n_steps + 1)]
        below = [e for k in range(1, n_steps) if int((e := np.nextafter(k * dt, 0.0)) / dt) == k]
        assert len(below) == 10
        ulp_jumps = (np.array(below), np.full(len(below), 0.01), np.arange(len(below)))
        for seeded in (True, False):
            if not seeded:
                monkeypatch.setattr(montecarlo, "_draw_jumps", lambda *args: ulp_jumps)
            X, occ = montecarlo._simulate_batch(HEAVY, x_barrier, np.array([0.0, *grid]), nb,
                                                _ZeroNormals(np.random.default_rng(seed)))
            times, sizes, paths = montecarlo._draw_jumps(HEAVY, np.random.default_rng(seed), nb, horizon)
            want_x, want_occ = np.zeros(nb), np.zeros(nb)
            for p in range(nb):
                jumps = dict(zip(times[paths == p], sizes[paths == p]))
                x = o = t = 0.0
                for epoch in sorted({*grid, *jumps}):
                    if x < x_barrier:
                        o += epoch - t
                    x += HEAVY.drift * (epoch - t) + jumps.get(epoch, 0.0)
                    t = epoch
                want_x[p], want_occ[p] = x, o
            np.testing.assert_allclose(X, want_x, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(occ, want_occ, rtol=0.0, atol=1e-12)
            if seeded:
                # the walk covers sub-steps of rank 1: some path jumps twice within one step
                steps = list(zip(paths, (times / dt).astype(np.int64)))
                assert len(set(steps)) < len(steps)
                assert 0.0 < occ.max() and occ.min() < horizon


class TestDeterminism:
    def test_bit_identical_reruns(self, kou_model, step_spec):
        cfg = PathConfig(n_paths=20_000, dt=1e-3, seed=99)
        a = mc_euro_step_price(kou_model, step_spec, 0.3, 100.0, cfg)
        b = mc_euro_step_price(kou_model, step_spec, 0.3, 100.0, cfg)
        assert a.value == b.value and a.std_error == b.std_error

    def test_seed_changes_draws(self, kou_model, step_spec):
        a = mc_euro_step_price(kou_model, step_spec, 0.3, 100.0, PathConfig(n_paths=20_000, seed=1))
        b = mc_euro_step_price(kou_model, step_spec, 0.3, 100.0, PathConfig(n_paths=20_000, seed=2))
        assert a.value != b.value

    def test_schedule_invariance(self, monkeypatch, bs_model, kou_model):
        # threaded batches must reproduce a serial run of the same batches
        # bit for bit; 20_000 paths in batches of 8192 leave an uneven last batch
        mix = HejdModel(r=0.03, delta=0.01, sigma=0.3, lam=10.0,
                        up_weights=(0.2, 0.15, 0.1), up_rates=(10.0, 20.0, 40.0),
                        down_weights=(0.25, 0.2, 0.1), down_rates=(5.0, 15.0, 30.0))
        threads_before = threading.active_count()
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for model in (bs_model, kou_model, mix):
                cfg = PathConfig(n_paths=20_000, seed=8, batch_size=8192)
                runs = []
                for cpus in (1, 4):
                    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
                    runs.append(simulate_terminal(model, 100.0, 99.0, 0.05, cfg, stream=1))
                (s1, o1), (s4, o4) = runs
                assert s1.tobytes() == s4.tobytes() and o1.tobytes() == o4.tobytes()
                assert 0.0 < o1.max()
        finally:
            sys.setswitchinterval(switch)
        assert threading.active_count() == threads_before

    def test_usable_cpus_without_affinity(self, monkeypatch):
        # where the OS keeps no affinity mask every CPU counts, and at least one
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert montecarlo._usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert montecarlo._usable_cpus() == 1

    def test_helper_failure_reaches_caller(self, monkeypatch, kou_model):
        # every batch runs on a pool thread and fails: the exception of a
        # failing batch reaches the caller, and no pool thread is left behind
        def failing_batch(*args):
            raise FloatingPointError("batch failed")

        threads_before = threading.active_count()
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(montecarlo, "_simulate_batch", failing_batch)
        cfg = PathConfig(n_paths=40_000, batch_size=8192)
        with pytest.raises(FloatingPointError, match="batch failed"):
            simulate_terminal(kou_model, 100.0, 95.0, 0.01, cfg)
        assert threading.active_count() == threads_before


class TestPricingAgreement:
    def test_vanilla_matches_engine(self, kou_model):
        spec = DownOutStepSpec(strike=100.0, barrier=95.0, knock_rate=0.0)
        cfg = PathConfig(n_paths=100_000, dt=1e-3, seed=21)
        est = mc_euro_step_price(kou_model, spec, 1.0, 100.0, cfg)
        engine = price_time_domain(kou_model, spec, 1.0, 100.0, "euro")
        assert abs(est.value - engine) <= 3.0 * est.std_error

    def test_step_matches_engine(self, kou_model, step_spec):
        cfg = PathConfig(n_paths=100_000, dt=1e-3, seed=22)
        est = mc_euro_step_price(kou_model, step_spec, 1.0, 100.0, cfg)
        engine = price_time_domain(kou_model, step_spec, 1.0, 100.0, "euro")
        assert abs(est.value - engine) <= 3.0 * est.std_error

    def test_seasoning_in_payoff(self, kou_model):
        fresh = DownOutStepSpec(100.0, 95.0, -26.34)
        aged = DownOutStepSpec(100.0, 95.0, -26.34, seasoning=0.05)
        cfg = PathConfig(n_paths=10_000, dt=1e-3, seed=23)
        a = mc_euro_step_price(kou_model, fresh, 0.2, 100.0, cfg)
        b = mc_euro_step_price(kou_model, aged, 0.2, 100.0, cfg)
        assert b.value == pytest.approx(math.exp(-26.34 * 0.05) * a.value, rel=1e-12)

    def test_occupation_grid_bias_below_one_se(self, kou_model, step_spec):
        # halving the occupation grid moves the estimate by less than the
        # one-standard-error noise floor of a 1e5-path run; measured at 4e5
        # paths so the comparison noise does not swamp the discretization term
        coarse = mc_euro_step_price(kou_model, step_spec, 0.5, 100.0,
                                    PathConfig(n_paths=400_000, dt=1e-3, seed=7))
        fine = mc_euro_step_price(kou_model, step_spec, 0.5, 100.0,
                                  PathConfig(n_paths=400_000, dt=5e-4, seed=7))
        se_at_1e5 = coarse.std_error * 2.0
        assert abs(coarse.value - fine.value) <= se_at_1e5


class TestDuality:
    def test_no_jump_duality(self, bs_model, step_spec):
        cfg = PathConfig(n_paths=60_000, dt=1e-3, seed=41)
        report = verify_duality(bs_model, step_spec, 0.5, 100.0, cfg)
        assert abs(report.z_score) <= 3.0

    def test_kou_duality(self, kou_model, step_spec):
        cfg = PathConfig(n_paths=60_000, dt=1e-3, seed=42)
        report = verify_duality(kou_model, step_spec, 0.5, 100.0, cfg)
        assert abs(report.z_score) <= 3.0

    def test_self_dual_model_same_law(self, step_spec):
        # fixed point of the dual transform: both sides simulate identical dynamics
        from hejdstep import HejdModel, dual_model

        eta, xi = 30.0, 31.0
        p = eta / (xi + eta)
        m = HejdModel(r=0.05, delta=0.05, sigma=0.25, lam=2.0,
                      up_weights=(p,), up_rates=(xi,),
                      down_weights=(1.0 - p,), down_rates=(eta,))
        d = dual_model(m)
        cfg = PathConfig(n_paths=10_000, dt=1e-3, seed=43)
        s1, _ = simulate_terminal(m, 100.0, 95.0, 0.1, cfg)
        s2, _ = simulate_terminal(d, 100.0, 95.0, 0.1, cfg)
        np.testing.assert_allclose(s1, s2, rtol=1e-12)
