"""Monte-Carlo oracle: path simulation, step-call pricing, duality check.

Paths are exact in law: jump counts are Poisson, jump epochs are order
statistics of uniforms (the same law as an exponential clock), jump marks are
drawn from the exponential mixture, and Brownian increments are sampled
exactly on the merged grid of jump epochs and dt multiples.  The occupation
time below the barrier is accumulated with the left-endpoint rule on that
merged grid.  Randomness comes from counter-based Philox streams keyed by
(seed, stream, batch), so results are bit-reproducible for a fixed
configuration regardless of batch scheduling.  Each path is one plain
sample (no variance reduction), and one run takes at most 4e9 path steps.

Batches run on a thread pool of workers = min(batches, CPUs in the
process's affinity mask, else os.cpu_count()) threads.  numpy releases the
interpreter lock in the normal fills and array arithmetic that do the work.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError
from .model import DownOutStepSpec, HejdModel, dual_model

__all__ = [
    "PathConfig",
    "McEstimate",
    "DualityReport",
    "simulate_terminal",
    "mc_euro_step_price",
    "verify_duality",
]

_MAX_GRID_POINTS = 4.0e9  # cap on n_paths * ceil(T/dt), the path steps of one run


@dataclass(frozen=True)
class PathConfig:
    """Simulation controls.

    ``n_paths`` counts returned paths, simulated ``batch_size`` at a time.
    A run may take at most 4e9 path steps: n_paths * ceil(T/dt) above that
    raises BudgetError before anything is allocated.
    """

    n_paths: int
    dt: float = 1e-3
    seed: int = 0
    batch_size: int = 1 << 17

    def __post_init__(self) -> None:
        if self.n_paths < 10_000:
            raise ValueError("n_paths must be at least 10_000")
        if not 0.0 < self.dt <= 1e-3:
            raise ValueError("dt must lie in (0, 1e-3] years")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.batch_size < 2:
            raise ValueError("batch_size must be at least 2")


@dataclass(frozen=True)
class McEstimate:
    value: float
    std_error: float


@dataclass(frozen=True)
class DualityReport:
    """Both sides of the call-put duality with their pooled deviation."""

    call: McEstimate
    dual_put: McEstimate
    pooled_se: float
    z_score: float


def _rng(seed: int, stream: int, batch: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, stream, batch))))


def _draw_jumps(model: HejdModel, rng: np.random.Generator, n: int, horizon: float):
    """Unsorted (times, sizes, path_ids) of the jumps of n paths on [0, horizon]."""
    counts = rng.poisson(model.lam * horizon, size=n)
    total = int(counts.sum())
    times = rng.random(total) * horizon
    weights = np.array(model.up_weights + model.down_weights)
    rates = np.array(model.up_rates + model.down_rates)
    comp = np.searchsorted(np.cumsum(weights), rng.random(total), side="right")
    comp = np.minimum(comp, len(weights) - 1)
    magnitude = rng.standard_exponential(total) / rates[comp]
    sizes = np.where(comp < model.m, magnitude, -magnitude)
    return times, sizes, np.repeat(np.arange(n, dtype=np.int64), counts)


def _advance_jump_paths(
    X: np.ndarray,
    occ: np.ndarray,
    jp: np.ndarray,
    path_slice: np.ndarray,
    times_slice: np.ndarray,
    sizes_slice: np.ndarray,
    t0: float,
    t1: float,
    drift: float,
    sigma: float,
    x_barrier: float,
    rng: np.random.Generator,
) -> None:
    """Exact sub-stepping of the paths that jump inside (t0, t1]."""
    pos = np.searchsorted(jp, path_slice)
    cur_t = np.full(len(jp), t0)
    # rank of each jump within its (path, step) group
    first_idx = np.searchsorted(path_slice, jp)
    rank = np.arange(len(path_slice)) - first_idx[pos]
    max_rank = int(rank.max()) if len(rank) else -1
    for rnk in range(max_rank + 1):
        sel = rank == rnk
        p_sel = pos[sel]
        dt_sub = times_slice[sel] - cur_t[p_sel]
        z = rng.standard_normal(int(sel.sum()))
        paths = jp[p_sel]
        left = X[paths]
        occ[paths] += dt_sub * (left < x_barrier)
        X[paths] = left + drift * dt_sub + sigma * np.sqrt(dt_sub) * z + sizes_slice[sel]
        cur_t[p_sel] = times_slice[sel]
    dt_fin = t1 - cur_t
    z = rng.standard_normal(len(jp))
    left = X[jp]
    occ[jp] += dt_fin * (left < x_barrier)
    X[jp] = left + drift * dt_fin + sigma * np.sqrt(dt_fin) * z


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _simulate_batch(
    model: HejdModel,
    x_barrier: float,
    horizon: float,
    dt: float,
    n_steps: int,
    nb: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Log-price increments X and occupation times of one batch of nb paths."""
    drift, sigma = model.drift, model.sigma
    X = np.zeros(nb)
    occ = np.zeros(nb)
    jt, js, jpaths = _draw_jumps(model, rng, nb, horizon)
    jstep = np.minimum((jt / dt).astype(np.int64), n_steps - 1)
    order = np.lexsort((jt, jpaths, jstep))
    jt, js, jpaths, jstep = jt[order], js[order], jpaths[order], jstep[order]
    step_bounds = np.searchsorted(jstep, np.arange(n_steps + 1))

    below = np.empty(nb, dtype=bool)
    zbuf = np.empty(nb)
    for k in range(n_steps):
        t0 = k * dt
        t1 = min((k + 1) * dt, horizon)
        h = t1 - t0
        lo, hi = step_bounds[k], step_bounds[k + 1]
        if hi > lo:
            # the lexsort orders each step's jumps by path, so the distinct
            # jumping paths are where the path index changes
            seg = jpaths[lo:hi]
            jp = seg[np.concatenate(([True], seg[1:] != seg[:-1]))]
            x_old = X[jp]
            occ_old = occ[jp]
        # flat update of every path; jump paths are rolled back below
        rng.standard_normal(out=zbuf)
        np.less(X, x_barrier, out=below)
        np.add(occ, h, out=occ, where=below)
        # keep this rounding order (z*scale, + drift*h, X +=):
        # tools/fingerprint.py pins the bits of fixed-seed estimates
        np.multiply(zbuf, sigma * math.sqrt(h), out=zbuf)
        zbuf += drift * h
        X += zbuf
        if hi > lo:
            X[jp] = x_old
            occ[jp] = occ_old
            _advance_jump_paths(
                X, occ, jp, jpaths[lo:hi], jt[lo:hi], js[lo:hi],
                t0, t1, drift, sigma, x_barrier, rng,
            )

    np.clip(occ, 0.0, horizon, out=occ)
    return X, occ


def simulate_terminal(
    model: HejdModel,
    x: float,
    barrier: float,
    horizon: float,
    cfg: PathConfig,
    stream: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Terminal prices and occupation times below the barrier.

    Returns (s_terminal, occupation), each of length cfg.n_paths.  Batches
    may run on several threads; each draws from its own (seed, stream, batch)
    stream and fills only its own slices, so the result is bit-identical
    whatever the number of threads or their order.
    """
    if not 0.0 < horizon < math.inf:
        raise ValueError(f"horizon must be finite and strictly positive, got {horizon!r}")
    if not 0.0 < x < math.inf:
        raise ValueError(f"spot must be finite and strictly positive, got {x!r}")
    n_steps = int(math.ceil(horizon / cfg.dt - 1e-12))
    if cfg.n_paths * n_steps > _MAX_GRID_POINTS:
        raise BudgetError(
            f"n_paths * steps = {cfg.n_paths * n_steps:.3e} exceeds budget {_MAX_GRID_POINTS:.3e}"
        )
    if not barrier >= 0.0:
        raise ValueError(f"barrier must be non-negative, got {barrier!r}")
    x_barrier = -math.inf if barrier == 0.0 else (math.inf if math.isinf(barrier) else math.log(barrier / x))

    s_out = np.empty(cfg.n_paths)
    occ_out = np.empty(cfg.n_paths)

    def run_batch(b: int) -> None:
        lo = b * cfg.batch_size
        hi = min(lo + cfg.batch_size, cfg.n_paths)
        X, occ = _simulate_batch(model, x_barrier, horizon, cfg.dt, n_steps, hi - lo,
                                 _rng(cfg.seed, stream, b))
        s_out[lo:hi] = x * np.exp(X)
        occ_out[lo:hi] = occ

    n_batches = -(-cfg.n_paths // cfg.batch_size)
    workers = min(n_batches, _usable_cpus())
    with ThreadPoolExecutor(workers, thread_name_prefix="hejdstep-mc") as pool:
        for _ in pool.map(run_batch, range(n_batches)):  # re-raises the first failing batch
            pass
    return s_out, occ_out


def _estimate(
    r: float, horizon: float, spec: DownOutStepSpec, occupation: np.ndarray, intrinsic: np.ndarray
) -> McEstimate:
    """Mean and standard error of the discounted payoffs exp(-r horizon)
    exp(knock_rate (seasoning + occupation)) intrinsic."""
    samples = math.exp(-r * horizon) * np.exp(spec.knock_rate * (spec.seasoning + occupation)) * intrinsic
    value = float(np.mean(samples))
    se = float(np.std(samples, ddof=1) / math.sqrt(len(samples)))
    return McEstimate(value=value, std_error=se)


def mc_euro_step_price(
    model: HejdModel,
    spec: DownOutStepSpec,
    horizon: float,
    x: float,
    cfg: PathConfig,
) -> McEstimate:
    """Monte-Carlo value of the European step call (seasoning included),
    simulated on stream 0."""
    s_t, occ = simulate_terminal(model, x, spec.barrier, horizon, cfg)
    return _estimate(model.r, horizon, spec, occ, np.maximum(s_t - spec.strike, 0.0))


def verify_duality(
    model: HejdModel,
    spec: DownOutStepSpec,
    horizon: float,
    x: float,
    cfg: PathConfig,
) -> DualityReport:
    """Compare the step call under the model with the equivalent step put
    under the dual market.

    The dual put starts at the original strike, is struck at the original
    spot, and decays with the occupation time *above* the transformed barrier
    x*K/L (above-barrier time is horizon minus below-barrier time).  Both
    sides use independent streams derived from cfg.seed.
    """
    call = mc_euro_step_price(model, spec, horizon, x, cfg)

    dual = dual_model(model)
    barrier_put = math.inf if spec.barrier == 0.0 else x * spec.strike / spec.barrier
    s_t, occ_below = simulate_terminal(dual, spec.strike, barrier_put, horizon, cfg, stream=1)
    put = _estimate(dual.r, horizon, spec, horizon - occ_below, np.maximum(x - s_t, 0.0))

    diff = call.value - put.value
    pooled = math.hypot(call.std_error, put.std_error)
    z = diff / pooled if pooled > 0.0 else math.inf
    return DualityReport(call=call, dual_put=put, pooled_se=pooled, z_score=z)
