"""Inputs and operations of the three workloads.

Each workload is built from the seed alone and exposes the operations of one
round; every round repeats the same operations in the same order, so a run's
share of failed operations does not depend on how many rounds fit into it.
The operations call ``hejdstep`` through its module attributes at call time,
so the tracer's wrappers (``tracing``) see them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

import hejdstep
from checks import (
    AMERICAN_FAMILY,
    american_problems,
    bs_surface_problems,
    european_problems,
    mc_problems,
    monotone_problems,
    ordering_problems,
    quote_problems,
)

STRIKE = 100.0
BARRIER = 95.0
RHO_STANDARD, RHO_STEP, RHO_KNOCKOUT = 0.0, -26.34, -5.0e7
RATES = (RHO_STANDARD, RHO_STEP, RHO_KNOCKOUT)


def kou_market(lam: float = 1.0) -> hejdstep.HejdModel:
    """Table 1 market: Kou jumps p = 0.7, xi = 25, eta = 50."""
    return hejdstep.HejdModel(r=0.05, delta=0.07, sigma=0.2, lam=lam,
                              up_weights=(0.7,), up_rates=(25.0,),
                              down_weights=(0.3,), down_rates=(50.0,))


def grid_market(lam: float, xi: float, eta: float) -> hejdstep.HejdModel:
    """Market of tables 2-4: p = q = 0.5."""
    return hejdstep.HejdModel(r=0.05, delta=0.07, sigma=0.2, lam=lam,
                              up_weights=(0.5,), up_rates=(xi,),
                              down_weights=(0.5,), down_rates=(eta,))


def heavy_market() -> hejdstep.HejdModel:
    """Jump-heavy m = n = 3 market, lambda = 10."""
    return hejdstep.HejdModel(r=0.05, delta=0.07, sigma=0.2, lam=10.0,
                              up_weights=(0.2, 0.15, 0.1), up_rates=(10.0, 25.0, 50.0),
                              down_weights=(0.25, 0.2, 0.1), down_rates=(8.0, 20.0, 45.0))


def spec(rho: float, barrier: float = BARRIER) -> hejdstep.DownOutStepSpec:
    return hejdstep.DownOutStepSpec(strike=STRIKE, barrier=barrier, knock_rate=rho)


class SolveCaches:
    """Empties the randomized solve caches, keeping their hit and miss counts
    across the clears (``cache_clear`` resets them)."""

    def __init__(self) -> None:
        self.solves = {"european": hejdstep.solve_european_mr, "american": hejdstep.solve_american_mr}
        self.cleared = {key: (0, 0) for key in self.solves}

    def counts(self) -> dict[str, tuple[int, int]]:
        """(hits, misses) of each solve cache so far."""
        out = {}
        for key, solve in self.solves.items():
            info, (hits, misses) = solve.cache_info(), self.cleared[key]
            out[key] = (hits + info.hits, misses + info.misses)
        return out

    def clear(self) -> None:
        self.cleared = self.counts()
        for solve in self.solves.values():
            solve.cache_clear()


@dataclass(frozen=True)
class Contract:
    market: str
    model: hejdstep.HejdModel
    spec: hejdstep.DownOutStepSpec
    t: float
    x: float
    reference: dict | None = None


# ---------------------------------------------------------------- quote_book

# published values checked by tests/test_acceptance.py (criteria 2-4)
_LADDER = {  # lambda: (step euro, step amer)
    1.0: (4.596, 4.789), 0.1: (4.519, 4.706), 0.01: (4.511, 4.698),
    0.001: (4.510, 4.697), 0.0001: (4.510, 4.697),
}
_LADDER_LAM1 = {RHO_STANDARD: 6.833, RHO_KNOCKOUT: 3.374}  # euro, lambda = 1
_TABLES = (  # (lambda, xi, eta, spot, step-contract values or None)
    (5.0, 50.0, 25.0, 100.0, dict(euro=4.992, eep=0.178, eep_pct=3.45, dc_pct=94.36)),
    (10.0, 50.0, 25.0, 100.0, None),
    (5.0, 50.0, 50.0, 105.0, dict(euro=7.949, eep=0.355, eep_pct=4.28, dc_pct=94.18)),
    (10.0, 50.0, 50.0, 100.0, dict(euro=4.836, eep=0.190, eep_pct=3.77, dc_pct=89.23)),
    (5.0, 25.0, 25.0, 110.0, dict(euro=12.037, eep=0.544, eep_pct=4.32, dc_pct=78.35)),
)
_N_ZERO_JUMP = 2  # seeded lambda = 0 markets, each under three knock rates


def _reference_contracts() -> list[Contract]:
    out = []
    for lam, (euro, amer) in _LADDER.items():
        for rho in RATES:
            ref = None
            if rho == RHO_STEP:
                ref = dict(euro=euro, amer=amer)
            elif lam == 1.0:
                ref = dict(euro=_LADDER_LAM1[rho])
            out.append(Contract(f"ladder-{lam:g}", kou_market(lam), spec(rho), 1.0, 100.0, ref))
    for lam, xi, eta, x, ref in _TABLES:
        for rho in RATES:
            out.append(Contract(f"grid-{lam:g}-{xi:g}-{eta:g}", grid_market(lam, xi, eta), spec(rho),
                                1.0, x, ref if rho == RHO_STEP else None))
    return out


def _spot(rng: np.random.Generator, barrier: float) -> float:
    # at or below the strike, so below every randomized exercise boundary
    return float(rng.uniform(barrier + 0.1 * (STRIKE - barrier), STRIKE))


def _zero_jump_contracts(rng: np.random.Generator) -> list[Contract]:
    out = []
    for i in range(_N_ZERO_JUMP):
        model = hejdstep.HejdModel(r=float(rng.uniform(0.0, 0.08)), delta=float(rng.uniform(0.02, 0.10)),
                                   sigma=float(rng.uniform(0.15, 0.45)), lam=0.0)
        barrier = float(rng.uniform(0.82, 0.97) * STRIKE)
        step = float(-rng.uniform(0.5, 60.0))
        t = float(rng.uniform(0.25, 2.0))
        x = _spot(rng, barrier)
        for rho in (RHO_STANDARD, step, RHO_KNOCKOUT):
            out.append(Contract(f"zero-jump-{i}", model, spec(rho, barrier), t, x))
    return out


def _mixture(rng: np.random.Generator, count: int, lo: float) -> np.ndarray:
    # rates at least 1 apart, as in the test suite's random_model
    while True:
        rates = np.sort(rng.uniform(lo, 60.0, size=count))
        if not np.any(np.diff(rates) < 1.0):
            return rates


def _random_contracts(rng: np.random.Generator) -> list[Contract]:
    """One market per (m, n) in {1, 2, 3}^2, drawn over the ranges of the
    test suite's random_model, with one random step contract each."""
    out = []
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            xi = _mixture(rng, m, 1.5)
            eta = _mixture(rng, n, 0.8)
            raw = rng.uniform(0.2, 1.0, size=m + n)
            w = raw / raw.sum()
            model = hejdstep.HejdModel(
                r=float(rng.uniform(0.0, 0.08)), delta=float(rng.uniform(0.02, 0.10)),
                sigma=float(rng.uniform(0.15, 0.45)), lam=float(rng.uniform(0.1, 8.0)),
                up_weights=tuple(w[:m]), up_rates=tuple(xi),
                down_weights=tuple(w[m:]), down_rates=tuple(eta),
            )
            barrier = float(rng.uniform(0.82, 0.97) * STRIKE)
            rho = float(-rng.uniform(0.5, 60.0))
            t = float(rng.uniform(0.25, 2.0))
            out.append(Contract(f"random-{m}{n}", model, spec(rho, barrier), t, _spot(rng, barrier)))
    return out


class QuoteBook:
    """Cold quotes: each contract priced once per round with price_summary,
    the round starting from empty solve caches.  No two contracts share
    (market, contract, maturity), so every randomized solve is a miss; the
    knock-rate triples of one market share their mid-region root levels."""

    name = "quote_book"
    tail = 0.75
    named = {"quote_s_p50": "op_s_p50", "quote_s_p75": "op_s_tail", "quotes_per_s": "ops_per_s"}

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        self.book = _reference_contracts() + _zero_jump_contracts(rng) + _random_contracts(rng)
        self.caches = SolveCaches()

    def setup(self) -> None:
        # one quote off the book warms the interpreter; its solves are dropped
        hejdstep.price_summary(kou_market(), spec(-1.0), 1.0, STRIKE)
        self.caches.clear()

    def operations(self):
        self.caches.clear()
        return [(c.market, lambda c=c: hejdstep.price_summary(c.model, c.spec, c.t, c.x))
                for c in self.book]

    def check(self, outputs) -> tuple[list[str], int]:
        problems = []
        triples: dict[tuple, dict[float, dict]] = {}
        for c, out in zip(self.book, outputs):
            where = f"{c.market} rho={c.spec.knock_rate:g} t={c.t:.4g} x={c.x:.4g}"
            if isinstance(out, Exception):
                problems.append(f"{where}: {type(out).__name__}: {out}")
                continue
            problems += [f"{where}: {p}" for p in quote_problems(c, out)]
            triples.setdefault((c.market, c.t, c.x), {})[c.spec.knock_rate] = out
        for (market, t, x), triple in triples.items():
            if len(triple) == 3:
                problems += [f"{market}: {p}" for p in ordering_problems(triple, x)]
        return problems, 0


# ----------------------------------------------------------------- risk_grid

SURFACE_SPOTS = tuple(float(x) for x in np.linspace(85.0, 115.0, 61))
BUMP = 1e-3  # relative spot bump of the central differences, as `hejdstep greeks`
RISK_T = 1.0
# The reference Kou market's randomized exercise boundaries at T = 1 run from
# 114.45 to 126.74; American-family prices at spots in that band break their
# bounds (see CHANGES.md).  Those prices count as failed; a failure anywhere
# else makes the run incorrect.
NAMED_FAULT_MARKET = "kou"
NAMED_FAULT_BAND = (114.45, 126.74)


class RiskGrid:
    """Warm re-pricing: greeks surfaces on three markets (61 spots, centre
    and two bumped prices, five quantities), all randomized solves made in
    set-up.  The inputs are fixed, so that the named failing prices are the
    same in every run; the seed sets the order in which the prices run."""

    name = "risk_grid"
    tail = 0.90
    named = {"price_s_p50": "op_s_p50", "price_s_p90": "op_s_tail", "prices_per_s": "ops_per_s"}

    def __init__(self, seed: int):
        self.markets = {
            "kou": (kou_market(), spec(RHO_STEP)),
            "heavy": (heavy_market(), spec(RHO_STEP)),
            "zero-jump": (hejdstep.HejdModel(r=0.05, delta=0.07, sigma=0.3, lam=0.0), spec(RHO_STANDARD)),
        }
        self.tasks = [
            (name, i, j, q)
            for name in self.markets
            for i in range(len(SURFACE_SPOTS))
            for j in (-1, 0, 1)
            for q in hejdstep.QUANTITIES
        ]
        order = np.random.default_rng([seed, 2]).permutation(len(self.tasks))
        self.tasks = [self.tasks[k] for k in order]
        self.caches = SolveCaches()

    @staticmethod
    def spot(i: int, j: int) -> float:
        x = SURFACE_SPOTS[i]
        return x + j * BUMP * x

    def setup(self) -> None:
        for model, sp in self.markets.values():
            hejdstep.price_summary(model, sp, RISK_T, STRIKE)

    def operations(self):
        ops = []
        for name, i, j, q in self.tasks:
            model, sp = self.markets[name]
            x = self.spot(i, j)
            ops.append((name, lambda m=model, s=sp, x=x, q=q: hejdstep.price_time_domain(m, s, RISK_T, x, q)))
        return ops

    def evaluate(self, outputs):
        """(problems, failed task keys) of one round's prices."""
        prices: dict[tuple, dict] = {}
        problems: list[str] = []
        failed: set[tuple] = set()
        for (name, i, j, q), out in zip(self.tasks, outputs):
            if isinstance(out, Exception):
                problems.append(f"{name} x={self.spot(i, j)!r} {q}: {type(out).__name__}: {out}")
                failed.add((name, i, j, q))
                continue
            prices.setdefault((name, i, j), {})[q] = out
        for (name, i, j), p in prices.items():
            x = self.spot(i, j)
            if len(p) < len(hejdstep.QUANTITIES):
                continue
            if european_problems(x, p["euro"]):
                failed.add((name, i, j, "euro"))
            if american_problems(x, STRIKE, p):
                failed.update((name, i, j, q) for q in AMERICAN_FAMILY)
        for name, (model, sp) in self.markets.items():
            for q in ("euro", "amer"):
                pts = [(self.spot(i, j), p[q]) for (n, i, j), p in prices.items()
                       if n == name and (name, i, j, q) not in failed and q in p]
                problems += [f"{name}: {p}" for p in monotone_problems(pts, q)]
            if model.lam == 0.0 and sp.knock_rate == 0.0:
                for i, x in enumerate(SURFACE_SPOTS):
                    trio = [prices.get((name, i, j), {}).get("euro") for j in (-1, 0, 1)]
                    if None not in trio:
                        problems += [f"{name}: {p}" for p in bs_surface_problems(
                            model, STRIKE, RISK_T, x, BUMP * x, *trio)]
        lo, hi = NAMED_FAULT_BAND
        for name, i, j, q in sorted(failed):
            named = name == NAMED_FAULT_MARKET and q in AMERICAN_FAMILY and lo <= self.spot(i, j) <= hi
            if not named:
                problems.append(f"{name} x={self.spot(i, j)!r} {q}: unexpected failure")
        return problems, failed

    def check(self, outputs) -> tuple[list[str], int]:
        problems, failed = self.evaluate(outputs)
        return problems, len(failed)


# ----------------------------------------------------------------- mc_oracle

MC_T = 0.25
MC_SPOT = 100.0
MC_PATHS = 1 << 15
MC_BATCH = 1 << 13  # four batches per estimate
MC_DT = 1e-3


class McOracle:
    """The Monte-Carlo cross-check as `hejdstep verify` runs it: the engine's
    euro price, mc_euro_step_price and verify_duality.  One operation checks
    a light-jump market and then a jump-heavy one, so that its time is a
    median over like operations.  The engine's solves are made in set-up;
    quote_book measures them cold.  The path seeds come from the workload
    seed and stay fixed for the run."""

    name = "mc_oracle"
    tail = 0.75
    named = {"check_s_p50": "op_s_p50", "check_s_p75": "op_s_tail", "checks_per_s": "ops_per_s"}

    def __init__(self, seed: int):
        seeds = np.random.default_rng([seed, 3]).integers(0, 2**31, size=2)
        self.markets = [
            (tag, model, spec(RHO_STEP),
             hejdstep.PathConfig(n_paths=MC_PATHS, dt=MC_DT, seed=int(s), batch_size=MC_BATCH))
            for (tag, model), s in zip((("light", kou_market()), ("heavy", heavy_market())), seeds)
        ]
        # path-steps of the estimates an operation returns: call and dual put per market
        self.path_steps_per_op = 2 * len(self.markets) * MC_PATHS * math.ceil(MC_T / MC_DT - 1e-12)
        self.tracer = None  # set while traced, to tag spans with the market
        self.caches = SolveCaches()

    def setup(self) -> None:
        for _, model, sp, cfg in self.markets:
            hejdstep.price_time_domain(model, sp, MC_T, MC_SPOT, "euro")
            # a short simulation warms numpy's generators and kernels
            hejdstep.mc_euro_step_price(model, sp, 10 * MC_DT, MC_SPOT, replace(cfg, n_paths=10_000))

    def _check_all(self):
        out = []
        for tag, model, sp, cfg in self.markets:
            if self.tracer is not None:
                self.tracer.tag = tag
            engine = hejdstep.price_time_domain(model, sp, MC_T, MC_SPOT, "euro")
            estimate = hejdstep.mc_euro_step_price(model, sp, MC_T, MC_SPOT, cfg)
            duality = hejdstep.verify_duality(model, sp, MC_T, MC_SPOT, cfg)
            out.append((engine, estimate, duality))
        return out

    def operations(self):
        return [("oracle", self._check_all)]

    def check(self, outputs) -> tuple[list[str], int]:
        problems = []
        for out in outputs:
            if isinstance(out, Exception):
                problems.append(f"{type(out).__name__}: {out}")
                continue
            for (tag, *_), result in zip(self.markets, out):
                problems += [f"{tag}: {p}" for p in mc_problems(*result)]
        return problems, 0


WORKLOADS = {w.name: w for w in (QuoteBook, RiskGrid, McOracle)}
