"""Output fingerprint of the hejdstep engine: exact values, one hash.

Prints one line per value, ``<label> <float.hex()>``, then ``sha256 <hex>``
over those lines.  Two trees that print the same hash return bit-identical
outputs on:

- ``price_summary`` of 32 contracts: 9 Kou reference contracts (knock rates
  0, -26.34 and -5e7 at spots 90, 100 and 110), the Kou step contract at
  spots 120 and 130 (inside and above the span 114.45-126.74 of its
  randomized exercise boundaries, so the premium split takes its branch
  above the boundary), 3 Kou zero-barrier, 3
  lambda = 0 step and 3 lambda = 0 zero-barrier contracts, 3 low-volatility
  Kou step contracts (sigma 0.01 with L = 80 and 95, sigma 0.02 with
  L = 80, spot 100), one Kou step contract with delta = 1e-4 (spot 100,
  whose boundaries at all 14 abscissae lie beyond K*e^5, so the boundary
  scan's expanded grid brackets them), and 8 seeded random HEJD contracts;
- every cell of ``build_table(1)`` and ``build_table(2)``;
- one seeded 10,000-path ``mc_euro_step_price`` on the Kou step contract;
- one seeded 10,000-path ``verify_duality`` on the jump-heavy m = n = 3,
  lambda = 10 market with the step contract at t = 0.25, spot 100: value and
  standard error of the call and of the dual put.  With about 2.5 jumps per
  path it runs the multi-jump sub-steps of both streams, which the Kou
  lambda = 1 estimate above rarely reaches;
- ``price_time_domain`` of each of the five quantities, one inversion per
  value, on the Kou step contract at spots 100, 115 (inside the span of its
  randomized exercise boundaries) and 130, fresh and with seasoning 0.05.
  This is the single-quantity path that the greeks surfaces, the
  Monte-Carlo cross-check and ``price --quantity`` take;
- the randomized exercise boundary, ``log_boundary`` of
  ``solve_american_mr(model, spec, k log2 / t)`` at k = 1..14, for every
  distinct (model, spec, t) of the price_summary contracts and for the
  jump-heavy m = n = 3 market with the step contract at t = 1.  They pin
  the boundary search's result itself, beside the prices built on it;
- every cell of ``build_table(3)`` and ``build_table(4)``, the grid tables
  that the lines above leave out.

That is 1116 values; the first 460 are the ones listed before the
single-quantity prices, the first 490 the ones before the boundaries, and
the first 756 the ones before tables 3 and 4.
A contract or solve that raises prints its error type and message instead.
Run from the root of a checkout:

    PYTHONPATH=src python3 tools/fingerprint.py

Point PYTHONPATH at another tree's ``src`` to fingerprint that tree; the
path of the imported package goes to standard error.

``tools/fingerprint.sha256`` holds the expected last line, and CI fails when
it differs.  A change that moves a bit updates that file and says why.
"""

from __future__ import annotations

import hashlib
import math
import sys
from dataclasses import replace

import numpy as np

import hejdstep
from hejdstep import (QUANTITIES, DownOutStepSpec, HejdModel, PathConfig, mc_euro_step_price, price_summary,
                      price_time_domain, verify_duality)
from hejdstep.tables import build_table

try:
    from hejdstep.inversion import _abscissae
except ImportError:
    # tools/bench.py runs this file on a parent tree, which may predate
    # inversion._abscissae; the abscissae as gs_invert rounded them there
    def _abscissae(t, order):
        return tuple(k * (math.log(2.0) / t) for k in range(1, 2 * order + 1))

KOU = HejdModel(r=0.05, delta=0.07, sigma=0.2, lam=1.0,
                up_weights=(0.7,), up_rates=(25.0,), down_weights=(0.3,), down_rates=(50.0,))
BS = HejdModel(r=0.05, delta=0.07, sigma=0.2, lam=0.0)
HEAVY = HejdModel(r=0.05, delta=0.07, sigma=0.2, lam=10.0,
                  up_weights=(0.2, 0.15, 0.1), up_rates=(10.0, 25.0, 50.0),
                  down_weights=(0.25, 0.2, 0.1), down_rates=(8.0, 20.0, 45.0))
STEP = DownOutStepSpec(100.0, 95.0, -26.34)
ZERO_BARRIER = DownOutStepSpec(100.0, 0.0, 0.0)
SPOTS = (90.0, 100.0, 110.0)
SINGLE_SPOTS = (100.0, 115.0, 130.0)
LOW_VOL = ((0.01, 80.0), (0.01, 95.0), (0.02, 80.0))


def _random_contract(rng: np.random.Generator) -> tuple[HejdModel, DownOutStepSpec, float, float]:
    """HEJD market with one to three terms per side, a step contract, a
    maturity and a spot between the barrier and the strike."""
    m, n = (int(k) for k in rng.integers(1, 4, size=2))
    raw = rng.uniform(0.2, 1.0, size=m + n)
    weights = raw / raw.sum()
    model = HejdModel(
        r=float(rng.uniform(0.0, 0.08)), delta=float(rng.uniform(0.02, 0.10)),
        sigma=float(rng.uniform(0.15, 0.45)), lam=float(rng.uniform(0.1, 8.0)),
        up_weights=tuple(weights[:m]), up_rates=tuple(1.5 + np.cumsum(rng.uniform(1.0, 20.0, size=m))),
        down_weights=tuple(weights[m:]), down_rates=tuple(0.8 + np.cumsum(rng.uniform(1.0, 20.0, size=n))),
    )
    barrier = float(rng.uniform(82.0, 97.0))
    spec = DownOutStepSpec(100.0, barrier, float(-rng.uniform(0.5, 60.0)))
    return model, spec, float(rng.uniform(0.25, 2.0)), float(rng.uniform(barrier + 1.0, 100.0))


def contracts() -> list[tuple[str, HejdModel, DownOutStepSpec, float, float]]:
    out = []
    for rho in (0.0, -26.34, -5.0e7):
        out += [(f"kou rho={rho:g}", KOU, DownOutStepSpec(100.0, 95.0, rho), 1.0, x) for x in SPOTS]
    out += [("kou rho=-26.34", KOU, STEP, 1.0, x) for x in (120.0, 130.0)]
    out += [("kou zero-barrier", KOU, ZERO_BARRIER, 1.0, x) for x in SPOTS]
    out += [("lambda=0 step", BS, STEP, 1.0, x) for x in SPOTS]
    out += [("lambda=0 zero-barrier", BS, ZERO_BARRIER, 1.0, x) for x in SPOTS]
    out += [(f"kou sigma={sigma:g} L={L:g}", replace(KOU, sigma=sigma), DownOutStepSpec(100.0, L, -26.34), 1.0, 100.0)
            for sigma, L in LOW_VOL]
    out.append(("kou delta=0.0001", replace(KOU, delta=1e-4), STEP, 1.0, 100.0))
    rng = np.random.default_rng(2026)
    for i in range(8):
        out.append((f"random {i}",) + _random_contract(rng))
    return out


def table_lines(table_ids) -> list[str]:
    out = []
    for table_id in table_ids:
        table = build_table(table_id)
        for i, row in enumerate(table.rows):
            out += [f"table{table_id}[{i}].{col} {float(v).hex()}" for col, v in zip(table.header, row)]
    return out


def lines() -> list[str]:
    out = []
    for name, model, spec, t, x in contracts():
        label = f"price_summary[{name} t={t!r} x={x!r}]"
        try:
            summary = price_summary(model, spec, t, x)
        except hejdstep.HejdStepError as exc:
            out.append(f"{label} {type(exc).__name__}: {exc}")
            continue
        out += [f"{label}.{key} {value.hex()}" for key, value in summary.items()]
    out += table_lines((1, 2))
    est = mc_euro_step_price(KOU, STEP, 1.0, 100.0, PathConfig(n_paths=10_000, seed=2026))
    out += [f"mc_euro_step_price.value {est.value.hex()}", f"mc_euro_step_price.std_error {est.std_error.hex()}"]
    report = verify_duality(HEAVY, STEP, 0.25, 100.0, PathConfig(n_paths=10_000, seed=2026))
    for side, est in (("call", report.call), ("dual_put", report.dual_put)):
        out += [f"verify_duality.{side}.value {est.value.hex()}",
                f"verify_duality.{side}.std_error {est.std_error.hex()}"]
    for spec in (STEP, replace(STEP, seasoning=0.05)):
        for x in SINGLE_SPOTS:
            for q in QUANTITIES:
                label = f"price_time_domain[kou rho=-26.34 seasoning={spec.seasoning:g} t=1.0 x={x!r}].{q}"
                try:
                    out.append(f"{label} {price_time_domain(KOU, spec, 1.0, x, q).hex()}")
                except hejdstep.HejdStepError as exc:
                    out.append(f"{label} {type(exc).__name__}: {exc}")
    cases = {(model, spec, t): name for name, model, spec, t, _ in contracts()}
    cases[(HEAVY, STEP, 1.0)] = "m3n3 rho=-26.34"
    for (model, spec, t), name in cases.items():
        for k, theta in enumerate(_abscissae(t, 7), start=1):
            label = f"solve_american_mr[{name} t={t!r} k={k}].log_boundary"
            try:
                sol = hejdstep.solve_american_mr(model, spec, theta)
                out.append(f"{label} {sol.log_boundary.hex()}")
            except hejdstep.HejdStepError as exc:
                out.append(f"{label} {type(exc).__name__}: {exc}")
    return out + table_lines((3, 4))


def main() -> int:
    print(f"hejdstep from {hejdstep.__file__}", file=sys.stderr)
    body = lines()
    digest = hashlib.sha256("\n".join(body).encode()).hexdigest()
    print("\n".join(body))
    print(f"sha256 {digest}")
    print(f"{len(body)} values, sha256 {digest}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
