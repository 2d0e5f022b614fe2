"""Built-in reference grids reproduced by the ``table`` command.

All four grids share r=0.05, delta=0.07, sigma=0.2, K=100, L=95, T=1 and
price three contracts per row: the standard call (knock rate 0), the step
call (knock rate -26.34), and the pseudo-barrier call (knock rate -5e7,
the practical knock-out limit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .inversion import DEFAULT_GS_ORDER, price_summary
from .model import DownOutStepSpec, HejdModel

__all__ = [
    "TABLE_IDS",
    "RHO_STANDARD",
    "RHO_STEP",
    "RHO_BARRIER",
    "BASE_PARAMS",
    "table_model",
    "table_spec",
    "build_table",
]

TABLE_IDS = (1, 2, 3, 4)
RHO_STANDARD = 0.0
RHO_STEP = -26.34
RHO_BARRIER = -5.0e7

BASE_PARAMS = dict(r=0.05, delta=0.07, sigma=0.2, strike=100.0, barrier=95.0, horizon=1.0)

# table 1: Kou mixture p=0.7, xi=25, eta=50, S0=100, lambda ladder
_TABLE1_LAMBDAS = (1.0, 0.1, 0.01, 0.001, 0.0001)
_TABLE1_MIX = dict(up_weights=(0.7,), up_rates=(25.0,), down_weights=(0.3,), down_rates=(50.0,))

# tables 2-4: p=q=0.5, spot ladder, two intensity blocks.
# Table 4 prints lambda = 5.0 for BOTH blocks; the sibling grids use 10.0 for
# block (2) and the printed block-(2) values are consistent with 10.0, but the
# row is encoded exactly as printed rather than normalized.
_SPOTS = (90.0, 95.0, 100.0, 105.0, 110.0, 115.0)
_GRIDS = {
    2: dict(xi=50.0, eta=25.0, blocks=((1, 5.0), (2, 10.0))),
    3: dict(xi=50.0, eta=50.0, blocks=((1, 5.0), (2, 10.0))),
    4: dict(xi=25.0, eta=25.0, blocks=((1, 5.0), (2, 5.0))),
}


def table_model(table_id: int, lam: float) -> HejdModel:
    if table_id == 1:
        mix = _TABLE1_MIX
    elif table_id in _GRIDS:
        g = _GRIDS[table_id]
        mix = dict(
            up_weights=(0.5,), up_rates=(g["xi"],),
            down_weights=(0.5,), down_rates=(g["eta"],),
        )
    else:
        raise ValueError(f"unknown table id {table_id}; expected one of {TABLE_IDS}")
    return HejdModel(
        r=BASE_PARAMS["r"], delta=BASE_PARAMS["delta"], sigma=BASE_PARAMS["sigma"],
        lam=lam, **mix,
    )


def table_spec(knock_rate: float) -> DownOutStepSpec:
    return DownOutStepSpec(
        strike=BASE_PARAMS["strike"], barrier=BASE_PARAMS["barrier"], knock_rate=knock_rate
    )


@dataclass(frozen=True)
class TableResult:
    table_id: int
    header: tuple[str, ...]
    rows: tuple[tuple, ...]


def build_table(table_id: int, order: int = DEFAULT_GS_ORDER) -> TableResult:
    """Compute the full grid of the requested table.

    Table 1 rows: lambda, then euro/amer/dc_pct for the standard, step and
    barrier contracts.  Tables 2-4 rows: block, lambda, spot, then
    euro/eep/eep_pct/dc_pct per contract.  Rows where the contract is worth
    zero (spot at or below the barrier in the knock-out limit) report nan for
    the percentage columns.
    """
    if table_id not in TABLE_IDS:
        raise ValueError(f"unknown table id {table_id}; expected one of {TABLE_IDS}")
    # each grid point: (leading values, model, spot)
    if table_id == 1:
        lead, columns = ("lambda",), ("euro", "amer", "dc_pct")
        grid = [((lam,), table_model(1, lam), 100.0) for lam in _TABLE1_LAMBDAS]
    else:
        lead, columns = ("block", "lambda", "spot"), ("euro", "eep", "eep_pct", "dc_pct")
        grid = [((float(block), lam, x), table_model(table_id, lam), x)
                for block, lam in _GRIDS[table_id]["blocks"] for x in _SPOTS]
    header = lead + tuple(f"{c}_{q}" for c in ("standard", "step", "barrier") for q in columns)
    rows = []
    for values, model, x in grid:
        row = list(values)
        for rho in (RHO_STANDARD, RHO_STEP, RHO_BARRIER):
            s = price_summary(model, table_spec(rho), BASE_PARAMS["horizon"], x, order)
            if "eep" in columns and s["euro"] < 5e-4 and s["eep"] < 5e-4:  # knocked-out rows print 0 / --
                s["eep_pct"] = s["dc_pct"] = math.nan
            row += [s[q] for q in columns]
        rows.append(tuple(row))
    return TableResult(table_id, header, tuple(rows))
