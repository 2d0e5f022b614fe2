"""Built-in reference grids reproduced by the ``table`` command.

All four grids share r=0.05, delta=0.07, sigma=0.2, K=100, L=95, T=1 and
price three contracts per row: the standard call (knock rate 0), the step
call (knock rate -26.34), and the pseudo-barrier call (knock rate -5e7,
the practical knock-out limit).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .inversion import DEFAULT_GS_ORDER, price_summary
from .model import DownOutStepSpec, HejdModel

__all__ = ["TABLE_IDS", "build_table"]

# each table's jump mixture (p, xi, q, eta), every weight as printed
_MIXTURES = {
    1: (0.7, 25.0, 0.3, 50.0),
    2: (0.5, 50.0, 0.5, 25.0),
    3: (0.5, 50.0, 0.5, 50.0),
    4: (0.5, 25.0, 0.5, 25.0),
}
TABLE_IDS = tuple(_MIXTURES)

# table 1: S0=100, lambda ladder
_LAMBDAS = (1.0, 0.1, 0.01, 0.001, 0.0001)
# tables 2-4: spot ladder, two intensity blocks (block, lambda).
# Table 4 prints lambda = 5.0 for BOTH blocks; the sibling grids use 10.0 for
# block (2) and the printed block-(2) values are consistent with 10.0, but the
# row is encoded exactly as printed rather than normalized.
_SPOTS = (90.0, 95.0, 100.0, 105.0, 110.0, 115.0)
_BLOCKS = {2: ((1.0, 5.0), (2.0, 10.0)), 3: ((1.0, 5.0), (2.0, 10.0)), 4: ((1.0, 5.0), (2.0, 5.0))}
_CONTRACTS = tuple(DownOutStepSpec(strike=100.0, barrier=95.0, knock_rate=rho) for rho in (0.0, -26.34, -5.0e7))


class TableResult(NamedTuple):
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
    p, xi, q, eta = _MIXTURES[table_id]
    # each grid point: (leading values, lambda, spot)
    if table_id == 1:
        lead, columns = ("lambda",), ("euro", "amer", "dc_pct")
        grid = [((lam,), lam, 100.0) for lam in _LAMBDAS]
    else:
        lead, columns = ("block", "lambda", "spot"), ("euro", "eep", "eep_pct", "dc_pct")
        grid = [((block, lam, x), lam, x) for block, lam in _BLOCKS[table_id] for x in _SPOTS]
    header = lead + tuple(f"{c}_{col}" for c in ("standard", "step", "barrier") for col in columns)
    rows = []
    for values, lam, x in grid:
        model = HejdModel(r=0.05, delta=0.07, sigma=0.2, lam=lam,
                          up_weights=(p,), up_rates=(xi,), down_weights=(q,), down_rates=(eta,))
        row = list(values)
        for spec in _CONTRACTS:
            s = price_summary(model, spec, 1.0, x, order)
            if "eep" in columns and s["euro"] < 5e-4 and s["eep"] < 5e-4:  # knocked-out rows print 0 / --
                s["eep_pct"] = s["dc_pct"] = math.nan
            row += [s[col] for col in columns]
        rows.append(tuple(row))
    return TableResult(header, tuple(rows))
