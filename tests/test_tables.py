"""Reference-grid module tests: parameter mapping, golden rows, structure."""

from __future__ import annotations

import functools
import math

import pytest

from hejdstep import HejdModel, price_summary
from hejdstep.tables import build_table

from conftest import BARRIER, KOU, STANDARD, STEP

# each table is built once per session; the tests only read it
table = functools.cache(build_table)


def cell(table_id, column, **where):
    """The one cell of ``column`` in the row whose leading values match ``where``."""
    result = table(table_id)
    idx = {name: i for i, name in enumerate(result.header)}
    (row,) = [row for row in result.rows if all(row[idx[k]] == v for k, v in where.items())]
    return row[idx[column]]


class TestParameterMapping:
    def test_table1_mixture(self):
        # the lambda = 1 row is the Kou market (p=0.7, xi=25, q=0.3, eta=50)
        # at x = 100, bit for bit, for the standard, step and barrier contracts
        want = (1.0,) + tuple(price_summary(KOU, spec, 1.0, 100.0)[q]
                              for spec in (STANDARD, STEP, BARRIER) for q in ("euro", "amer", "dc_pct"))
        assert table(1).rows[0] == want

    def test_grid_mixtures(self):
        # the block-1, x = 100 row is the table's p = q = 0.5, lambda = 5 market
        for table_id, xi, eta in ((2, 50.0, 25.0), (3, 50.0, 50.0), (4, 25.0, 25.0)):
            model = HejdModel(r=0.05, delta=0.07, sigma=0.2, lam=5.0,
                              up_weights=(0.5,), up_rates=(xi,), down_weights=(0.5,), down_rates=(eta,))
            want = (1.0, 5.0, 100.0) + tuple(price_summary(model, spec, 1.0, 100.0)[q]
                                             for spec in (STANDARD, STEP, BARRIER)
                                             for q in ("euro", "eep", "eep_pct", "dc_pct"))
            (row,) = [row for row in table(table_id).rows if row[:3] == (1.0, 5.0, 100.0)]
            assert row == want, table_id


class TestGoldenRows:
    def test_table4_block1_barrier_euro(self):
        # S0=100 pseudo-barrier European value of the (xi=25, eta=25) grid
        assert cell(4, "barrier_euro", block=1.0, spot=100.0) == pytest.approx(3.748, rel=5e-3)

    def test_table2_block2_eep_share(self):
        # S0=115 step-call premium share of the (xi=50, eta=25) grid at lambda=10
        assert cell(2, "step_eep_pct", block=2.0, spot=115.0) == pytest.approx(4.41, abs=0.05)


class TestBuildTable:
    def test_star_import_binds_only_the_table_api(self):
        namespace = {}
        exec("from hejdstep.tables import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == ["TABLE_IDS", "build_table"]

    def test_unknown_table_id(self):
        with pytest.raises(ValueError) as info:
            build_table(5)
        assert str(info.value) == "unknown table id 5; expected one of (1, 2, 3, 4)"

    def test_structure_of_grid_tables(self):
        result = table(3)
        assert len(result.rows) == 12  # 2 blocks x 6 spots
        lambdas = sorted({row[1] for row in result.rows})
        assert lambdas == [5.0, 10.0]
        assert result.header[:3] == ("block", "lambda", "spot")

    def test_table4_block2_encoded_as_printed(self):
        # the lambda=5.0 label of block (2) is encoded verbatim
        result = table(4)
        block2 = [row for row in result.rows if row[0] == 2.0]
        assert {row[1] for row in block2} == {5.0}

    def test_knocked_out_rows_report_nan_shares(self):
        result = table(3)
        idx = {name: i for i, name in enumerate(result.header)}
        for row in result.rows:
            if row[idx["spot"]] < 95.0:
                assert row[idx["barrier_euro"]] == pytest.approx(0.0, abs=5e-4)
                assert math.isnan(row[idx["barrier_eep_pct"]])
