"""Reference-grid module tests: parameter mapping, golden rows, structure."""

from __future__ import annotations

import math

import pytest

from hejdstep import price_summary, price_time_domain
from hejdstep.tables import (
    BASE_PARAMS,
    RHO_BARRIER,
    RHO_STEP,
    build_table,
    table_model,
    table_spec,
)


class TestParameterMapping:
    def test_table1_mixture(self):
        m = table_model(1, 1.0)
        assert m.up_weights == (0.7,) and m.up_rates == (25.0,)
        assert m.down_weights == (0.3,) and m.down_rates == (50.0,)

    def test_grid_mixtures(self):
        assert table_model(2, 5.0).up_rates == (50.0,)
        assert table_model(2, 5.0).down_rates == (25.0,)
        assert table_model(3, 5.0).up_rates == (50.0,)
        assert table_model(3, 5.0).down_rates == (50.0,)
        assert table_model(4, 5.0).up_rates == (25.0,)
        assert table_model(4, 5.0).down_rates == (25.0,)

    def test_unknown_table(self):
        with pytest.raises(ValueError):
            table_model(5, 1.0)


class TestGoldenRows:
    def test_table4_block1_barrier_euro(self):
        # S0=100 pseudo-barrier European value of the (xi=25, eta=25) grid
        model = table_model(4, 5.0)
        got = price_time_domain(model, table_spec(RHO_BARRIER), BASE_PARAMS["horizon"], 100.0, "euro")
        assert got == pytest.approx(3.748, rel=5e-3)

    def test_table2_block2_eep_share(self):
        # S0=115 step-call premium share of the (xi=50, eta=25) grid at lambda=10
        model = table_model(2, 10.0)
        s = price_summary(model, table_spec(RHO_STEP), BASE_PARAMS["horizon"], 115.0)
        assert s["eep_pct"] == pytest.approx(4.41, abs=0.05)


class TestBuildTable:
    def test_unknown_table_id(self):
        with pytest.raises(ValueError) as info:
            build_table(5)
        assert str(info.value) == "unknown table id 5; expected one of (1, 2, 3, 4)"

    def test_structure_of_grid_tables(self):
        result = build_table(3)
        assert len(result.rows) == 12  # 2 blocks x 6 spots
        lambdas = sorted({row[1] for row in result.rows})
        assert lambdas == [5.0, 10.0]
        assert result.header[:3] == ("block", "lambda", "spot")

    def test_table4_block2_encoded_as_printed(self):
        # the lambda=5.0 label of block (2) is encoded verbatim
        result = build_table(4)
        block2 = [row for row in result.rows if row[0] == 2.0]
        assert {row[1] for row in block2} == {5.0}

    def test_knocked_out_rows_report_nan_shares(self):
        result = build_table(3)
        idx = {name: i for i, name in enumerate(result.header)}
        for row in result.rows:
            if row[idx["spot"]] < 95.0:
                assert row[idx["barrier_euro"]] == pytest.approx(0.0, abs=5e-4)
                assert math.isnan(row[idx["barrier_eep_pct"]])
