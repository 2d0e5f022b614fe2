"""tools/bench.py's comparison rule on synthetic runs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SPEC = {"end_to_end": [{"name": "op_s_p50", "better": "lower", "bound": 0.25}]}


@pytest.fixture(scope="module")
def bench():
    path = Path(__file__).resolve().parents[1] / "tools" / "bench.py"
    loader = importlib.util.spec_from_file_location("bench", path)
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return module


def _compare(bench, parent: list[float], change: list[float]) -> dict:
    runs = lambda values: [{"metrics": {"op_s_p50": v}} for v in values]
    return bench.compare(runs(parent), runs(change), SPEC)["op_s_p50"]


def test_one_pair_claims_no_gain(bench):
    # one pair has no spread, so any win would count
    out = _compare(bench, [0.0293], [0.0191])
    assert (out["wins"], out["pairs"], out["gain"]) == (1, 1, False)


def test_ten_winning_pairs_with_tight_spread_gain(bench):
    out = _compare(bench, [1.0 + 0.001 * i for i in range(10)], [0.5 + 0.001 * i for i in range(10)])
    assert (out["wins"], out["pairs"], out["gain"]) == (10, 10, True)


def test_eight_wins_of_ten_claim_no_gain(bench):
    out = _compare(bench, [1.0 + 0.001 * i for i in range(10)], [0.5] * 8 + [2.0] * 2)
    assert (out["wins"], out["losses"], out["gain"]) == (8, 2, False)
    assert out["change"]["median"] == 0.5  # the medians alone would claim it
