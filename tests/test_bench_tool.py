"""tools/bench.py's comparison rule on synthetic runs, its line count, and its
default workloads."""

from __future__ import annotations

import importlib.util
import json
import sys
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


def test_src_lines_counts_the_package_modules(bench, tmp_path):
    for side, texts in {"parent": ["a\nb\n", "c\n"], "change": ["a\n", "no newline"]}.items():
        package = tmp_path / side / "src" / "hejdstep"
        package.mkdir(parents=True)
        for i, text in enumerate(texts):
            (package / f"m{i}.py").write_text(text)
        (package / "notes.txt").write_text("not counted\n")
    assert bench.src_lines(tmp_path / "parent") == 3
    assert bench.src_lines(tmp_path / "change") == 1  # wc -l: a last line without a newline is not counted


def test_default_workloads_come_from_benchmark_json(bench, monkeypatch, tmp_path):
    # without --workloads the tool runs every workload BENCHMARK.json names, in its order
    metrics = {"op_s_p50": 1.0, "op_s_tail": 1.0, "ops_per_s": 1.0, "setup_s": 1.0, "peak_rss_mb": 1.0}
    monkeypatch.setattr(bench, "run", lambda side, workload, seed, seconds, trace: {
        "seed": seed, "correct": True, "attempted": 1, "failed": 0, "metrics": metrics})
    monkeypatch.setattr(bench, "fingerprint", lambda side: "0" * 64)
    monkeypatch.setattr(bench, "src_lines", lambda side: 0)
    monkeypatch.setattr(bench, "revision", lambda side: None)
    out = tmp_path / "bench.json"
    monkeypatch.setattr(sys, "argv", ["bench.py", "--parent", str(tmp_path), "--out", str(out), "--seeds", "1"])
    assert bench.main() == 0
    assert list(json.loads(out.read_text())["workloads"]) == ["quote_book", "risk_grid", "mc_oracle"]
