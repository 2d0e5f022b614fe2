"""Benchmark of hejdstep: one command per workload run.

    python3 perfbench/run.py --workload quote_book --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports ``hejdstep`` from its
``src`` directory.  Every measurement runs in a fresh interpreter
(``worker.py``), so set-up time includes the import and the caches start
cold.  With ``--trace 0`` the workload is set up several times and the
median set-up time is reported with the end-to-end metrics; with
``--trace 1`` one traced process reports the per-layer metrics.  The last
line of standard output is the result as one JSON object; the result and the
trace are also written under ``perfbench/results``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ("quote_book", "risk_grid", "mc_oracle")
SETUP_RUNS = 4  # set-ups per untraced run, the last one followed by the measurement
DEADLINE_S = 170.0  # the whole run, all worker processes included


def declared_units(trace: int) -> dict[str, str]:
    """Units of the metrics BENCHMARK.json declares for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_worker(args: argparse.Namespace, deadline: float, *extra: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--src", str(SRC)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0), *extra], env=env, cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"{args.workload} did not end within {DEADLINE_S:.0f} s")
    if proc.returncode != 0 or not out.strip():
        raise SystemExit(f"worker for {args.workload} failed with exit code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "hejdstep" / "__init__.py").is_file():
        print(f"no hejdstep sources under {SRC}: run from the root of a checkout", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        trace_file = RESULTS / f"{stem}-spans.csv"
        child = run_worker(args, deadline, "--trace", "1", "--trace-file", str(trace_file))
        metrics = child["metrics"]
    else:
        setups = [run_worker(args, deadline, "--setup-only")["setup_s"] for _ in range(SETUP_RUNS - 1)]
        child = run_worker(args, deadline)
        setups.append(child["setup_s"])
        metrics = dict(child["metrics"], setup_s=statistics.median(setups))
    named = child["named"]

    units = declared_units(args.trace)
    if set(metrics) != set(units):
        print(f"metrics {sorted(metrics)} differ from those BENCHMARK.json declares", file=sys.stderr)
        return 1
    for p in child["problems"]:
        print(f"check failed: {p}", file=sys.stderr)
    for name, (value, like) in named.items():
        print(f"{args.workload} {name} {value:.6g} {units[like]}")
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {units[name]}")
    result = {
        "correct": child["correct"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(
        dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
             rounds=child["rounds"], named=named, problems=child["problems"]), indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
