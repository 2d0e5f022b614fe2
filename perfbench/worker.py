"""One benchmark process: set up a workload, run whole rounds of its
operations for the given time, check every output, report as one JSON line.

Started by ``run.py`` with ``src`` on PYTHONPATH; ``--t0`` is the parent's
``time.perf_counter()`` just before the start, so that ``setup_s`` counts the
interpreter start as well.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

IMPORT_START = time.perf_counter()
import hejdstep  # noqa: E402

IMPORT_S = time.perf_counter() - IMPORT_START

from tracing import OP, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MAX_PROBLEMS = 20


def run_round(workload, tracer: Tracer | None = None) -> dict:
    """Run one round of operations closed-loop, then check the outputs."""
    ops = workload.operations()
    latencies, outputs = [], []
    start = time.perf_counter()
    for tag, fn in ops:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = fn()
            else:
                tracer.tag = tag
                out = tracer.span(OP, fn)
        except hejdstep.HejdStepError as exc:
            out = exc
        latencies.append(time.perf_counter() - t0)
        outputs.append(out)
    wall = time.perf_counter() - start
    problems, failed = workload.check(outputs)
    return dict(latencies=latencies, outputs=outputs, wall=wall, problems=problems, failed=failed,
                total=time.perf_counter() - start)


def run_rounds(workload, seconds: float) -> list[dict]:
    """Whole rounds until another one would end past ``seconds``."""
    rounds: list[dict] = []
    start = time.perf_counter()
    while True:
        done = run_round(workload)
        del done["outputs"]  # checked already; keep memory flat across rounds
        rounds.append(done)
        longest = max(r["total"] for r in rounds)
        if time.perf_counter() - start + longest > seconds:
            return rounds


def quantile(values: list[float], q: float) -> float:
    """The q-quantile of ``values`` (exclusive method of the statistics module)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="exclusive")[round(q * 100) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def summarize(workload, rounds: list[dict]) -> dict:
    latencies = [v for r in rounds for v in r["latencies"]]
    wall = sum(r["wall"] for r in rounds)
    problems = [p for r in rounds for p in r["problems"]]
    metrics = dict(
        op_s_p50=statistics.median(latencies),
        op_s_tail=quantile(latencies, workload.tail),
        ops_per_s=len(latencies) / wall,
        peak_rss_mb=peak_rss_mb(),
    )
    # the same metrics under the workload's own names: name -> (value, metric)
    named = {name: (metrics[key], key) for name, key in workload.named.items()}
    if hasattr(workload, "path_steps_per_op"):
        named["path_steps_per_s"] = (workload.path_steps_per_op * metrics["ops_per_s"], "ops_per_s")
    return dict(
        rounds=len(rounds),
        attempted=len(latencies),
        failed=sum(r["failed"] for r in rounds),
        correct=not problems,
        problems=problems[:MAX_PROBLEMS],
        metrics=metrics,
        named=named,
    )


def traced_run(workload, trace_path: Path) -> dict:
    """One untraced and one traced round of the same operations."""
    plain = run_round(workload)
    tracer = Tracer()
    before = workload.caches.counts()
    tracer.install()
    if hasattr(workload, "tracer"):
        workload.tracer = tracer
    try:
        traced = run_round(workload, tracer)
    finally:
        tracer.remove()
    after = workload.caches.counts()
    tracer.write(trace_path)
    n_ops = len(traced["latencies"])
    metrics = {"setup.import_s": IMPORT_S}
    metrics.update(layer_metrics(tracer, n_ops, before, after))
    metrics["trace.overhead_s"] = (traced["wall"] - plain["wall"]) / n_ops
    problems = plain["problems"] + traced["problems"]
    return dict(
        rounds=2,
        attempted=2 * n_ops,
        failed=plain["failed"] + traced["failed"],
        correct=not problems,
        problems=problems[:MAX_PROBLEMS],
        metrics=metrics,
        named={},
    )


def list_failed(workload) -> None:
    """Print the failing operations of one round of risk_grid."""
    outputs = run_round(workload)["outputs"]
    problems, failed = workload.evaluate(outputs)
    values = dict(zip(workload.tasks, outputs))
    for key in sorted(failed):
        name, i, j, q = key
        print(f"{name} x={workload.spot(i, j):.6g} {q} = {values[key]!r}")
    print(f"{len(failed)} failed of {len(outputs)}; {len(problems)} problems")
    for p in problems:
        print("problem:", p)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, default=IMPORT_START)
    ap.add_argument("--src", help="directory that hejdstep must be imported from")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--list-failed", action="store_true")
    ap.add_argument("--trace-file", type=Path)
    args = ap.parse_args()

    if args.src and Path(hejdstep.__file__).resolve().parent.parent != Path(args.src).resolve():
        print(f"hejdstep imported from {hejdstep.__file__}, not from {args.src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    setup_s = time.perf_counter() - args.t0
    if args.list_failed:
        if not hasattr(workload, "evaluate"):
            ap.error("--list-failed applies to risk_grid")
        list_failed(workload)
        return 0
    if args.setup_only:
        result: dict = dict(setup_s=setup_s)
    elif args.trace:
        result = traced_run(workload, args.trace_file or Path(f"trace_{workload.name}.csv"))
        result["setup_s"] = setup_s
    else:
        result = summarize(workload, run_rounds(workload, args.seconds))
        result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
