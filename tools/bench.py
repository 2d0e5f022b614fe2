"""Paired benchmark runs of this checkout against a parent checkout.

Runs ``perfbench/run.py`` of each checkout, unchanged, on the workloads in
alternating pairs: pair i runs seed ``seeds[i]`` on both sides, the parent
first in even pairs and this checkout first in odd ones.  After the pairs it
makes one traced run (``--trace 1``) per side and workload, on the first
seed, for the per-layer metrics.  It writes one JSON file with the machine
(nproc, Python and numpy versions), every run's metrics, ``correct`` and
``failed``, each side's median and quartiles per metric, the pairwise wins,
the output fingerprint of each side (``tools/fingerprint.py`` of this
checkout, run against that side's ``src``) and each side's line count of
``src/hejdstep/*.py``.  Run from the root of a checkout:

    python3 tools/bench.py --parent ../parent --out BENCH_18.json --seeds 2-11

A metric's gain is claimed only on at least ten pairs, when the change wins
at least nine tenths of them (ties count for neither) and the medians differ
by more than the parent's interquartile spread; ``gain`` records that rule
and ``within_bound`` whether the change's median is worse than the parent's
by at most the bound ``BENCHMARK.json`` fixes.  With fewer pairs the
parent's spread says nothing (one pair has none), so no gain is claimed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def seeds_arg(text: str) -> list[int]:
    """'2-11' or '2,5,7' -> the seeds."""
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def run(side: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The last JSON line of one perfbench run in the checkout ``side``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=side, capture_output=True, text=True, check=True)
    out = json.loads(done.stdout.strip().splitlines()[-1])
    print(f"{side.name} {workload} seed={seed} trace={trace} correct={out['correct']} "
          + " ".join(f"{k}={v['value']:.4g}" for k, v in out["metrics"].items() if not trace), file=sys.stderr)
    return {"seed": seed, "correct": out["correct"], "attempted": out["attempted"], "failed": out["failed"],
            "metrics": {k: v["value"] for k, v in out["metrics"].items()}}


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"q1": float(q1), "median": float(median), "q3": float(q3)}


def fingerprint(side: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(side / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "fingerprint.py")], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout.strip().splitlines()[-1].split()[-1]


def src_lines(side: Path) -> int:
    """Lines of the side's src/hejdstep/*.py, as wc -l counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (side / "src" / "hejdstep").glob("*.py"))


def revision(side: Path) -> str | None:
    """The side's git commit, with '+changes' when its tree differs from it."""
    try:
        head = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=side, capture_output=True,
                              text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=side,
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    return head + ("+changes" if dirty else "")


def compare(parent: list[dict], change: list[dict], spec: dict) -> dict:
    """Per end-to-end metric: each side's quartiles, the pairwise wins and the two rules."""
    out = {}
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        p = [r["metrics"][name] for r in parent]
        c = [r["metrics"][name] for r in change]
        wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
        losses = sum((b > a) if lower else (b < a) for a, b in zip(p, c))
        ps, cs = quartiles(p), quartiles(c)
        worse = (cs["median"] - ps["median"]) if lower else (ps["median"] - cs["median"])
        out[name] = {
            "parent": ps, "change": cs, "wins": wins, "losses": losses, "pairs": len(p),
            "change_over_parent": cs["median"] / ps["median"] if ps["median"] else None,
            "gain": len(p) >= 10 and wins >= 0.9 * len(p) and -worse > ps["q3"] - ps["q1"],
            "within_bound": worse <= m["bound"] * abs(ps["median"]),
        }
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", type=Path, required=True, help="root of the parent checkout")
    ap.add_argument("--out", type=Path, required=True, help="the BENCH_<n>.json to write")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"), help="one seed per pair, e.g. 2-11")
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]],
                    help="default: every workload in BENCHMARK.json")
    ap.add_argument("--seconds", type=int, help="run length (default: BENCHMARK.json's run_seconds)")
    args = ap.parse_args()
    seconds = args.seconds or spec["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    runs = {w: {"parent": [], "change": []} for w in args.workloads}
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in args.workloads:
            for side in order:
                runs[w][side].append(dict(run(sides[side], w, seed, seconds, 0), first=side == order[0]))
    traced = {w: {side: run(path, w, args.seeds[0], seconds, 1) for side, path in sides.items()}
              for w in args.workloads}
    doc = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__},
        "settings": {"seconds": seconds, "seeds": args.seeds, "trace": 0,
                     "command": "python3 perfbench/run.py --workload W --seed S --seconds N --trace 0"},
        "revision": {side: revision(path) for side, path in sides.items()},
        "fingerprint": {side: fingerprint(path) for side, path in sides.items()},
        "src_lines": {side: src_lines(path) for side, path in sides.items()},
        "workloads": {
            w: {
                "compare": compare(runs[w]["parent"], runs[w]["change"], spec),
                "correct": {side: all(r["correct"] for r in rs) for side, rs in runs[w].items()},
                "failed_per_attempted": {side: [[r["failed"], r["attempted"]] for r in rs]
                                         for side, rs in runs[w].items()},
                "runs": runs[w],
                "traced": traced[w],
            }
            for w in args.workloads
        },
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for w in args.workloads:
        for name, c in doc["workloads"][w]["compare"].items():
            print(f"{w} {name} parent {c['parent']['median']:.4g} change {c['change']['median']:.4g} "
                  f"wins {c['wins']}/{c['pairs']} gain={c['gain']} within_bound={c['within_bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
