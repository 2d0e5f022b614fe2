"""Spans around hejdstep's public functions at each module boundary.

The tracer replaces the module attributes through which one layer calls the
next (``pricing.find_roots``, ``inversion.solve_american_mr``, ...) with
wrappers that record a span (name, start, end, parent, tag) in memory, and
puts the originals back when it is removed.  Nothing in ``hejdstep`` is
edited.  Self time is a span's duration minus that of its child spans.
"""

from __future__ import annotations

import csv
import functools
import math
import time

import hejdstep
from hejdstep import inversion, montecarlo, pricing

# span name -> the (module, attribute) pairs through which callers reach it
BOUNDARIES = {
    "roots.find_roots": [(pricing, "find_roots")],
    "pricing.solve_european_mr": [(pricing, "solve_european_mr"), (inversion, "solve_european_mr")],
    "pricing.solve_american_mr": [(inversion, "solve_american_mr")],
    "pricing.eval": [(inversion, "eval_european_mr"), (inversion, "eval_american_mr"),
                     (inversion, "eval_eep_split_mr")],
    "inversion.gs_invert": [(inversion, "gs_invert")],
    "inversion.price_time_domain": [(inversion, "price_time_domain"), (hejdstep, "price_time_domain")],
    "montecarlo.simulate_terminal": [(montecarlo, "simulate_terminal")],
    "montecarlo.estimator": [(montecarlo, "mc_euro_step_price"), (hejdstep, "mc_euro_step_price"),
                             (hejdstep, "verify_duality")],
}
OP = "op"


class Tracer:
    """Spans of one traced run, kept in memory until ``write``."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, tag]
        self.stack: list[int] = []
        self.tag = ""
        self.root_keys: list[tuple] = []  # (model, level) of each find_roots call
        self.path_steps: dict[int, int] = {}  # simulate_terminal span -> path-steps
        self._saved: list[tuple] = []

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.tag])
        self.stack.append(sid)
        self.spans[sid][1] = time.perf_counter()
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self.stack.pop()

    def span(self, name: str, fn):
        sid = self._open(name)
        try:
            return fn()
        finally:
            self._close(sid)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            sid = self._open(name)
            if name == "roots.find_roots":
                self.root_keys.append((args[0], float(args[1])))
            elif name == "montecarlo.simulate_terminal":
                horizon, cfg = args[3], args[4]
                self.path_steps[sid] = cfg.n_paths * math.ceil(horizon / cfg.dt - 1e-12)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for name, sites in BOUNDARIES.items():
            for module, attr in sites:
                original = getattr(module, attr)
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(name, original)
                self._saved.append((module, attr, original))
                setattr(module, attr, wrappers[id(original)])

    def remove(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "name", "start", "end", "parent", "tag"))
            for sid, (name, start, end, parent, tag) in enumerate(self.spans):
                out.writerow((sid, name, repr(start), repr(end), parent, tag))


def layer_metrics(tracer: Tracer, n_ops: int, before: dict, after: dict) -> dict[str, float]:
    """Per-operation layer metrics of the traced round; ``before`` and
    ``after`` are the solve caches' (hits, misses) around it.  Simulation spans are also
    split by the tag they ran under, the Monte-Carlo market."""
    misses = {k: after[k][1] - before[k][1] for k in after}
    hits = sum(after[k][0] - before[k][0] for k in after)
    lookups = hits + sum(misses.values())
    own = tracer.self_times()
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    sim_by_tag: dict[str, list[float]] = {}
    for sid, (name, _, _, _, tag) in enumerate(tracer.spans):
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + own[sid]
        if sid in tracer.path_steps:
            acc = sim_by_tag.setdefault(tag, [0.0, 0.0])
            acc[0] += own[sid]
            acc[1] += tracer.path_steps[sid]
    keys = tracer.root_keys
    m = {
        "roots.find_roots.calls": calls.get("roots.find_roots", 0) / n_ops,
        "roots.find_roots.s": busy.get("roots.find_roots", 0.0) / n_ops,
        "roots.find_roots.distinct_share": len(set(keys)) / len(keys) if keys else 0.0,
        "pricing.solve_european_mr.calls": misses["european"] / n_ops,
        "pricing.solve_european_mr.s": busy.get("pricing.solve_european_mr", 0.0) / n_ops,
        "pricing.solve_american_mr.calls": misses["american"] / n_ops,
        "pricing.solve_american_mr.s": busy.get("pricing.solve_american_mr", 0.0) / n_ops,
        "pricing.cache.hit_share": hits / lookups if lookups else 0.0,
        "pricing.eval.calls": calls.get("pricing.eval", 0) / n_ops,
        "pricing.eval.s": busy.get("pricing.eval", 0.0) / n_ops,
        "inversion.gs_invert.s": busy.get("inversion.gs_invert", 0.0) / n_ops,
        "inversion.price_time_domain.calls": calls.get("inversion.price_time_domain", 0) / n_ops,
        "inversion.price_time_domain.s": busy.get("inversion.price_time_domain", 0.0) / n_ops,
        "montecarlo.simulate_terminal.calls": calls.get("montecarlo.simulate_terminal", 0) / n_ops,
        "montecarlo.simulate_terminal.s": busy.get("montecarlo.simulate_terminal", 0.0) / n_ops,
        "montecarlo.estimator.s": busy.get("montecarlo.estimator", 0.0) / n_ops,
    }
    for tag in ("light", "heavy"):
        sim_s, steps = sim_by_tag.get(tag, (0.0, 0.0))
        m[f"montecarlo.simulate_terminal.{tag}.s"] = sim_s / n_ops
        m[f"montecarlo.simulate_terminal.{tag}.path_steps_per_s"] = steps / sim_s if sim_s else 0.0
    return m
