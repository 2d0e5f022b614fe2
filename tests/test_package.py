"""The package's public surface: what ``import hejdstep`` loads and exports."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import hejdstep

# test oracles, kept in tests/oracles.py and out of the library
ORACLE_NAMES = [
    "oide_residual", "generator_apply", "GeneratorConfig", "levy_exponent", "QuadratureError",
]


def test_import_loads_no_quadrature_and_exports_no_oracles():
    # a fresh interpreter: this test session imports scipy itself.  The
    # library needs numpy only; scipy is a test dependency
    src = str(Path(hejdstep.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    probe = (
        "import json, sys, hejdstep; "
        "print(json.dumps([[m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')], "
        f"[n for n in {ORACLE_NAMES!r} if hasattr(hejdstep, n)]]))"
    )
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert json.loads(done.stdout) == [[], []]


def test_benchmark_tracing_names_resolve(monkeypatch):
    # the benchmark reaches the engine by name: its tracer wraps module
    # attributes, and its cold rounds clear the two solve caches.  A rename
    # in the library must fail here, not silently in the benchmark
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from tracing import BOUNDARIES

    for name, sites in BOUNDARIES.items():
        for module, attr in sites:
            assert callable(getattr(module, attr, None)), (name, module.__name__, attr)
    for solve in (hejdstep.solve_european_mr, hejdstep.solve_american_mr):
        assert callable(solve.cache_info) and callable(solve.cache_clear)
