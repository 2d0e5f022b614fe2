"""The package's public surface: what ``import hejdstep`` loads and exports."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


MODULES = ["model", "roots", "pricing", "inversion", "montecarlo", "errors"]
PUBLIC = [
    "__version__",
    "HejdModel", "DownOutStepSpec", "laplace_exponent", "dual_model",
    "RootSet", "find_roots",
    "MrEuropeanSolution", "MrAmericanSolution",
    "solve_european_mr", "eval_european_mr", "solve_american_mr",
    "eval_eep_mr", "eval_eep_split_mr", "eval_american_mr",
    "gs_weights", "gs_invert", "price_time_domain", "price_summary",
    "QUANTITIES", "DEFAULT_GS_ORDER",
    "PathConfig", "McEstimate", "DualityReport",
    "simulate_terminal", "mc_euro_step_price", "verify_duality",
    "HejdStepError", "ConfigError", "PoleError",
    "BracketError", "ConvergenceError", "SingularSystemError",
    "NoBoundaryError", "AmbiguousBoundaryError", "OrderError", "BudgetError",
]


def test_package_all_is_the_modules_all():
    # each public name is declared once, in its module's __all__; the package
    # republishes them in module order, and a name added or dropped fails here
    modules = [importlib.import_module(f"hejdstep.{name}") for name in MODULES]
    assert len(set(hejdstep.__all__)) == len(hejdstep.__all__)
    assert hejdstep.__all__ == ["__version__"] + [n for m in modules for n in m.__all__]
    assert hejdstep.__all__ == PUBLIC
    for name in hejdstep.__all__:
        getattr(hejdstep, name)


@pytest.mark.parametrize("module", MODULES)
def test_star_import_binds_the_module_all(module):
    namespace = {}
    exec(f"from hejdstep.{module} import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(importlib.import_module(f"hejdstep.{module}").__all__)
