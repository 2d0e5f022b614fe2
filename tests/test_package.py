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
