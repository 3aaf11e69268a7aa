"""`import pground` loads only what a solve runs on: numpy (with numpy.fft,
which the box grids' sine transforms use), scipy.sparse, scipy.sparse.linalg
and scipy.linalg.  The SciPy subpackages that only the mask inradius and the
oracles use are imported where those are called."""

import ast
import inspect
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

OFF_SOLVE_PATH = ("scipy.ndimage", "scipy.integrate", "scipy.optimize",
                  "scipy.fft")


def _loaded(code: str) -> list:
    """The modules under OFF_SOLVE_PATH that a fresh interpreter has loaded
    after running code."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = (f"{code}\nimport json, sys\n"
             f"print(json.dumps(sorted(m for m in sys.modules if any("
             f"m == k or m.startswith(k + '.') for k in {OFF_SOLVE_PATH!r}))))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


PUBLIC = [
    "Custom", "DegenerateIterate", "EnergyReport", "Grid", "GridFunction",
    "InitPolicy", "Interval", "IterationTrace", "MaskDomain",
    "NonConvergence", "PositiveConstant", "RandomPositive", "Rectangle",
    "SweepResult", "build_grid", "check_monotonicity",
    "consistency_estimators", "inradius", "inverse_iterate",
    "lambda2_reference", "lambda_p_shooting_1d", "monotone_supnorm_check",
    "p_norm_pow", "rayleigh_bruteforce", "rayleigh_quotient", "sweep",
    "verify",
]


def test_public_names():
    import pground
    assert len(PUBLIC) == 27
    assert sorted(pground.__all__) == PUBLIC
    assert all(getattr(pground, name) is not None for name in PUBLIC)


def test_public_classes_and_functions_have_their_own_docstrings():
    """A dataclass without one shows only its generated signature, so the
    docstring is read from each definition's source."""
    import pground
    missing = []
    for name in PUBLIC:
        obj = getattr(pground, name)
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue  # InitPolicy, a Union
        node = ast.parse(textwrap.dedent(inspect.getsource(obj))).body[0]
        if not ast.get_docstring(node):
            missing.append(name)
    assert missing == []


@pytest.mark.parametrize("module", ["pground", "pground.cli"])
def test_import_leaves_unused_scipy_out(module):
    assert _loaded(f"import {module}") == []


def test_oracles_and_inradius_load_their_subpackages():
    loaded = _loaded(
        "import numpy as np\n"
        "import pground\n"
        "mask = pground.MaskDomain(2, 2, np.array([[1, 1], [1, 0]]), 0.5)\n"
        "assert pground.inradius(mask) > 0\n"
        "assert pground.lambda_p_shooting_1d(2.0, tol=1e-6) > 0\n"
        "assert pground.rayleigh_bruteforce(pground.Interval(0.0, 1.0), 3, "
        "3.0, restarts=1) > 0")
    # scipy.integrate and scipy.optimize import scipy.fft themselves
    assert {m.split(".")[1] for m in loaded} == {"ndimage", "integrate",
                                                 "optimize", "fft"}
