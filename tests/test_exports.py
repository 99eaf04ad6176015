"""Every exported name and every function the benchmark tracer wraps exists,
and the package computes with numpy alone, on one BLAS."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rkhstest

MODULES = ("kernels", "losses", "estimators", "inference", "simulation", "cli")
ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
SOURCES = sorted((ROOT / "src" / "rkhstest").glob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"rkhstest.{module}")
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing, f"rkhstest.{module}.__all__ names missing {missing}"


def test_package_exports_are_module_exports():
    # the package re-exports by import; each public name must be one its
    # defining module still lists in __all__
    stray = [
        name
        for name, obj in vars(rkhstest).items()
        if not name.startswith("_") and name not in MODULES
        and name not in importlib.import_module(obj.__module__).__all__
    ]
    assert not stray, f"rkhstest re-exports names outside their module's __all__: {stray}"


def test_tracer_targets_exist():
    # a traced benchmark run patches these names and fails if one is gone
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert set(tracer.MODULES) <= set(MODULES)
    targets = [
        pair
        for entry in tracer.FUNCTIONS.values()
        for pair in (entry if isinstance(entry, list) else [entry])
    ]
    missing = [
        f"{m}.{a}" for m, a in targets
        if not callable(getattr(importlib.import_module(f"rkhstest.{m}"), a, None))
    ]
    assert not missing, f"perfbench/tracer.py traces missing functions {missing}"


def _scipy_uses(source: str) -> list[int]:
    """Line numbers that import scipy or a scipy module, or read one as an attribute."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [node.value.id]
        else:
            continue
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            lines.append(node.lineno)
    return lines


def test_no_scipy_in_the_package():
    """numpy is the package's only numerical dependency.

    The numpy and scipy wheels each bundle their own OpenBLAS.  After a call
    into one copy, its idle worker spins on a core for a while, so the next
    threaded call into the other copy waits for it (cross-library
    spin-waits): on 2 cores a 0.5 ms covariance took 4.2 ms right after a
    ``scipy.linalg.eigvalsh``.  Importing scipy at all also loads hundreds of
    modules and maps its OpenBLAS.
    """
    for sample in ("import scipy.linalg", "from scipy import linalg",
                   "from scipy.linalg import solve", "import scipy\nscipy.linalg.eigh(a)",
                   "from scipy.special import expit"):
        assert _scipy_uses(sample), sample
    assert SOURCES
    found = {
        path.name: lines for path in SOURCES
        if (lines := _scipy_uses(path.read_text()))
    }
    assert not found, f"scipy used in src/rkhstest (file: lines): {found}"


_WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import numpy as np
import rkhstest.cli, rkhstest.simulation
from rkhstest.estimators import FitConfig, fit_constrained_ridge, greedy_fit
from rkhstest.kernels import GaussianRBF
from rkhstest.losses import logistic_loss

rng = np.random.default_rng(0)
x = rng.uniform(-2.0, 2.0, (60, 1))
y = np.sin(2.0 * x[:, 0]) + 0.1 * rng.normal(size=60)
ridge = fit_constrained_ridge(GaussianRBF(0.5), x, y, budget=0.5)
labels = np.where(y > 0.0, 1.0, -1.0)
greedy = greedy_fit(x, labels, logistic_loss(), GaussianRBF(0.5), FitConfig(budget=2.0, iterations=50))
with open("/proc/self/maps") as maps:
    blas = {line.split()[-1] for line in maps if "openblas" in line.rsplit("/", 1)[-1].lower()}
print(json.dumps({
    "ridge": [ridge.features is None, ridge.budget_binding],
    "greedy_steps": len(greedy.trace.steps),
    "scipy": sorted(m for m, mod in sys.modules.items() if mod is not None and m.split(".")[0] == "scipy"),
    "openblas": sorted(blas),
}))
"""


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="reads the Linux memory map")
def test_fits_run_without_scipy_on_one_openblas():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["ridge"] == [True, True]  # a binding ridge fit on an RBF Gram
    assert report["greedy_steps"] == 50
    assert report["scipy"] == []
    assert len(report["openblas"]) == 1, report["openblas"]
