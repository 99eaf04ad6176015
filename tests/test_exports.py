"""Every exported name and every function the benchmark tracer wraps exists,
and the package computes with one BLAS."""

import ast
import importlib
import importlib.util
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


def _scipy_linalg_uses(source: str) -> list[int]:
    """Line numbers that import scipy.linalg or read it as an attribute."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}"]
        else:
            continue
        if any(name == "scipy.linalg" or name.startswith("scipy.linalg.") for name in names):
            lines.append(node.lineno)
    return lines


def test_no_scipy_linalg_in_the_package():
    """Every dense linear-algebra call runs on numpy's OpenBLAS.

    The numpy and scipy wheels each bundle their own OpenBLAS.  After a call
    into one copy, its idle worker spins on a core for a while, so the next
    threaded call into the other copy waits for it (cross-library
    spin-waits): on 2 cores a 0.5 ms covariance took 4.2 ms right after a
    ``scipy.linalg.eigvalsh``.  Calls into one copy only do not wait.
    """
    for sample in ("import scipy.linalg", "from scipy import linalg",
                   "from scipy.linalg import solve", "import scipy\nscipy.linalg.eigh(a)"):
        assert _scipy_linalg_uses(sample), sample
    assert SOURCES
    found = {
        path.name: lines for path in SOURCES
        if (lines := _scipy_linalg_uses(path.read_text()))
    }
    assert not found, f"scipy.linalg used in src/rkhstest (file: lines): {found}"
