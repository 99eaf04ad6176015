"""Every exported name and every function the benchmark tracer wraps exists."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import rkhstest

MODULES = ("kernels", "losses", "estimators", "inference", "simulation", "cli")
TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
