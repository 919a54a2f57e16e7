"""The public names of every module resolve, and so does every function the
benchmark's tracer wraps by name."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import dckm

MODULES = ["dckm"] + [f"dckm.{m.name}" for m in pkgutil.iter_modules(dckm.__path__)]
TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [(module, attr) for module, attr, _ in tracer.TRACED] + [("solver", "_backtrack")]
    missing = [
        f"dckm.{module}.{attr}"
        for module, attr in targets
        if not callable(getattr(importlib.import_module(f"dckm.{module}"), attr, None))
    ]
    assert not missing
