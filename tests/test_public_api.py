import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import steadygain

MODULES = ["steadygain"] + [
    f"steadygain.{info.name}"
    for info in pkgutil.iter_modules(steadygain.__path__)]

BENCHMARK_CASES = (Path(__file__).resolve().parents[1] / "perfbench"
                   / "cases.py")


@pytest.mark.parametrize("module_name", MODULES)
def test_exported_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == []


def test_benchmark_trace_targets_resolve(monkeypatch):
    # The benchmark's tracer wraps each target as vars(owner)[attr], so a
    # name it traces that leaves the package breaks every traced run.
    # The benchmark module is loaded without writing its bytecode.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("benchmark_cases",
                                                  BENCHMARK_CASES)
    cases = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, cases)
    spec.loader.exec_module(cases)
    targets = cases.trace_targets()
    assert targets
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _, _ in targets if attr not in vars(owner)]
    assert missing == []
