import importlib
import pkgutil

import pytest

import steadygain

MODULES = ["steadygain"] + [
    f"steadygain.{info.name}"
    for info in pkgutil.iter_modules(steadygain.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_exported_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == []
