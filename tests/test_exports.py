"""Every name a flowlab module exports resolves."""

import importlib
import pkgutil

import pytest

import flowlab

MODULES = ["flowlab"] + [
    "flowlab." + info.name for info in pkgutil.iter_modules(flowlab.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [name for name in exported if not hasattr(module, name)] == []
