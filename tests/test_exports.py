"""Every name that the package or one of its modules exports resolves."""

import importlib
import pkgutil

import pytest

import heislab

MODULES = ["heislab"] + [f"heislab.{info.name}" for info in pkgutil.iter_modules(heislab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [attr for attr in exported if not hasattr(module, attr)] == []
