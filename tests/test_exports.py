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


def test_package_exports_exactly_the_module_lists():
    modules = [heislab.model, heislab.group, heislab.calculus, heislab.diffusion,
               heislab.lsi, heislab.distance, heislab.config]
    assert heislab.__all__ == ["__version__", *(name for m in modules for name in m.__all__)]
    for module in modules:
        assert all(getattr(heislab, name) is getattr(module, name) for name in module.__all__)
