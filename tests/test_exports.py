"""Every ``__all__`` in the package names only attributes that exist."""

import importlib
import pkgutil

import pytest

import mmvport

MODULES = ["mmvport"] + [
    f"mmvport.{info.name}" for info in pkgutil.iter_modules(mmvport.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
