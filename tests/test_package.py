"""Package surface: every name a module exports exists."""

import importlib
import pkgutil

import pytest

import bhkovacic

MODULES = ["bhkovacic"] + [
    f"bhkovacic.{info.name}" for info in pkgutil.iter_modules(bhkovacic.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing
