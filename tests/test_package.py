"""Package surface: every name a module exports exists, and the runtime
imports nothing outside the standard library."""

import ast
import importlib
import pathlib
import pkgutil
import sys

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


def _imported_top_modules(path):
    """Top-level names of the modules one source file imports (relative: the package)."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "bhkovacic" if node.level else node.module.partition(".")[0]


SOURCES = sorted(pathlib.Path(bhkovacic.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_runtime_imports_only_the_standard_library(path):
    outside = {
        name
        for name in _imported_top_modules(path)
        if name != "bhkovacic" and name not in sys.stdlib_module_names
    }
    assert not outside, f"{path.name} imports {sorted(outside)}"
