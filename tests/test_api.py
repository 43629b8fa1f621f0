"""The public surface: every name a module exports in __all__ exists,
and the package imports nothing beyond the standard library and numpy."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import graphgrowth

MODULES = ["graphgrowth"] + sorted(
    f"graphgrowth.{info.name}" for info in pkgutil.iter_modules(graphgrowth.__path__)
    if not info.name.startswith("_")
)


def test_submodules_found():
    for name in ("families", "quadrature", "packets", "growth", "schedule"):
        assert f"graphgrowth.{name}" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_runtime_imports_are_stdlib_or_numpy():
    # numpy is the only runtime dependency; every absolute import in the
    # package's sources, at any depth of the file, names a standard-library
    # module or numpy (relative imports stay inside the package)
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    sources = sorted(Path(graphgrowth.__file__).parent.glob("*.py"))
    assert len(sources) == len(MODULES) + 1  # __main__ too
    found = {}
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.split(".")[0], path.name)
    assert "numpy" in found
    assert {top: where for top, where in found.items() if top not in allowed} == {}
