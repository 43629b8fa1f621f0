"""The public surface: every name a module exports in __all__ exists."""

import importlib
import pkgutil

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
