"""The public surface: every name a module exports in __all__ exists,
the package imports nothing beyond the standard library and numpy, and
every top-level function and class has a reader."""

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
    assert len(sources) == len(MODULES) + 3  # __main__ and the private _text and _crmath too
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


# Top-level names of src/graphgrowth that nothing in the package, the
# demos or the benchmark loads, each kept for a reader outside them.
CALLER_FREE = {
    # the point value with its phase: the finite-difference check of f'
    # reads f and f' as complex numbers, which no batch path gives
    "eval_f": "families.py",
    "eval_fprime": "families.py",
    # the scalar stage equations: the tests' reference for the columns
    # of build_schedule, bit for bit
    "solve_sigma": "schedule.py",
    "check_hyp2": "schedule.py",
    # the closed-form e^z area curve that acceptance criterion 4 and the
    # by-design quadrature tests hold the estimate against
    "ez_area_closed_bound": "quadrature.py",
    # the directed-rounding proof of the sin(e^z) packets' drift bound
    # that the packets docstring cites
    "verify_ez_minus_one_bound": "packets.py",
    # one packet's certified area, which acceptance criterion 1 sums over
    # the packet list API
    "packet_area_lower": "packets.py",
}


def _top_level_defs(path):
    return [node for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def test_every_top_level_name_has_a_caller():
    # one path per computation: a function or class of the package that
    # no other code loads by name (a call, an attribute, a base class) is
    # dead, unless CALLER_FREE names it; __init__.py's re-exports and
    # __all__ strings are not loads, and a definition's loads of its own
    # name (recursion) do not count
    package = Path(graphgrowth.__file__).parent
    root = package.parents[1]
    modules = [path for path in sorted(package.glob("*.py")) if path.name != "__init__.py"]
    defined = {node.name: path.name for path in modules for node in _top_level_defs(path)}
    readers = modules + sorted((root / "demos").glob("*.py")) + sorted(
        (root / "perfbench").glob("*.py"))
    loaded = set()
    for path in readers:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(top, "name", None) if path.parent == package else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    name = node.attr
                else:
                    continue
                if name != own:
                    loaded.add(name)
    unread = {name: where for name, where in defined.items() if name not in loaded}
    assert unread == CALLER_FREE
