"""Tooling: no module of the package, and no test file, imports a name it
never uses, and no package module exports a name it does not define."""

import ast
import importlib
import types
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "nlslab"
# each checked file by its name: a package module by its stem (__init__.py
# imports to re-export), a test file as tests/<stem>
MODULES = {p.stem: p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
MODULES.update({f"tests/{p.stem}": p for p in sorted(TESTS.glob("*.py"))})


def _unused_imports(tree: ast.Module) -> list:
    """The names tree imports and never reads, a name listed in its
    __all__ counting as read."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_every_module_is_checked():
    assert {"cli", "experiment", "propagator", "spectral", "tests/conftest",
            "tests/test_imports"} <= set(MODULES)


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_unused_imports(module):
    tree = ast.parse(MODULES[module].read_text())
    assert _unused_imports(tree) == []


def test_an_unused_import_is_caught():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from json import dumps, loads as read\n"
        "from math import pi, tau\n"
        "__all__ = ['pi']\n"
        "def f(x: tau):\n"
        "    return read(x), os.sep\n"
    )
    assert _unused_imports(tree) == ["dumps (line 3)"]


def _stale_exports(module) -> list:
    """The names in module's __all__ that module does not define; such a
    name breaks only `from module import *`."""
    return [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]


@pytest.mark.parametrize("module", sorted(m for m in MODULES if not m.startswith("tests/")))
def test_every_exported_name_exists(module):
    assert _stale_exports(importlib.import_module(f"nlslab.{module}")) == []


def test_a_stale_export_is_caught():
    module = types.ModuleType("exports")
    module.pi = 3.14
    module.__all__ = ["pi", "tau"]
    assert _stale_exports(module) == ["tau"]
