"""Tooling: no module of the package, and no test file, imports a name it
never uses; no package module exports a name it does not define; and no
package source, test file or README cites a private name, module._name,
or a member of one, module._name.member, that the package module lacks."""

import ast
import importlib
import inspect
import re
import textwrap
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


# the files whose code, docstrings and comments cite private names, by
# the names MODULES gives them, with the package's __init__ and README
CITING = {**MODULES, "__init__": PACKAGE / "__init__.py", "README": TESTS.parent / "README.md"}
# module._name for a package module, with any dotted tail (._name.member)
CITATION = re.compile(r"\b(%s)\.(_[A-Za-z]\w*(?:\.\w+)*)" % "|".join(
    m for m in MODULES if not m.startswith("tests/")))


def _instance_members(cls: type) -> set:
    """The attributes a package class's instances carry that the class
    itself may lack: its dataclass or NamedTuple fields, and every
    attribute a method of it or of a package base assigns on self."""
    names = set(getattr(cls, "__dataclass_fields__", ())) | set(getattr(cls, "_fields", ()))
    for klass in cls.__mro__:
        if not klass.__module__.startswith("nlslab."):
            continue
        tree = ast.parse(textwrap.dedent(inspect.getsource(klass)))
        names |= {node.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                  and isinstance(node.value, ast.Name) and node.value.id == "self"}
    return names


def _resolves(module, path: str) -> bool:
    """Whether each part of path resolves with getattr from module; a part
    a class lacks counts where its instances carry it, and ends the path."""
    obj = module
    for part in path.split("."):
        if hasattr(obj, part):
            obj = getattr(obj, part)
        else:
            return isinstance(obj, type) and part in _instance_members(obj)
    return True


def _stale_citations(text: str) -> list:
    """The module._name citations in text, with their dotted tails, that do
    not resolve in their package module, each once, sorted."""
    return sorted({m.group(0) for m in CITATION.finditer(text) if not _resolves(
        importlib.import_module(f"nlslab.{m.group(1)}"), m.group(2))})


@pytest.mark.parametrize("name", sorted(CITING))
def test_every_cited_private_name_exists(name):
    assert _stale_citations(CITING[name].read_text()) == []


def test_a_stale_citation_is_caught():
    # the stale names are split across literals, so that this file cites
    # none itself
    text = (
        "# the layout (spectral._layout, not spectral" "._grid_view), as\n"
        "# propagator._Buffers.virial and tests/test_spectral.py read it;\n"
        "spectral" "._grid_view(v) + propagator" "._PAD  # spectral.GridSpec is public\n"
        "# propagator._Buffers" ".workspace(n), propagator._Buffers.__init__,\n"
        "# experiment._Section.keys, groundstate._solve_cached.cache_clear()\n"
    )
    assert _stale_citations(text) == ["propagator" "._Buffers" ".workspace", "propagator" "._PAD",
                                      "spectral" "._grid_view"]
