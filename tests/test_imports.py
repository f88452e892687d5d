"""Every import in the package modules and the demos is used.

A stdlib `ast` pass stands in for a linter: a name bound by an import
statement must be read somewhere else in the same file, or be listed in the
file's `__all__`.  `__init__.py` imports only to re-export and is left out.
"""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted(p for p in (ROOT / "src" / "semimarket").glob("*.py")
                 if p.name != "__init__.py") + sorted((ROOT / "demos").glob("*.py"))


def unused_imports(source):
    """(line, name) of each name an import in `source` binds and nothing else reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts)
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_unused_import_check_finds_what_it_should():
    source = ("from __future__ import annotations\n"
              "import os, os.path\n"
              "import numpy as np\n"
              "from math import pi, tau as turn\n"
              "from json import dumps\n"
              "__all__ = ['dumps']\n"
              "x: np.ndarray = os.sep\n")
    assert unused_imports(source) == [(4, "pi"), (4, "turn")]


def test_no_unused_imports():
    assert len(SOURCES) >= 10
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in SOURCES for line, name in unused_imports(path.read_text())]
    assert found == []
