"""Every import in the package modules and the demos is used, and so is every definition.

A stdlib `ast` pass stands in for a linter: a name bound by an import
statement must be read somewhere else in the same file, or be listed in the
file's `__all__`; a module-level function or class of the package must be in
its module's `__all__` or be read somewhere in the package.  `__init__.py`
imports only to re-export and is left out.
"""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted(p for p in (ROOT / "src" / "semimarket").glob("*.py")
                 if p.name != "__init__.py")
SOURCES = PACKAGE + sorted((ROOT / "demos").glob("*.py"))


def _exported(tree):
    """The names in the module's `__all__`."""
    return {elt.value for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for elt in node.value.elts}


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
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported(tree)
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


def unread_definitions(sources):
    """(module, name) of each module-level def or class no module reads or exports.

    sources maps module names to their source.  A name is read where it is
    loaded, as a bare name or as an attribute (`mod.name`), in any module.
    """
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted((mod, node.name) for mod, tree in trees.items() for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and node.name not in read | _exported(tree))


def test_unread_definition_check_finds_what_it_should():
    sources = {
        "a": ("__all__ = ['public']\n"
              "def public(): return _helper()\n"
              "def _helper(): pass\n"
              "def orphan(): pass\n"
              "class Lonely: pass\n"
              "def by_attribute(): pass\n"
              "def recursive(n): return recursive(n - 1)\n"),
        "b": ("from . import a\n"
              "def _user(): return a.by_attribute\n"
              "x = _user\n"
              "orphan = 1\n"),
    }
    # a store of the same name is no read; recursion reads its own name
    assert unread_definitions(sources) == [("a", "Lonely"), ("a", "orphan")]


def test_no_unread_definitions():
    sources = {path.stem: path.read_text() for path in PACKAGE}
    assert len(sources) >= 10
    assert unread_definitions(sources) == []
