"""Every module of the package uses each name it imports.

A small AST check standing in for a linter's unused-import rule: a name
counts as used when it is read anywhere in the module (``np`` of
``np.eye`` included) or listed in the module's ``__all__``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import multialign

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "multialign"


def _unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``.
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_the_check_finds_an_unused_name():
    source = ("from dataclasses import dataclass, replace\n"
              "import numpy as np\nimport os.path\n\n"
              "@dataclass\nclass A:\n    x: int = np.pi\n")
    assert _unused_imports(source) == ["os", "replace"]
    assert _unused_imports("from .a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_all_resolves_and_lists_every_public_import():
    # A name left in __all__ after its import is removed breaks
    # ``from multialign import *``; a public import missing from __all__ is
    # left out of it.
    namespace = {}
    exec("from multialign import *", namespace)
    assert set(multialign.__all__) <= set(namespace)
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names}
    assert {name for name in imported if not name.startswith("_")} <= set(multialign.__all__)
