"""Static hygiene of the package sources: every import is read and every
``__all__`` entry is defined."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mayleonard"


def unread_imports(tree, reexports=False):
    """Names bound by an import and never loaded anywhere in the module.

    ``from __future__`` imports are exempt; with ``reexports`` so are the
    module-level imports (a package ``__init__`` imports to re-export).
    """
    bound = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or (reexports and node in tree.body):
            continue
        bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    loaded = {n.id for n in ast.walk(tree)
              if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(bound - loaded)


def undefined_exports(tree):
    """Entries of a module-level ``__all__`` that the module never binds."""
    defined, exported = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            defined.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            defined |= names
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
    return [name for name in exported if name not in defined]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_read_and_exports_defined(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert unread_imports(tree, reexports=path.name == "__init__.py") == []
    assert undefined_exports(tree) == []


def test_hygiene_checks_catch_stale_names():
    """Negative control: an unread import and a stale ``__all__`` entry are
    reported; a read import and a defined entry are not."""
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import math\n"
        "from dataclasses import replace, field\n"
        "__all__ = ['f', 'Gone']\n"
        "def f(x):\n"
        "    from .returnmap import reduce_mod\n"
        "    return field(x)\n")
    assert unread_imports(tree) == ["math", "reduce_mod", "replace"]
    assert unread_imports(tree, reexports=True) == ["reduce_mod"]
    assert undefined_exports(tree) == ["Gone"]
