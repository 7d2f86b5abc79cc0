"""Every name a library module imports is used in that module, and every
module-level private helper is used somewhere in the library.

No linter ships with the test dependencies, so this walks each module's
syntax tree with the standard library's `ast`. A name counts as used
when it is read anywhere in the module: code, annotations (which stay in
the tree under ``from __future__ import annotations``) and decorators.
``__init__.py`` is left out of the import check, since it imports names
to re-export them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ecdkit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_checker_sees_an_unused_import():
    source = (
        "import os\nfrom dataclasses import dataclass, field\n\n"
        "@dataclass\nclass A:\n    p: os.PathLike\n"
    )
    assert unused_imports(source) == ["field (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def _defined(node) -> list[str]:
    """Names a module-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def dead_helpers(sources: dict) -> list[str]:
    """Module-level `_name`s (dunders aside) of `sources` ({file: text}) that
    no file reads: by name, as an attribute or in a from-import."""
    trees = {file: ast.parse(text) for file, text in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return [
        f"{file}: {name} (line {node.lineno})"
        for file, tree in trees.items()
        for node in tree.body
        for name in _defined(node)
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
        and name not in used
    ]


def test_checker_sees_a_dead_helper():
    sources = {
        "a.py": "_LIMIT = 3\n_SEEN: set = set()\n\ndef _used():\n    return _LIMIT\n\n"
                "def _dead():\n    pass\n\nclass _Old:\n    pass\n",
        "b.py": "from a import _used\nimport a\n\n__all__ = []\nprint(_used(), a._SEEN)\n",
    }
    assert dead_helpers(sources) == ["a.py: _dead (line 7)", "a.py: _Old (line 10)"]


def test_every_private_helper_is_used():
    assert dead_helpers({p.name: p.read_text() for p in SOURCES}) == []
