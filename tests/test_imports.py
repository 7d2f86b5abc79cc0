"""Every name a library module imports is used in that module.

No linter ships with the test dependencies, so this walks each module's
syntax tree with the standard library's `ast`. A name counts as used
when it is read anywhere in the module: code, annotations (which stay in
the tree under ``from __future__ import annotations``) and decorators.
``__init__.py`` is left out, since it imports names to re-export them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ecdkit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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
