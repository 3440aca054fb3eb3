"""Every name a module of ``afcsim`` imports is used in that module.

No linter runs on this repository, so this scan is what keeps unused
imports out.  ``__init__.py`` is skipped: its imports are the public API.
"""

import ast
from pathlib import Path

import pytest

import afcsim

MODULES = sorted(p for p in Path(afcsim.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_finds_an_unused_import():
    source = "import json\nfrom typing import Optional, Sequence\nx: Optional[int] = 1\n"
    assert unused_imports(source) == [(1, "json"), (2, "Sequence")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
