"""What ``afcsim`` imports: every name a module imports is used in that
module, and ``import afcsim`` loads no heavy scipy subpackage.

No linter runs on this repository, so the scan is what keeps unused
imports out.  ``__init__.py`` is skipped: its imports are the public API.
"""

import ast
import os
import subprocess
import sys
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


# each would add to every process's start-up time and memory; the one use of
# scipy.optimize (brentq in experiments.calibrate_tls) imports it locally
HEAVY = ("scipy.signal", "scipy.stats", "scipy.optimize", "scipy.interpolate",
         "scipy.integrate", "scipy.sparse", "scipy.ndimage", "scipy.spatial")


def test_import_loads_no_heavy_scipy_subpackage():
    src = str(Path(afcsim.__file__).parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, afcsim\n"
            f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []
