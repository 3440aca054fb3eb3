"""What ``afcsim`` imports and keeps: every name a module imports is used in
that module, every module-level private name (one starting with ``_``) is
used somewhere in the package, every error class is raised somewhere in the
package, and ``import afcsim`` loads no heavy scipy subpackage.

No linter runs on this repository, so the scans are what keep unused
imports and orphaned helpers out.  The import scan skips ``__init__.py``:
its imports are the public API.
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


def unused_private_names(sources):
    """``(module, line, name)`` of every module-level name starting with a
    single ``_`` in ``sources`` (``{module: source}``) that no source loads,
    by name or as an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id if isinstance(node, ast.Name) else node.attr)
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unused += [(module, node.lineno, name) for name in names
                       if name.startswith("_") and not name.startswith("__")
                       and name not in loaded]
    return sorted(unused)


def test_scan_finds_an_unused_private_name():
    sources = {"one": "_A, _B = 1, 2\n_C: int = 3\ndef _helper():\n    return _A\n",
               "two": "from one import _helper\nimport one\nprint(one._C, _helper())\n"}
    assert unused_private_names(sources) == [("one", 1, "_B")]


def test_every_private_name_is_used_in_the_package():
    package = Path(afcsim.__file__).parent
    sources = {p.name: p.read_text() for p in sorted(package.glob("*.py"))}
    assert unused_private_names(sources) == []


def unraised_errors(error_source, sources):
    """Names of the classes defined in ``error_source``, other than the base
    ``AfcSimError``, that no source of ``sources`` raises or builds (an
    error built and returned, as a batch fit's per-row outcome, is raised by
    its caller)."""
    classes = [node.name for node in ast.parse(error_source).body
               if isinstance(node, ast.ClassDef)]
    made = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            target = node.func if isinstance(node, ast.Call) else (
                node.exc if isinstance(node, ast.Raise) else None)
            if isinstance(target, ast.Name):
                made.add(target.id)
            elif isinstance(target, ast.Attribute):
                made.add(target.attr)
    return sorted(c for c in classes if c != "AfcSimError" and c not in made)


def test_scan_finds_an_unraised_error():
    error_source = ("class AfcSimError(Exception): pass\n"
                    "class Raised(AfcSimError): pass\n"
                    "class Built(AfcSimError): pass\n"
                    "class Bare(AfcSimError): pass\n"
                    "class Caught(AfcSimError): pass\n")
    sources = ["import errors\nraise errors.Raised('x')\n",
               "from errors import Built, Bare\ndef f():\n    return [Built('y')]\n"
               "def g():\n    raise Bare\n",
               "from errors import Caught\ntry:\n    f()\nexcept Caught:\n    pass\n"]
    assert unraised_errors(error_source, sources) == ["Caught"]


def test_every_error_is_raised_in_the_package():
    package = Path(afcsim.__file__).parent
    sources = [p.read_text() for p in sorted(package.glob("*.py"))]
    assert unraised_errors((package / "errors.py").read_text(), sources) == []


# each would add to every process's start-up time and memory
HEAVY = ("scipy.signal", "scipy.stats", "scipy.optimize", "scipy.interpolate",
         "scipy.integrate", "scipy.sparse", "scipy.ndimage", "scipy.spatial",
         "scipy.constants", "scipy.fft", "scipy.special")


def test_import_loads_no_heavy_scipy_subpackage():
    src = str(Path(afcsim.__file__).parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, afcsim\n"
            f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []
