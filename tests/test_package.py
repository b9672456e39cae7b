"""The package as a whole: what importing it loads, and no stale imports in its modules."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted((SRC / "heavenly").glob("*.py"))


def test_loading_the_catalog_imports_only_what_it_needs():
    code = ("import sys\n"
            "import heavenly\n"
            "from heavenly.catalog import load_catalog\n"
            "load_catalog()\n"
            "print(heavenly.__file__)\n"
            "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'heavenly')))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)})
    where, loaded = proc.stdout.splitlines()
    assert Path(where).resolve().parent == SRC / "heavenly"
    assert loaded.split() == ["heavenly", "heavenly.catalog", "heavenly.data",
                              "heavenly.jetcore", "heavenly.tetrads"]


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports but never reads (``from __future__`` aside)."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line}: {name}" for name, line in imported.items()
                  if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def test_the_unused_import_check_sees_one(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("from __future__ import annotations\n"
                      "import os.path\n"
                      "from fractions import Fraction as F\n"
                      "from math import gcd\n"
                      "def f(x: F) -> int:\n"
                      "    return os.path.sep\n")
    assert _unused_imports(module) == ["mod.py:4: gcd"]
