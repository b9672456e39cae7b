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


PRIVATE_JET_ATTRIBUTES = {"_c", "_den", "_layout"}
PRIVATE_JETCORE_NAMES = {"_layout", "_LAYOUTS"}


def _layout_reads(path: Path) -> list[str]:
    """Where a module reads a jet's stored numerators, denominator or layout, or
    imports jetcore's layout table."""
    tree = ast.parse(path.read_text(), str(path))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in PRIVATE_JET_ATTRIBUTES:
            out.append(f"{path.name}:{node.lineno}: .{node.attr}")
        elif isinstance(node, ast.ImportFrom):
            out += [f"{path.name}:{node.lineno}: import {alias.name}"
                    for alias in node.names if alias.name in PRIVATE_JETCORE_NAMES]
    return sorted(out)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "jetcore.py"],
                         ids=[p.name for p in MODULES if p.name != "jetcore.py"])
def test_only_jetcore_knows_the_jet_layout(path):
    assert _layout_reads(path) == []


def test_the_layout_check_sees_each_read(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("from .jetcore import Jet, _LAYOUTS\n"
                      "def f(j: Jet):\n"
                      "    return j._c[0], j._den, j._layout.weights, j.d_numerators(())\n")
    assert _layout_reads(module) == ["mod.py:1: import _LAYOUTS", "mod.py:3: ._c",
                                     "mod.py:3: ._den", "mod.py:3: ._layout"]
