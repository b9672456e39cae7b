"""The package as a whole: what importing it loads, and no stale imports in its modules."""

import ast
import contextlib
import importlib.util
import io
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = sorted((SRC / "heavenly").glob("*.py"))


def _loaded(statements: str) -> list[str]:
    """The package's modules loaded in a fresh interpreter by ``statements``, after
    checking that it imports the package from this checkout's ``src/``."""
    code = ("import sys\n"
            + statements +
            "import heavenly\n"
            "print(heavenly.__file__)\n"
            "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'heavenly')))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)})
    where, loaded = proc.stdout.splitlines()
    assert Path(where).resolve().parent == SRC / "heavenly"
    return loaded.split()


def test_loading_the_catalog_imports_only_what_it_needs():
    loaded = _loaded("import heavenly\n"
                     "from heavenly.catalog import load_catalog\n"
                     "load_catalog()\n")
    assert loaded == ["heavenly", "heavenly.catalog", "heavenly.jetcore", "heavenly.tetrads"]


def test_the_hierarchy_imports_only_the_jet_kernel_and_the_tetrads():
    # the flow hierarchy reads every derivative off a jet: no twistor series, no
    # recursion operator and no polynomials behind it
    assert _loaded("import heavenly.hierarchy\n") == [
        "heavenly", "heavenly.hierarchy", "heavenly.jetcore", "heavenly.tetrads"]


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


PRIVATE_POLY_ATTRIBUTES = {"_nums", "_denom", "_view"}


def _poly_reads(path: Path) -> list[str]:
    """Where a module reads a polynomial's stored numerators, denominator or terms view."""
    tree = ast.parse(path.read_text(), str(path))
    return sorted(f"{path.name}:{node.lineno}: .{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in PRIVATE_POLY_ATTRIBUTES)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "polynomials.py"],
                         ids=[p.name for p in MODULES if p.name != "polynomials.py"])
def test_only_polynomials_knows_the_poly_layout(path):
    assert _poly_reads(path) == []


def test_the_poly_layout_check_sees_each_read(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("from .polynomials import Poly\n"
                      "def f(p: Poly):\n"
                      "    nums, den = p._nums, p._denom\n"
                      "    return p._view, p.numerators(), p.terms, nums, den\n")
    assert _poly_reads(module) == ["mod.py:3: ._denom", "mod.py:3: ._nums", "mod.py:4: ._view"]



# The symbolic tetrad and metric trees, their Gauss-Jordan inverse and the curvature
# wrappers fed from them live in tests/geometry_oracle.py (the integer full lowering
# and full W were deleted): a field reaches curvature by one route, FieldGeometry.
# So does the curved star operator on trees (hodge_star_d), which no subcommand reaches.
# The package builds the st chain members' and curve tails' trees from the numbers c
# of tables A and B; tests/chain_oracle.py builds them from sigma-polynomial tables,
# an independent route, and its names stay out of src/.
# Riemann's block is lowered straight from the metric's second partials; the
# Christoffel route (Gamma's gradients, R^a_bcd, Ricci from it) lives in geometry_oracle
TREE_ROUTE_NAMES = {
    "_christoffel_numerators", "christoffel_numerators", "_riemann_values", "riemann_values",
    "_riemann_at", "_ricci_values", "ricci_values", "tree_inputs",
    "st_psi", "st_twistor_curve", "uni_expr",
    "Tetrad", "_row_values", "tetrad_from_theta", "tetrad_from_omega", "DegenerateHessianError",
    "plane_wave_tetrad", "MetricField", "metric_from_tetrad", "TwoForm", "_perm_sign",
    "_PERMUTATIONS4", "_wedge", "SigmaForms", "sigma_forms", "SPIN_INDICES", "tetrad",
    "catalog_tetrad", "_metric_jets", "metric_jets", "_invert_jet_matrix", "invert_jet_matrix",
    "SingularMetricError", "_tree_jets", "tree_jets", "curvature_at", "Christoffel",
    "christoffel", "riemann", "ricci", "lowered_riemann", "weyl_tensor_values", "_lower",
    "_index_keys", "weyl_spinors", "verify_asd_vacuum", "slice_metric",
    "vector_to_spinor_level1", "flat_wave_poly", "formal_step_consistency",
    "boundary_of_boundary_residual", "symplectic_pair_curved", "hodge_star_d", "ThreeFormField",
    # the tree Lax pairs and tree flow fields, whose partials are jetcore.diff trees, live in
    # tests/geometry_oracle.py and tests/hierarchy_oracle.py; the package reads them off jets
    "LaxPair", "vector_commutator_values", "ExtendedVectorField", "d_flow_field",
    "delta_flow_field", "lax_field", "_hamiltonian_vf", "_zero_fields", "dual_partial",
    "truncated_omega",
}
DEFINITIONS = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _tree_route_names(path: Path) -> list[str]:
    """Where a module defines a tree-route name (at top level, as a constant or as
    a method) or imports one anywhere, under its own name or another."""
    tree = ast.parse(path.read_text(), str(path))
    found = []
    for node in tree.body:
        inner = node.body if isinstance(node, ast.ClassDef) else []
        found += [(n.lineno, n.name) for n in (node, *inner) if isinstance(n, DEFINITIONS)]
        if isinstance(node, ast.Assign):
            found += [(node.lineno, t.id) for t in node.targets if isinstance(t, ast.Name)]
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [(node.lineno, name) for alias in node.names
                      for name in (alias.name.split(".")[-1], alias.asname)]
    return sorted(f"{path.name}:{line}: {name}" for line, name in found if name in TREE_ROUTE_NAMES)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_the_tree_route_stays_out_of_the_package(path):
    assert _tree_route_names(path) == []


def test_the_tree_route_check_sees_each_way_in(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("from .curvature import spinors_at as weyl_spinors\n"
                      "SPIN_INDICES = ()\n"
                      "class Entry:\n"
                      "    ricci: int = 0\n"
                      "    def tetrad(self):\n"
                      "        from .tetrads import MetricField\n"
                      "def riemann(g):\n"
                      "    return g\n")
    assert _tree_route_names(module) == ["mod.py:1: weyl_spinors", "mod.py:2: SPIN_INDICES",
                                         "mod.py:5: tetrad", "mod.py:6: MetricField",
                                         "mod.py:7: riemann"]


# Every partial derivative in src/ is read off a jet.  Symbolic differentiation of a tree
# (diff, partial and ScalarField.diff) is tests/diff_oracle.py's: no module defines a
# function or method named diff or partial, imports one from the package or calls
# jetcore.diff or jetcore.partial.  The polynomial type's own derivative, Poly.diff, stays,
# and functools.partial is no derivative
SYMBOLIC_DIFF_NAMES = {"diff", "partial"}
ALLOWED_DIFF_METHODS = {("Poly", "diff")}


def _symbolic_diffs(path: Path) -> list[str]:
    """Where a module defines, imports from the package or calls a symbolic derivative."""
    tree = ast.parse(path.read_text(), str(path))
    allowed = {id(method) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               for method in node.body if (node.name, getattr(method, "name", None))
               in ALLOWED_DIFF_METHODS}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, DEFINITIONS[1:]) and node.name in SYMBOLIC_DIFF_NAMES \
                and id(node) not in allowed:
            found.append((node.lineno, f"def {node.name}"))
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "heavenly"):
            found += [(node.lineno, f"import {alias.name}") for alias in node.names
                      if alias.name in SYMBOLIC_DIFF_NAMES]
        elif (isinstance(node, ast.Attribute) and node.attr in SYMBOLIC_DIFF_NAMES
              and isinstance(node.value, ast.Name) and node.value.id == "jetcore"):
            found.append((node.lineno, f"jetcore.{node.attr}"))
    return sorted(f"{path.name}:{line}: {what}" for line, what in found)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_symbolic_derivative_in_the_package(path):
    assert _symbolic_diffs(path) == []


def test_the_symbolic_derivative_check_sees_each_way_in(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("from functools import partial\n"
                      "from .jetcore import diff, partial as d\n"
                      "from . import jetcore\n"
                      "class Poly:\n"
                      "    def diff(self, name):\n"
                      "        return jetcore.partial(self, name)\n"
                      "class ScalarField:\n"
                      "    def diff(self, var):\n"
                      "        return jetcore.diff(self.expr, var)\n"
                      "def partial(f, alpha):\n"
                      "    return f.diff(alpha)\n")
    assert _symbolic_diffs(module) == [
        "mod.py:10: def partial", "mod.py:2: import diff", "mod.py:2: import partial",
        "mod.py:6: jetcore.partial", "mod.py:8: def diff", "mod.py:9: jetcore.diff"]


# The curvature core computes only what the verdict reads; Phi, the divided spinors,
# the reassembly residual and the rank-r frame projection are the oracle's, in
# tests/curvature_oracle.py.  A name of the tables the core once built on first read
# may not come back to src/, in code, a string or a comment
CURVATURE_TABLE_NAMES = ("_TABLES", "_READ_OUTS", "_frame_components", "reassembly_max_abs",
                         "weyl_asd", "weyl_sd")
# One polynomial type: twistor.RatLambda's numerator and denominator are Polys on the
# chart lam.  The sigma tables hold numbers, and every twistor curve is a Program; the
# retired univariate helpers and curve types stay out of src/ too
UNIVARIATE_NAMES = ("UniPoly", "uni_add", "uni_mul", "uni_scale", "uni_shift", "LambdaSeries",
                    "TwistorCurve")


def _whole_words(names):
    pattern = re.compile(r"\b(" + "|".join(names) + r")\b")

    def found(path: Path) -> list[str]:
        """Where a module's text names one of ``names`` as a whole word."""
        return [f"{path.name}:{line}: {name}"
                for line, text in enumerate(path.read_text().splitlines(), 1)
                for name in pattern.findall(text)]
    return found


_curvature_table_names = _whole_words(CURVATURE_TABLE_NAMES)
_univariate_names = _whole_words(UNIVARIATE_NAMES)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_the_curvature_tables_stay_out_of_the_package(path):
    assert _curvature_table_names(path) == []


def test_the_curvature_table_check_sees_each_name(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("from .curvature import _TABLES as t\n"
                      "_READ_OUTS = ('sd_weyl_max_abs', 'weyl_asd')\n"
                      "def _frame_components(rep):\n"
                      "    return rep.reassembly_max_abs   # and weyl_sd\n"
                      "MY_TABLES, weyl_sd_max = (), 0\n")
    assert _curvature_table_names(module) == [
        "mod.py:1: _TABLES", "mod.py:2: _READ_OUTS", "mod.py:2: weyl_asd",
        "mod.py:3: _frame_components", "mod.py:4: reassembly_max_abs", "mod.py:4: weyl_sd"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_one_univariate_polynomial_kind(path):
    assert _univariate_names(path) == []


def test_the_univariate_check_sees_each_name(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("from .polynomials import UniPoly, uni_add as plus\n"
                      "def f(a):\n"
                      "    return uni_mul(uni_scale(a, 2), uni_shift(a, 1))  # a UniPoly\n"
                      "@dataclass\n"
                      "class TwistorCurve:\n"
                      "    mu0: 'LambdaSeries'\n"
                      "uni, uni_eval, MyLambdaSeries = (), 0, 1\n")
    assert _univariate_names(module) == [
        "mod.py:1: UniPoly", "mod.py:1: uni_add", "mod.py:3: uni_mul", "mod.py:3: uni_scale",
        "mod.py:3: uni_shift", "mod.py:3: UniPoly", "mod.py:5: TwistorCurve",
        "mod.py:6: LambdaSeries"]


def test_the_package_keeps_one_univariate_type():
    from heavenly import polynomials, twistor
    from heavenly.jetcore import Point, Program, parse_expression
    # beside the names above: the coefficient-tuple constructor, the tree curve, and
    # RatLambda's scaling, which negation does
    assert not hasattr(polynomials, "uni") and not hasattr(twistor, "flat_twistor_curve")
    assert not hasattr(twistor.RatLambda, "scale")
    # RatLambda's arithmetic is Poly's: twistor keeps no coefficient-tuple helpers
    assert not hasattr(twistor, "_trimmed") and not hasattr(twistor, "_times")
    f = Program([parse_expression("(lam+1)^3/(mu0*mu1)", "twistor-function")])
    rat = twistor.on_flat_curve(f, Point("second", (1, 2, 3, 4)))
    assert type(rat.num) is polynomials.Poly and type(rat.den) is polynomials.Poly
    assert rat.num.chart == rat.den.chart == "lam"


# ---------------------------------------------------------------------------
# one tree evaluator: every fold of a tree is a run of a compiled Program

def test_the_per_call_memo_is_gone():
    from heavenly import jetcore
    assert not hasattr(jetcore, "_folder")


ROUTES = {
    "fold": lambda jc, e, p: jc.fold(e, lambda leaf: Fraction(1)),
    "jets_of": lambda jc, e, p: jc.jets_of([e], p, 2),
    "field_program.jets":
        lambda jc, e, p: jc.field_program([jc.ScalarField("second", e)]).jets(p, 2),
    "field_program.values":
        lambda jc, e, p: jc.field_program([jc.ScalarField("second", e)]).values(p),
    "ScalarField.jet": lambda jc, e, p: jc.ScalarField("second", e).jet(p, 2),
    "ScalarField.value": lambda jc, e, p: jc.ScalarField("second", e).value(p),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_every_route_runs_a_program(route, monkeypatch):
    from heavenly import jetcore
    runs = []
    real = jetcore.Program.run
    monkeypatch.setattr(jetcore.Program, "run",
                        lambda program, leaf: runs.append(program.texts()) or real(program, leaf))
    e = jetcore.parse_expression("w/(w*x+z*y)", "second")
    ROUTES[route](jetcore, e, jetcore.point("second", 1, 2, 3, 4))
    assert runs == [["w/(w*x+z*y)"]]


# ---------------------------------------------------------------------------
# one coefficient domain per numeric mode: the exact/float decision stays in jetcore

MODE_STRINGS = ("exact", "float")


def _is_args_mode(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "mode"
            and isinstance(node.value, ast.Name) and node.value.id == "args")


def _mode_reads(path: Path) -> list[str]:
    """Where a module reads a ``.mode`` attribute, compares something with "exact" or
    "float", or imports ``divider``.  ``cli`` may read the option ``args.mode``."""
    tree = ast.parse(path.read_text(), str(path))
    cli = path.name == "cli.py"
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "mode":
            if not (cli and _is_args_mode(node)):
                out.append(f"{path.name}:{node.lineno}: .mode")
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            strings = [x.value for x in operands if isinstance(x, ast.Constant)
                       and isinstance(x.value, str) and x.value in MODE_STRINGS]
            if strings and not (cli and any(map(_is_args_mode, operands))):
                out.append(f"{path.name}:{node.lineno}: compares with {strings[0]!r}")
        elif isinstance(node, ast.ImportFrom):
            out += [f"{path.name}:{node.lineno}: import divider"
                    for alias in node.names if alias.name == "divider"]
    return sorted(out)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "jetcore.py"],
                         ids=[p.name for p in MODULES if p.name != "jetcore.py"])
def test_only_jetcore_knows_the_numeric_modes(path):
    assert _mode_reads(path) == []


def test_the_mode_check_sees_each_read(tmp_path):
    source = ("from .jetcore import divider\n"
              "def f(args, p, fields):\n"
              "    if args.mode == 'float' and 'exact' != p.mode:\n"
              "        return fields.mode\n")
    module = tmp_path / "mod.py"
    module.write_text(source)
    assert _mode_reads(module) == ["mod.py:1: import divider", "mod.py:3: .mode",
                                   "mod.py:3: .mode", "mod.py:3: compares with 'exact'",
                                   "mod.py:3: compares with 'float'", "mod.py:4: .mode"]
    # the command line reads its own option, and nothing else
    cli = tmp_path / "cli.py"
    cli.write_text(source)
    assert _mode_reads(cli) == ["cli.py:1: import divider", "cli.py:3: .mode",
                                "cli.py:3: compares with 'exact'", "cli.py:4: .mode"]


def test_points_jets_and_flow_fields_hold_a_domain():
    from heavenly import hierarchy, jetcore
    p = jetcore.point(hierarchy.extended_chart(1), 1, 2, 3, 4)
    jet = jetcore.jet_of(jetcore.parse_expression("x00*x10^2+x01", p.chart), p, 3)
    fields = hierarchy.FlowFields(jet)
    assert p.domain is jet.domain is fields.domain is jetcore.EXACT
    assert p.as_float().domain is jetcore.FLOAT
    assert not any(hasattr(x, "mode") for x in (p, jet, fields))
    assert not hasattr(jetcore, "divider")


# ---------------------------------------------------------------------------
# the benchmark's traced runs: perfbench/tracer.py wraps the package from outside

TRACED_JOBS = (["curvature-report", "--background", "sparling-tod", "--points", "1"],
               ["recursion-chain", "--background", "st", "--n", "4", "--points", "1",
                "--mode", "float"])


def _outputs(cli) -> list[tuple[int, str]]:
    """Each traced job's exit code and stdout, looking ``cli.main`` up at call time."""
    out = []
    for argv in TRACED_JOBS:
        text = io.StringIO()
        with contextlib.redirect_stdout(text), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        out.append((code, text.getvalue()))
    return out


@pytest.mark.parametrize("count_fractions", [False, True])
def test_the_benchmark_tracer_leaves_every_output_as_it_was(count_fractions):
    import heavenly
    from heavenly import cli
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    plain = _outputs(cli)
    tracer = tracing.Tracer(heavenly)
    tracer.install(count_fractions=count_fractions)
    try:
        traced = _outputs(cli)
    finally:
        tracer.remove()
    assert [code for code, _ in plain] == [0, 0]
    assert traced == plain
    assert tracer.calls["jetcore.Jet.__mul__"] > 0   # the wrappers ran
    assert _outputs(cli) == plain
