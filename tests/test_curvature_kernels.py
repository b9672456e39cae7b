"""The curvature core's compiled sums against the loops they replace.

``heavenly.curvature`` compiles, once per sparsity (``FieldGeometry.sparsity``),
the sums of its core less every term the sparsity makes zero; the loops over
every table row and every term are ``curvature_oracle.riemann_block`` and
``loop_spinors_at``.  Each draw is a table in a geometry kind's sparsity (the
second and first forms and the plane wave, read by the kind's own read
function) or in the dense one, which no catalog entry has, and the two routes
must agree word for word: equal values in exact mode, equal ``.hex()`` in
float mode, where some entries are drawn from the zeros, subnormals, +-1e300 and
other values whose products overflow, infinities and nan, and the same error
where a check refuses the table.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from fractions import Fraction as F
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, reject, settings, strategies as st

from heavenly import curvature, tetrads
from heavenly.catalog import load_catalog
from heavenly.jetcore import EvaluationError, Point, ScalarField
from heavenly.tetrads import UPPER, FirstPotential, geometry_from_omega

import curvature_oracle
from test_curvature import MONOMIAL, _poly_text

# finite values whose products overflow, and with them zeros, subnormals, infinities and nan
HUGE = [1e300, -1e300, 1e200, -1e155]
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, *HUGE, math.inf, -math.inf, math.nan]
KINDS = {"second": tetrads._SECOND_SPARSITY, "first": tetrads._FIRST_SPARSITY,
         "plane-wave": tetrads._PLANE_WAVE_SPARSITY}
# the duality pairing eps_AB eps_A'B' of the frame keys (0,0), (0,1), (1,0), (1,1)
E = [[tetrads.EPS[k[0], l[0]] * tetrads.EPS[k[1], l[1]] for l in product(range(2), repeat=2)]
     for k in product(range(2), repeat=2)]


class _Stub:
    """A jet's read-out: the second form and the plane wave read their tables off
    ``d_numerators`` alone, so drawn numerators stand for the primary field's jet."""

    def __init__(self, nums, den, domain):
        self.nums, self.den, self.domain = nums, den, domain

    def d_numerators(self, *partials):
        return self.nums[:len(partials)], self.den


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _adjugate(n):
    """adj(n) and det(n) of a 4x4 integer matrix by cofactors."""
    def det(m):
        return m[0][0] if len(m) == 1 else sum(
            (-1) ** j * m[0][j] * det([row[:j] + row[j + 1:] for row in m[1:]])
            for j in range(len(m)))
    minor = [[det([r[:j] + r[j + 1:] for k, r in enumerate(n) if k != i]) for j in range(4)]
             for i in range(4)]
    return [[(-1) ** (i + j) * minor[j][i] for j in range(4)] for i in range(4)], det(n)


def _dense_tables(draw, numbers):
    """A frame of 4 integer vectors V over Df, the metric it is dual to, g = (V E V^T)^-1,
    as a table with drawn partials, and its inverse V E V^T over Df^2: every entry is
    generically nonzero."""
    v = draw(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), min_size=4,
                      max_size=4))   # v[k] is the k-th frame vector
    vt = [list(col) for col in zip(*v)]
    n = _matmul(_matmul(vt, E), v)   # (V E V^T)^ab, V's columns the frame vectors
    adj, det = _adjugate(n)
    if not det:
        reject()
    df = draw(st.integers(1, 3))
    sign = 1 if det > 0 else -1
    values = [[sign * df * df * x for x in row] for row in adj]
    rows = [[values[a][b], *[draw(numbers) for _ in range(14)]] for a, b in UPPER]
    keys = list(product(range(2), repeat=2))
    return (rows, abs(det)), (n, df * df), ({k: tuple(u) for k, u in zip(keys, v)}, df)


def _float_tables(tables):
    """The exact tables as floats over denominator 1 (2 for a frame over 2), as the
    float domain's jets hold them."""
    (rows, dg), (iv, di), (fv, df) = tables
    return (([[x / dg for x in row] for row in rows], 1), ([[x / di for x in row] for row in iv], 1),
            ({k: tuple(x / df for x in u) for k, u in fv.items()}, 1))


@st.composite
def core_inputs(draw, specials=SPECIAL, anywhere=True):
    """(point, tables, sparsity): a point's metric table, inverse and frame in a kind's
    sparsity (None: the dense one), exact or float, with some entries of a float table
    replaced by ``specials`` (only partials unless ``anywhere``)."""
    kind = draw(st.sampled_from([*KINDS, "dense"]))
    exact = draw(st.booleans())
    numbers = st.integers(-6, 6)
    if kind == "first":
        text = _poly_text(draw(st.lists(MONOMIAL, min_size=1, max_size=3)), ("w", "z", "wt", "zt"))
        geometry = geometry_from_omega(FirstPotential(ScalarField.parse(f"w*zt+z*wt+{text}",
                                                                        "first")))
        p = Point("first", draw(st.tuples(*[st.fractions(-2, 2, max_denominator=3)] * 4)))
        try:
            tables = geometry.at(p if exact else p.as_float())
        except EvaluationError:
            reject()
    else:
        p = Point("second", (1, 2, 3, 4))
        if kind == "dense":
            tables = _dense_tables(draw, numbers)
        else:
            read = (tetrads._second_form_geometry if kind == "second"
                    else tetrads._plane_wave_geometry)
            nums = draw(st.lists(numbers, min_size=45, max_size=45))
            tables = read(_Stub(nums, draw(st.integers(1, 4)), p.domain))
        if not exact:
            tables = _float_tables(tables)
    if not exact:
        p = p.as_float()
        tables = _special(draw, tables, specials, anywhere)
    return p, tables, KINDS.get(kind)


def _special(draw, tables, specials, anywhere):
    """Some nonzero entries of a float table replaced by special values: in the partials
    of the metric's rows, which no check reads, and ``anywhere``, in its values, in the
    inverse or in the frame."""
    (rows, dg), (iv, di), (fv, df) = tables
    rows, iv, fv = [list(r) for r in rows], [list(r) for r in iv], {k: list(u) for k, u in fv.items()}
    partials = [(rows, k, c) for k in range(10) for c in range(1, 15)]
    frame = [(fv, k, a) for k in fv for a in range(4)]
    for _ in range(draw(st.integers(0, 6))):
        slots = draw(st.sampled_from([partials, partials, [(rows, k, 0) for k in range(10)],
                                      [(iv, a, b) for a in range(4) for b in range(4)], frame,
                                      frame] if anywhere else [partials]))
        slots = [(table, x, y) for table, x, y in slots if table[x][y]]
        if slots:
            table, x, y = draw(st.sampled_from(slots))
            table[x][y] = draw(st.sampled_from(specials))
    return (rows, dg), (iv, di), ({k: tuple(u) for k, u in fv.items()}, df)


def _word(x):
    return x.hex() if isinstance(x, float) else (type(x).__name__, x)


def _outcome(route):
    try:
        rep = route()
    except (ValueError, EvaluationError) as exc:
        return type(exc).__name__, str(exc)
    return [_word(getattr(rep, f)) for f in ("scalar", "duality_max_abs", "ricci_max_abs",
                                              "sd_weyl_max_abs", "asd_weyl_max_abs")]


def _block(route):
    try:
        (M, dm), (gv, dg) = route()
    except (ValueError, EvaluationError) as exc:
        return type(exc).__name__, str(exc)
    return [[_word(x) for x in row] for row in M], dm, [[_word(x) for x in row] for row in gv], dg


def _same_as_the_loops(inputs):
    p, (metric, inverse, frame), sparsity = inputs
    blocks, real = [], curvature._riemann_block
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(curvature, "_riemann_block", lambda *args: blocks.append(args[3])
                      or real(*args))
        got = _outcome(lambda: curvature.spinors_at(p, metric, inverse, frame, 1e-9, sparsity))
    assert got == _outcome(lambda: curvature_oracle.loop_spinors_at(p, metric, inverse, frame,
                                                                    1e-9))
    # the block alone, by the kernel the core gave it, and by the dense one
    for block in (*blocks, curvature._kernels(curvature._DENSE, tuple(tetrads.EPS), False)[0]):
        assert _block(lambda: real(metric, inverse, p.domain, block)) \
            == _block(lambda: curvature_oracle.riemann_block(metric, inverse, p.domain))


class TestCompiledCore:
    @given(core_inputs())
    @settings(max_examples=1500, deadline=None)
    def test_equals_the_loops_word_for_word(self, inputs):
        _same_as_the_loops(inputs)

    @given(core_inputs(HUGE, anywhere=False))
    @settings(max_examples=500, deadline=None)
    def test_equals_the_loops_where_products_overflow(self, inputs):
        # finite tables whose products reach inf, where a left-out 0 * x would not be 0
        _same_as_the_loops(inputs)

    @pytest.mark.parametrize("name", ["sparling-tod", "flat-first", "plane-wave"])
    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_each_kind_fills_its_zeros(self, name, mode):
        # the geometry's tables hold a zero wherever its sparsity says, at points the
        # catalog's sampler draws
        from heavenly.sampling import sample_points
        entry = load_catalog()[name]
        geometry = entry.geometry()
        rows, inverse, frame = geometry.sparsity
        for p in sample_points(geometry.field.chart, 6, 3, entry.exclusions):
            (nums, _), (iv, _), (fv, _) = geometry.at(p if mode == "exact" else p.as_float(),
                                                      dict(entry.params))
            for k, row in enumerate(nums):
                assert rows[k] == "v" or not any(row[rows[k] == "c":])
            for values, zeros in ((sum(iv, []), inverse), (sum(fv.values(), ()), frame)):
                assert all(x == 0 for x, z in zip(values, zeros, strict=True) if z == "0")

    def test_a_sparsity_compiles_its_kernels_once(self, monkeypatch):
        compiled, real = [], curvature._source
        monkeypatch.setattr(curvature._kernels, "store", {})
        monkeypatch.setattr(curvature, "_source", lambda *key: compiled.append(key) or real(*key))
        entry = load_catalog()["sparling-tod"]
        geometry, params, kernels = entry.geometry(), dict(entry.params), []
        for values in [(F(1, 2), 2, F(-1, 3), 5), (3, F(2, 7), 1, F(-5, 2))]:
            p = Point("second", values)
            curvature.spinors_at(p, *geometry.at(p, params), 1e-9, geometry.sparsity)
            kernels.append(dict(curvature._kernels.store))
        # one source, compiled at the first point; the second point runs the same functions
        assert compiled == [(geometry.sparsity, ((0, 0), (0, 1), (1, 0), (1, 1)), False)]
        assert kernels[0].keys() == kernels[1].keys()
        assert all(kernels[1][key] is fn for key, fn in kernels[0].items())

    def test_no_kernel_is_compiled_at_import(self):
        code = ("import heavenly.cli, heavenly.curvature as c; "
                "print(c.__file__, len(c._kernels.store))")
        src = Path(curvature.__file__).parents[1]
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=60, env={**os.environ, "PYTHONPATH": str(src)})
        assert out.stdout == f"{curvature.__file__} 0\n"
