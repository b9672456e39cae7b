"""Integer value sums in curvature and Lie brackets, against value-by-value oracles."""

import copy
import itertools
from fractions import Fraction as F

import pytest
from hypothesis import example, given, reject, settings, strategies as st

from heavenly import curvature
from heavenly.catalog import load_catalog
from heavenly.jetcore import (
    EvaluationError,
    Point,
    ScalarField,
    chart_coords,
    common_denominator,
    EXACT,
    FLOAT,
    div,
    mul,
    parse_expression,
    point,
)
from heavenly.sampling import sample_points
from heavenly.tetrads import SecondPotential, _bracket

import curvature_oracle
from diff_oracle import field_diff
from geometry_oracle import (
    SingularMetricError,
    Tetrad,
    catalog_tetrad,
    curvature_at,
    invert_jet_matrix,
    metric_from_tetrad,
    metric_jets,
    perm_sign,
    plane_wave_tetrad,
    tetrad_from_theta,
    vector_commutator_values,
    weyl_spinors,
)

SMALL = st.fractions(min_value=-4, max_value=4, max_denominator=6)
NONZERO = SMALL.filter(bool)
COORDS = chart_coords("second")
FIRST = [(name,) for name in COORDS]
READ_OUTS = ("scalar", "duality_max_abs", "ricci_max_abs", "sd_weyl_max_abs", "asd_weyl_max_abs")


class TestReadout:
    def test_numerators_are_value_and_gradient_over_the_denominator(self):
        p = point("second", F(1, 2), 2, F(-1, 3), 5)
        j = ScalarField.parse("w^2*x/(3+y)", "second").jet(p, 2)
        nums, den = j.d_numerators((), *FIRST)
        assert [F(x, den) for x in nums] == [j.value, *(j.d(name) for name in COORDS)]

    def test_common_denominator_jets_and_numbers(self):
        p = point("second", F(1, 2), 2, F(-1, 3), 5)
        jets = [ScalarField.parse(t, "second").jet(p, 1) for t in ("w/7", "x^2", "1/(y+z)")]
        nums, den = common_denominator([j.d_numerators((), *FIRST) for j in jets])
        for j, row in zip(jets, nums):
            assert [F(x, den) for x in row] == [j.value, *(j.d(name) for name in COORDS)]
        values = [F(1, 6), F(-3, 4), 2]
        nums, den = common_denominator(values)
        assert den == 12 and [F(x, den) for x in nums] == values

    def test_float_mode_is_over_one(self):
        p = point("second", 0.5, 2.0, -0.25, 5.0)
        j = ScalarField.parse("w^2*x/(3+y)", "second").jet(p, 1)
        nums, den = common_denominator([j.d_numerators((), *FIRST), 0.75])
        assert den == 1 and nums == [j.d_numerators((), *FIRST)[0], 0.75]
        assert FLOAT.divide(3, 4) == 0.75 and EXACT.divide(3, 6) == F(1, 2)


# ---------------------------------------------------------------------------
# curvature


def _theta_setup(text, params):
    t = tetrad_from_theta(SecondPotential(ScalarField.parse(text, "second")))
    return metric_from_tetrad(t), t, params, "second"


def _conformally_flat_setup(text):
    """The flat tetrad scaled to the metric s^2 g_flat: nonzero scalar curvature and Phi."""
    flat = tetrad_from_theta(SecondPotential(ScalarField.constant(0, "second")))
    s = parse_expression(text, "second")

    def scaled(comps, op):
        return tuple(ScalarField("second", op(f.expr, s)) for f in comps)

    t = Tetrad("second", {k: scaled(v, div) for k, v in flat.frame.items()},
               {k: scaled(v, mul) for k, v in flat.coframe.items()})
    return metric_from_tetrad(t), t, {}, "second"


def _plane_wave_setup(text):
    t = plane_wave_tetrad(ScalarField.parse(text, "plane-wave"))
    return metric_from_tetrad(t), t, {}, "plane-wave"


def _polynomial(draw, min_degree, max_degree):
    """A sum of up to three monomials c * x^k over the second chart."""
    terms = draw(st.lists(st.tuples(NONZERO, st.sampled_from(COORDS),
                                    st.integers(min_degree, max_degree)),
                          min_size=1, max_size=3))
    return "+".join(f"({c})*{x}^{k}" for c, x, k in terms)


@st.composite
def profiles(draw):
    """A plane-wave profile f(q, z): a small polynomial, sometimes over (q - c)."""
    terms = draw(st.lists(st.tuples(NONZERO, st.integers(0, 3), st.integers(0, 2)),
                          min_size=1, max_size=3))
    text = "+".join(f"({c})*q^{i}*z^{j}" for c, i, j in terms)
    if draw(st.booleans()):
        text = f"({text})/(q-({draw(SMALL)}))"
    return text


@st.composite
def curvature_inputs(draw):
    kind = draw(st.sampled_from(("sparling-tod", "phi2-eguchi-hanson", "plane-wave", "witness",
                                 "conformally-flat")))
    if kind == "sparling-tod":
        g, t, params, chart = _theta_setup("sigma/(w*x+z*y)", {"sigma": draw(NONZERO)})
    elif kind == "phi2-eguchi-hanson":
        g, t, params, chart = _theta_setup(load_catalog()[kind].expression, {})
    elif kind == "witness":
        g, t, params, chart = _theta_setup("x^2*y^2", {})
    elif kind == "conformally-flat":
        g, t, params, chart = _conformally_flat_setup(f"1+{_polynomial(draw, 1, 2)}")
    else:
        g, t, params, chart = _plane_wave_setup(draw(profiles()))
    values = draw(st.tuples(*[NONZERO] * len(chart_coords(chart))))
    return g, t, params, Point(chart, values)


def _package_quantities(g, t, p, params):
    """Every number the curvature core reports on g's tree jets, and the Christoffel
    route's symbols, R^a_bcd, Ricci and scalar (``geometry_oracle.curvature_at``)."""
    christoffel, rm, ric, scalar = curvature_at(g, p, params)
    rep = weyl_spinors(g, t, p, params)
    got = {name: getattr(rep, name) for name in READ_OUTS}
    return got, {"christoffel": christoffel, "riemann": rm, "ricci": ric, "scalar": scalar}


def _oracle_read_outs(quantities):
    """The core's read-outs from the oracle's quantities (``curvature_oracle.curvature``
    or its ``blocks``): the scalar, the duality residual and the Ricci and spinor maxima."""
    return {"scalar": quantities["scalar"], "duality_max_abs": quantities["duality_max_abs"],
            **{name: max(abs(v) for v in _leaves(quantities[key])) for name, key in (
                ("ricci_max_abs", "ricci"), ("sd_weyl_max_abs", "weyl_sd"),
                ("asd_weyl_max_abs", "weyl_asd"))}}


def _leaves(x):
    """The numbers of a nested list/dict quantity, in a fixed order."""
    if isinstance(x, dict):
        return [v for k in sorted(x) for v in _leaves(x[k])]
    if isinstance(x, list):
        return [v for item in x for v in _leaves(item)]
    return [x]


def _matrix(rows):
    return {(a, b): v for a, row in enumerate(rows) for b, v in enumerate(row)}


def _hexes(x):
    return [v.hex() for v in _leaves(x)]


COORDINATE = ("riemann", "lowered", "W", "ricci", "scalar")


class TestCurvatureAgainstOracle:
    @given(curvature_inputs())
    # sparling-tod near its pole (wx + zy = 1/12): Christoffel symbols reach 2.6e6, so the
    # Gamma.Gamma products summed into R_abcd (6.7e12) dwarf the largest |R_abcd| (3.4e8)
    @example((*_theta_setup("sigma/(w*x+z*y)", {"sigma": F(1)})[:3],
              Point("second", (F(-9, 4), F(11, 4), F(2), F(5, 3)))))
    @settings(max_examples=40, deadline=None)
    def test_exact_equal_and_float_close(self, inputs):
        g, t, params, p = inputs
        try:
            want = curvature_oracle.curvature(g, t, p, params)
        except (EvaluationError, SingularMetricError, ZeroDivisionError):
            reject()
        got, christoffel_route = _package_quantities(g, t, p, params)
        assert got == _oracle_read_outs(want)
        assert all(type(v) is F for v in got.values())
        assert christoffel_route == {name: want[name] for name in christoffel_route}
        # the package's formula and bivector blocks summed value by value are the
        # full W's spinors, Phi and Ricci
        assert want["blocks"] == {name: want[name] for name in want["blocks"]}

        fp = p.as_float()
        want = curvature_oracle.curvature(g, t, fp, params)
        got, christoffel_route = _package_quantities(g, t, fp, params)
        # the Christoffel route does the jet route's float operations in its order
        assert all(_hexes(christoffel_route[name]) == _hexes(want[name])
                   for name in ("christoffel", "riemann"))
        assert (christoffel_route["ricci"], christoffel_route["scalar"]) == (want["ricci"],
                                                                            want["scalar"])
        # relative to the size of the summed terms: the largest coordinate entry or
        # sum of the sizes of an entry's terms (R_abcd's Gamma.Gamma products can
        # dwarf R_abcd), and for frame quantities the largest contraction of |W|,
        # |Ricci| or those sizes with the |frame| (a spinor can cancel far below
        # the terms it sums).  Ricci, the spinors, Phi and the residual are
        # compared with the package's formula and bivector blocks summed value by
        # value, the route it sums in integers: Ricci's maximum and the scalar on the
        # coordinate scale, the spinor maxima and the duality residual on the frame's
        sizes = want["sizes"]
        frame = {k: tuple(map(abs, u)) for k, u in t.frame_values(fp, params).items()}
        terms = [curvature_oracle.frame_components({k: abs(v) for k, v in tensor.items()}, frame)
                 for tensor in (want["W"], _matrix(want["ricci"]), sizes["lowered"],
                                _matrix(sizes["ricci"]))]
        coordinate = [want[name] for name in COORDINATE] + list(sizes.values())
        scales = {"coordinate": max(abs(v) for q in coordinate for v in _leaves(q)),
                  "frame": max(abs(want["scalar"]), sizes["scalar"],
                               *(v for c in terms for v in c.values()))}
        want = _oracle_read_outs({**want, **want["blocks"]})
        for name, x in got.items():
            scale = scales["coordinate" if name in ("scalar", "ricci_max_abs") else "frame"]
            assert type(x) is float and abs(x - want[name]) <= 1e-12 * scale, name

    def test_sparling_tod_point_spends_few_fraction_ops(self, monkeypatch):
        # one exact weyl_spinors call: only the tetrad's frame values are folded
        # over Fractions; every curvature sum runs on integers
        entry = load_catalog()["sparling-tod"]
        t = catalog_tetrad(entry)
        g = metric_from_tetrad(t)
        p = sample_points(entry.chart, 21, 1, entry.exclusions)[0]
        count = [0]

        def counted(op):
            def wrapper(*args):
                count[0] += 1
                return op(*args)
            return wrapper

        for name in ("__add__", "__sub__", "__mul__", "__truediv__"):
            monkeypatch.setattr(F, name, counted(getattr(F, name)))
        weyl_spinors(g, t, p, dict(entry.params))
        monkeypatch.undo()
        assert 0 < count[0] <= 100


# each mutation maps the metric's values g to a change of R_abcd, a dict over
# lowered (a, b, c, d)

def _pair_asymmetric(g):
    """R_0123 one unit up, with its partners under a <-> b and c <-> d but not R_2301:
    pair symmetry and so the first Bianchi identity break."""
    return {(0, 1, 2, 3): 1, (1, 0, 2, 3): -1, (0, 1, 3, 2): -1, (1, 0, 3, 2): 1}


def _totally_antisymmetric(g):
    """Plus eps_abcd: pair symmetric, but the first Bianchi identity breaks."""
    return {p: perm_sign(p) for p in itertools.permutations(range(4))}


def _not_metric(g):
    """R^0_{123} one unit up (R^0_{132} down), lowered: R_abcd loses its antisymmetry
    in a, b.

    The package's block holds R_abcd for a < b only, antisymmetric by
    construction, so there this is R_0123 up by g_00: a break of pair symmetry
    where g_00 is nonzero (not on the conformally flat and plane-wave setups
    below, whose g_a0 is nonzero only for a > 1)."""
    return {k: v for e in range(4) for k, v in (((e, 1, 2, 3), g[e][0]), ((e, 1, 3, 2), -g[e][0]))}


SETUPS = {"sparling-tod": lambda: _theta_setup("sigma/(w*x+z*y)", {"sigma": F(2, 3)}),
          "witness": lambda: _theta_setup("x^2*y^2", {}),
          "conformally-flat": lambda: _conformally_flat_setup("1+w^2-x*z/3"),
          "plane-wave": lambda: _plane_wave_setup("q^3*z-2*q")}


SOLUTIONS = ("sparling-tod", "plane-wave")


def _before_and_after(name, change, monkeypatch):
    """The package's read-outs (the Ricci, SD and ASD Weyl maxima) and the oracle's
    two reassembly residuals, of the full W and of the bivector blocks, on a setup,
    before and after a change to R_abcd: on the package's block where a < b and
    c < d, the entries it holds, on the oracle's lowered R_abcd, which its blocks
    read, and on its R^e_bcd raised by the inverse metric, which its full W reads."""
    g, t, params, chart = SETUPS[name]()
    p = point(chart, F(1, 2), 2, F(-1, 3), 5)

    def read_outs():
        rep = weyl_spinors(g, t, p, params)
        want = curvature_oracle.curvature(g, t, p, params)
        return ((rep.ricci_max_abs, rep.sd_weyl_max_abs, rep.asd_weyl_max_abs),
                want["reassembly_max_abs"], want["blocks"]["reassembly_max_abs"])
    before = read_outs()
    ginv = [[F(x.value) for x in row] for row in
            invert_jet_matrix(metric_jets(g, p, 0, params))]
    delta = change(g.matrix_values(p, params))
    pairs = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    real = curvature._riemann_block
    real_lowered, real_oracle = curvature_oracle.riemann_lowered, curvature_oracle.riemann

    def broken(*args):
        (M, dm), *rest = real(*args)
        M = [row[:] for row in M]
        for (a, b, c, d), v in delta.items():
            if a < b and c < d:
                M[pairs.index((a, b))][pairs.index((c, d))] += dm * v
        return ((M, dm), *rest)

    def broken_lowered(*args):
        rl = dict(real_lowered(*args))
        for k, v in delta.items():
            rl[k] += v
        return rl

    def broken_oracle(*args):
        rm, *rest = real_oracle(*args)
        rm = copy.deepcopy(rm)
        for (a, b, c, d), v in delta.items():
            for e in range(4):
                rm[e][b][c][d] += v * ginv[e][a]
        return (rm, *rest)
    monkeypatch.setattr(curvature, "_riemann_block", broken)
    monkeypatch.setattr(curvature_oracle, "riemann_lowered", broken_lowered)
    monkeypatch.setattr(curvature_oracle, "riemann", broken_oracle)
    return before, read_outs()


def _package_sees_it(name, before, after):
    """On a solution the Ricci or SD maximum leaves 0, so the verdict fails; on a
    non-solution the read-outs move."""
    if name in SOLUTIONS:
        assert before[:2] == (0, 0) and after[:2] != (0, 0)
    else:
        assert after != before


class TestReassemblyCatchesBrokenRiemann:
    @pytest.mark.parametrize("name,mutate", [
        *(pytest.param(name, _pair_asymmetric, id=f"{name}-pair-asymmetric")
          for name in ("sparling-tod", "witness", "plane-wave")),
        *(pytest.param(name, _not_metric, id=f"{name}-not-metric")
          for name in ("sparling-tod", "witness")),
    ])
    def test_both_reassemblies_see_it(self, name, mutate, monkeypatch):
        # the package's Ricci or SD maximum moves, and both oracle reassemblies see it
        before, after = _before_and_after(name, mutate, monkeypatch)
        _package_sees_it(name, before[0][:2], after[0][:2])
        assert before[1:] == (0, 0)
        assert after[1] != 0 and after[2] != 0

    @pytest.mark.parametrize("name,mutate", [
        pytest.param("conformally-flat", _pair_asymmetric, id="conformally-flat-pair-asymmetric"),
        *(pytest.param(name, _totally_antisymmetric, id=f"{name}-eps") for name in SETUPS),
    ])
    def test_blocks_see_what_the_full_w_rebuilds(self, name, mutate, monkeypatch):
        # the full-W reassembly compares W with eps eps C + eps eps C', C and C' its
        # own eps-contractions, so it rebuilds exactly whatever has that form: a
        # pair-asymmetric part inside the SD or ASD block (as here on the
        # conformally flat frame) and eps_abcd.  The bivector blocks still see both,
        # as R(B, B') asymmetry and as spinors that are not symmetric in i2, i3, and
        # so do the package's read-outs: on the x^2 y^2 witness eps_abcd moves the
        # ASD maximum only, which the verdict does not read (the witness fails anyway)
        before, after = _before_and_after(name, mutate, monkeypatch)
        _package_sees_it(name, before[0], after[0])
        assert before[1:] == (0, 0)
        assert after[2] != 0


# ---------------------------------------------------------------------------
# Lie brackets


@st.composite
def vector_fields(draw):
    """Four components, each a small polynomial over its own constant and a rational factor."""
    comps = []
    for den in draw(st.lists(st.integers(2, 40), min_size=4, max_size=4, unique=True)):
        text = _polynomial(draw, 0, 2)
        shift = draw(st.sampled_from(COORDS))
        comps.append(ScalarField.parse(f"({text})/({den}*(1+{shift}^2))", "second"))
    return tuple(comps)


def direct_bracket(u, v, p):
    """U^b d_b V^a - V^b d_b U^a summed in Fractions, derivatives by symbolic diff."""
    uv = [f.value(p) for f in u]
    vv = [f.value(p) for f in v]
    return tuple(sum(uv[b] * field_diff(v[a], COORDS[b]).value(p)
                     - vv[b] * field_diff(u[a], COORDS[b]).value(p)
                     for b in range(4)) for a in range(4))


def package_bracket(u, v, p):
    """[U, V] by the package's bracket of numerator fields, each field's values and
    gradients over one denominator, divided once."""
    first = [(c,) for c in COORDS]
    (U, du), (V, dv) = (common_denominator([f.jet(p, 1).d_numerators((), *first) for f in w])
                        for w in (u, v))
    return tuple(p.domain.divide(x, du * dv)
                 for x in _bracket(dict(enumerate(U)), dict(enumerate(V)), 4))


class TestVectorCommutatorSums:
    """The tree route's bracket (geometry_oracle) and the package's against a sum of
    Fraction products of symbolic derivatives."""

    @given(vector_fields(), vector_fields(), st.tuples(*[SMALL] * 4))
    @settings(max_examples=40, deadline=None)
    def test_matches_direct_sum_and_is_antisymmetric(self, u, v, values):
        p = Point("second", values)
        got = vector_commutator_values(u, v, p)
        assert got == direct_bracket(u, v, p) == package_bracket(u, v, p)
        assert all(type(x) is F for x in got)
        assert vector_commutator_values(v, u, p) == tuple(-x for x in got)
        fp = p.as_float()
        got = vector_commutator_values(u, v, fp)
        assert all(type(x) is float for x in got)
        assert vector_commutator_values(v, u, fp) == tuple(-x for x in got)
        assert package_bracket(v, u, fp) == tuple(-x for x in package_bracket(u, v, fp))
