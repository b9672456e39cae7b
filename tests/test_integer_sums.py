"""Integer value sums in curvature and Lie brackets, against value-by-value oracles."""

import copy
import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, reject, settings, strategies as st

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
from heavenly.tetrads import SecondPotential, vector_commutator_values

import curvature_oracle
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
    weyl_spinors,
)

SMALL = st.fractions(min_value=-4, max_value=4, max_denominator=6)
NONZERO = SMALL.filter(bool)
COORDS = chart_coords("second")
FIRST = [(name,) for name in COORDS]
REPORT_FIELDS = ("weyl_asd", "weyl_sd", "phi", "reassembly_max_abs", "duality_max_abs")


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
    """The curvature core's coordinate and report quantities on g's tree jets, and
    its Christoffel symbols."""
    christoffel, rm, ric, scalar = curvature_at(g, p, params)
    rep = weyl_spinors(g, t, p, params)
    got = {"riemann": rm, "ricci": ric, "scalar": scalar}
    got.update({name: getattr(rep, name) for name in REPORT_FIELDS})
    return got, christoffel, (rep.ricci, rep.scalar)


def _leaves(x):
    """The numbers of a nested list/dict quantity, in a fixed order."""
    if isinstance(x, dict):
        return [v for k in sorted(x) for v in _leaves(x[k])]
    if isinstance(x, list):
        return [v for item in x for v in _leaves(item)]
    return [x]


def _hexes(x):
    return [v.hex() for v in _leaves(x)]


COORDINATE = ("riemann", "lowered", "W", "ricci", "scalar")


class TestCurvatureAgainstOracle:
    @given(curvature_inputs())
    @settings(max_examples=40, deadline=None)
    def test_exact_equal_and_float_close(self, inputs):
        g, t, params, p = inputs
        try:
            want = curvature_oracle.curvature(g, t, p, params)
        except (EvaluationError, SingularMetricError, ZeroDivisionError):
            reject()
        got, christoffel, report_ricci = _package_quantities(g, t, p, params)
        assert report_ricci == (got["ricci"], got["scalar"]) == (want["ricci"], want["scalar"])
        for name, value in got.items():
            assert value == want[name], name
            assert all(type(v) is F for v in _leaves(value)), name
        # the bivector blocks summed value by value are the full W's spinors
        assert want["blocks"] == {name: want[name] for name in want["blocks"]}
        assert christoffel == want["christoffel"]

        fp = p.as_float()
        want = curvature_oracle.curvature(g, t, fp, params)
        got, christoffel, _ = _package_quantities(g, t, fp, params)
        assert (got["ricci"], got["scalar"]) == (want["ricci"], want["scalar"])
        # the connection and Riemann do the jet route's float operations in its order
        assert _hexes(christoffel) == _hexes(want["christoffel"])
        assert _hexes(got["riemann"]) == _hexes(want["riemann"])
        # relative to the size of the summed terms: the largest coordinate entry,
        # and for frame quantities the largest contraction of |W| or |Ricci| with
        # the |frame| (a spinor can cancel far below the terms it sums).  The
        # spinors and their residual are compared with the bivector-block route
        # summed value by value, the route the package sums in integers
        frame = {k: tuple(map(abs, u)) for k, u in t.frame_values(fp, params).items()}
        terms = [curvature_oracle.frame_components({k: abs(v) for k, v in tensor.items()}, frame)
                 for tensor in (want["W"], {(a, b): abs(v) for a, row in enumerate(want["ricci"])
                                            for b, v in enumerate(row)})]
        scales = {"coordinate": max(abs(v) for name in COORDINATE for v in _leaves(want[name])),
                  "frame": max(abs(want["scalar"]), *(v for c in terms for v in c.values()))}
        want.update(want["blocks"])
        for name, value in got.items():
            scale = scales["coordinate" if name in COORDINATE else "frame"]
            for x, y in zip(_leaves(value), _leaves(want[name]), strict=True):
                assert type(x) is float and abs(x - y) <= 1e-12 * scale, name

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


def _raised(change):
    """A mutation of R^e_bcd that adds ``change`` (a dict over lowered (a, b, c, d))
    to R_abcd, raised by the inverse metric values; ``unit`` is 1 in rm's scale."""
    def mutate(rm, unit, ginv):
        out = copy.deepcopy(rm)
        for (a, b, c, d), v in change.items():
            for e in range(4):
                out[e][b][c][d] += unit * v * ginv[e][a]
        return out
    return mutate


# R_0123 one unit up, with its partners under a <-> b and c <-> d but not R_2301:
# pair symmetry and so the first Bianchi identity break
PAIR_ASYMMETRIC = _raised({(0, 1, 2, 3): 1, (1, 0, 2, 3): -1, (0, 1, 3, 2): -1, (1, 0, 3, 2): 1})
# plus eps_abcd: pair symmetric, but the first Bianchi identity breaks
TOTALLY_ANTISYMMETRIC = _raised({p: perm_sign(p) for p in itertools.permutations(range(4))})


def _not_metric(rm, unit, ginv):
    """R^0_{123} one unit up (R^0_{132} down): R_abcd loses its antisymmetry in a, b.

    The bivector blocks read R_abcd on a < b only, so they see this only where
    it also breaks pair symmetry there (not on the conformally flat and
    plane-wave setups below, whose g_a0 is nonzero only for a > 1)."""
    out = copy.deepcopy(rm)
    out[0][1][2][3] += unit
    out[0][1][3][2] -= unit
    return out


SETUPS = {"sparling-tod": lambda: _theta_setup("sigma/(w*x+z*y)", {"sigma": F(2, 3)}),
          "witness": lambda: _theta_setup("x^2*y^2", {}),
          "conformally-flat": lambda: _conformally_flat_setup("1+w^2-x*z/3"),
          "plane-wave": lambda: _plane_wave_setup("q^3*z-2*q")}


def _reassembly_before_and_after(name, mutate, monkeypatch):
    """The package's and the oracle's reassembly residuals on a setup, before and
    after a mutation of R^a_bcd."""
    g, t, params, chart = SETUPS[name]()
    p = point(chart, F(1, 2), 2, F(-1, 3), 5)

    def residuals():
        return (weyl_spinors(g, t, p, params).reassembly_max_abs,
                curvature_oracle.curvature(g, t, p, params)["reassembly_max_abs"])
    before = residuals()
    ginv = [[F(x.value) for x in row] for row in
            invert_jet_matrix(metric_jets(g, p, 0, params))]
    real, real_oracle = curvature._riemann_values, curvature_oracle.riemann

    def broken(G, D):
        rm, d2 = real(G, D)
        return mutate(rm, d2, ginv), d2

    def broken_oracle(*args):
        rm, *rest = real_oracle(*args)
        return (mutate(rm, 1, ginv), *rest)
    monkeypatch.setattr(curvature, "_riemann_values", broken)
    monkeypatch.setattr(curvature_oracle, "riemann", broken_oracle)
    return before, residuals()


class TestReassemblyCatchesBrokenRiemann:
    @pytest.mark.parametrize("name,mutate", [
        *(pytest.param(name, PAIR_ASYMMETRIC, id=f"{name}-pair-asymmetric")
          for name in ("sparling-tod", "witness", "plane-wave")),
        *(pytest.param(name, _not_metric, id=f"{name}-not-metric")
          for name in ("sparling-tod", "witness")),
    ])
    def test_both_reassemblies_see_it(self, name, mutate, monkeypatch):
        before, after = _reassembly_before_and_after(name, mutate, monkeypatch)
        assert before == (0, 0)
        assert after[0] != 0 and after[1] != 0

    @pytest.mark.parametrize("name,mutate", [
        pytest.param("conformally-flat", PAIR_ASYMMETRIC, id="conformally-flat-pair-asymmetric"),
        *(pytest.param(name, TOTALLY_ANTISYMMETRIC, id=f"{name}-eps") for name in SETUPS),
    ])
    def test_blocks_see_what_the_full_w_rebuilds(self, name, mutate, monkeypatch):
        # the full-W reassembly compares W with eps eps C + eps eps C', C and C' its
        # own eps-contractions, so it rebuilds exactly whatever has that form: a
        # pair-asymmetric part inside the SD or ASD block (as here on the
        # conformally flat frame) and eps_abcd.  The bivector blocks still see both,
        # as R(B, B') asymmetry and as spinors that are not symmetric in i2, i3
        before, after = _reassembly_before_and_after(name, mutate, monkeypatch)
        assert before == (0, 0)
        assert after[0] != 0


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
    return tuple(sum(uv[b] * v[a].diff(COORDS[b]).value(p) - vv[b] * u[a].diff(COORDS[b]).value(p)
                     for b in range(4)) for a in range(4))


class TestVectorCommutatorSums:
    @given(vector_fields(), vector_fields(), st.tuples(*[SMALL] * 4))
    @settings(max_examples=40, deadline=None)
    def test_matches_direct_sum_and_is_antisymmetric(self, u, v, values):
        p = Point("second", values)
        got = vector_commutator_values(u, v, p)
        assert got == direct_bracket(u, v, p)
        assert all(type(x) is F for x in got)
        assert vector_commutator_values(v, u, p) == tuple(-x for x in got)
        fp = p.as_float()
        got = vector_commutator_values(u, v, fp)
        assert all(type(x) is float for x in got)
        assert vector_commutator_values(v, u, fp) == tuple(-x for x in got)
