"""Connection, curvature and spinor decomposition checks."""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, reject, settings, strategies as st

from heavenly import curvature
from heavenly.catalog import load_catalog
from heavenly.curvature import spinors_at
from heavenly.jetcore import EvaluationError, Jet, Point, PoleError, ScalarField, point
from heavenly.sampling import sample_points
from heavenly.tetrads import (
    EPS,
    FirstPotential,
    SecondPotential,
    geometry_from_omega,
    geometry_from_theta,
    plane_wave_geometry,
    second_heavenly_residual,
)

import curvature_oracle
from geometry_oracle import (
    DegenerateHessianError,
    MetricField,
    SingularMetricError,
    catalog_tetrad,
    christoffel_numerators,
    curvature_at,
    derived_metric_jets,
    invert_jet_matrix,
    metric_from_tetrad,
    metric_jets,
    plane_wave_tetrad,
    ricci_values,
    riemann_values,
    tetrad_from_omega,
    table_of_jets,
    tetrad_from_theta,
    tree_inputs,
    verify_asd_vacuum,
    weyl_spinors,
)
from jet_work import JetWork
from test_integer_sums import SETUPS, profiles

SIGMA1 = {"sigma": F(1)}


def st_setup(sigma=F(1)):
    theta = SecondPotential(ScalarField.parse("sigma/(w*x+z*y)", "second"))
    t = tetrad_from_theta(theta)
    return metric_from_tetrad(t), t, {"sigma": sigma}


def flat_setup():
    theta = SecondPotential(ScalarField.constant(0, "second"))
    t = tetrad_from_theta(theta)
    return metric_from_tetrad(t), t


def pw_setup(profile="q^2"):
    t = plane_wave_tetrad(ScalarField.parse(profile, "plane-wave"))
    return metric_from_tetrad(t), t


def pts(seed=1, n=10):
    return sample_points("second", seed, n, ("q_nonzero",))


def blocks(g, t, p, params=None):
    """The oracle's spinors, Phi, reassembly residual, Ricci and scalar off Riemann's
    bivector blocks, the route the package sums in integers (``curvature_oracle.blocks``)."""
    return curvature_oracle.curvature(g, t, p, params)["blocks"]


class TestChristoffel:
    def test_flat_all_zero(self):
        g, _ = flat_setup()
        c = curvature_at(g, point("second", 1, 2, 3, 4))[0]
        assert all(v == 0 for a in c for b in a for v in b)

    def test_metric_compatibility_reconstructed(self):
        # nabla_c g_ab = d_c g_ab - G^e_ca g_eb - G^e_cb g_ae = 0, from jets
        g, _, params = st_setup()
        for p in pts(seed=2, n=3):
            gj = [[f.jet(p, 1, params) for f in row] for row in g.components]
            c = curvature_at(g, p, params)[0]
            for a, b, (k, name) in itertools.product(range(4), range(4), enumerate("wzxy")):
                corr = sum(c[e][k][a] * gj[e][b].value + c[e][k][b] * gj[a][e].value
                           for e in range(4))
                assert gj[a][b].d(name) - corr == 0

    def test_plane_wave_pattern(self):
        # nonzero symbols for 2dwdq+2dzdp+f dz^2 are exactly
        # G^w_zz = -f_q/2, G^p_zz = f_z/2, G^p_zq = G^p_qz = f_q/2
        for profile, fq, fz in (("q^2", lambda q, z: 2 * q, lambda q, z: F(0)),
                                ("q*z", lambda q, z: z, lambda q, z: q)):
            g, _ = pw_setup(profile)
            for p in sample_points("plane-wave", 3, 3):
                w_, z_, q_, p_ = (F(v) for v in p.values)
                c = curvature_at(g, p)[0]
                expect = {}
                if fq(q_, z_):
                    expect[(0, 1, 1)] = -fq(q_, z_) / 2
                    expect[(3, 1, 2)] = fq(q_, z_) / 2
                    expect[(3, 2, 1)] = fq(q_, z_) / 2
                if fz(q_, z_):
                    expect[(3, 1, 1)] = fz(q_, z_) / 2
                got = {(a, b, k): c[a][b][k] for a in range(4) for b in range(4)
                       for k in range(4) if c[a][b][k] != 0}
                assert got == expect

    def test_symmetry_in_lower_indices(self):
        g, _, params = st_setup(F(1, 2))
        c = curvature_at(g, pts(seed=4)[0], {"sigma": F(1, 2)})[0]
        for a, b, k in itertools.product(range(4), repeat=3):
            assert c[a][b][k] == c[a][k][b]

    def test_singular_metric_rejected(self):
        zero = ScalarField.constant(0, "second")
        one = ScalarField.constant(1, "second")
        g = MetricField("second", ((one, zero, zero, zero),) + ((zero,) * 4,) * 3)
        with pytest.raises(SingularMetricError):
            curvature_at(g, point("second", 1, 1, 1, 1))


class TestRiemann:
    def test_flat_zero(self):
        g, _ = flat_setup()
        rm = curvature_at(g, point("second", 1, 2, 3, 4))[1]
        assert all(rm[a][b][c][d] == 0 for a in range(4) for b in range(4)
                   for c in range(4) for d in range(4))

    def test_antisymmetries_exact(self):
        # R^a_bcd lowered by the metric values (the oracle's lowering)
        g, _, params = st_setup()
        p = pts(seed=5)[0]
        rl = curvature_oracle.lower(g.matrix_values(p, params), curvature_at(g, p, params)[1])
        for (a, b, c, d), v in rl.items():
            assert v == -rl[(b, a, c, d)]
            assert v == -rl[(a, b, d, c)]

    def test_first_bianchi_exact(self):
        g, _, params = st_setup()
        p = pts(seed=6)[0]
        rm = curvature_at(g, p, params)[1]
        for a, b, c, d in itertools.product(range(4), repeat=4):
            assert rm[a][b][c][d] + rm[a][c][d][b] + rm[a][d][b][c] == 0


class TestRicci:
    def test_quadratic_pole_vacuum_ten_points(self):
        g, _, params = st_setup()
        for p in pts(seed=7, n=10):
            ric, scalar = curvature_at(g, p, params)[2:]
            assert all(v == 0 for row in ric for v in row)
            assert scalar == 0

    def test_plane_wave_vacuum(self):
        g, _ = pw_setup("q^2")
        for p in sample_points("plane-wave", 8, 5):
            ric = curvature_at(g, p)[2]
            assert all(v == 0 for row in ric for v in row)

    def test_non_solution_witness_not_vacuum(self):
        # note: the witness must carry a non-solution transverse Hessian; the
        # metric never sees the rest of the potential (x*w*y*z, whose Hessian
        # matches a vacuum family, slips through and is excluded here)
        theta = SecondPotential(ScalarField.parse("x^2*y^2", "second"))
        assert second_heavenly_residual(theta, point("second", 1, 1, 1, 1)) != 0
        g = metric_from_tetrad(tetrad_from_theta(theta))
        ric = curvature_at(g, point("second", 1, 1, 1, 1))[2]
        assert any(v != 0 for row in ric for v in row)


class TestWeylSpinors:
    def test_flat_everything_zero(self):
        g, t = flat_setup()
        rep = weyl_spinors(g, t, point("second", 1, 2, 3, 4))
        assert rep.ricci_max_abs == 0
        assert rep.sd_weyl_max_abs == 0
        assert rep.asd_weyl_max_abs == 0
        assert blocks(g, t, point("second", 1, 2, 3, 4))["reassembly_max_abs"] == 0

    def test_quadratic_pole_is_asd_vacuum(self):
        g, t, params = st_setup()
        nontrivial = False
        for p in pts(seed=9, n=5):
            rep = weyl_spinors(g, t, p, params)
            assert rep.sd_weyl_max_abs == 0
            assert rep.ricci_max_abs == 0
            assert blocks(g, t, p, params)["reassembly_max_abs"] == 0
            nontrivial = nontrivial or rep.asd_weyl_max_abs != 0
        assert nontrivial

    def test_weyl_spinors_totally_symmetric(self):
        g, t, params = st_setup(F(-3))
        rep = blocks(g, t, pts(seed=10)[0], {"sigma": F(-3)})
        for spinor in (rep["weyl_asd"], rep["weyl_sd"]):
            for idx, v in spinor.items():
                for perm in itertools.permutations(idx):
                    assert spinor[perm] == v

    def test_phi_trace_free(self):
        theta = SecondPotential(ScalarField.parse("x^2*y^2", "second"))
        t = tetrad_from_theta(theta)
        g = metric_from_tetrad(t)
        phi = blocks(g, t, point("second", 1, 1, 1, 1))["phi"]
        trace = sum(EPS[(a, b)] * EPS[(ap, bp)] * phi[(a, b, ap, bp)]
                    for a in range(2) for b in range(2) for ap in range(2) for bp in range(2))
        assert trace == 0

    def test_reassembly_on_non_solution(self):
        theta = SecondPotential(ScalarField.parse("x^2*y^2", "second"))
        t = tetrad_from_theta(theta)
        g = metric_from_tetrad(t)
        assert blocks(g, t, point("second", 1, 1, 1, 1))["reassembly_max_abs"] == 0

    def test_eguchi_hanson_family_member(self):
        theta = SecondPotential(ScalarField.parse("(-y/w)^2/(w*x+z*y)", "second"))
        t = tetrad_from_theta(theta)
        g = metric_from_tetrad(t)
        for p in sample_points("second", 11, 4, ("q_nonzero", "w_nonzero")):
            rep = weyl_spinors(g, t, p)
            assert rep.ricci_max_abs == 0
            assert rep.sd_weyl_max_abs == 0


class TestVerify:
    def test_quadratic_pole_passes(self):
        g, t, params = st_setup()
        out = verify_asd_vacuum(g, t, pts(seed=12, n=5), params)
        assert out["verdict"] == "pass"

    def test_plane_wave_cubic_passes(self):
        g, t = pw_setup("q^3")
        out = verify_asd_vacuum(g, t, sample_points("plane-wave", 13, 5))
        assert out["verdict"] == "pass"

    def test_witness_fails_with_located_component(self):
        theta = SecondPotential(ScalarField.parse("x^2*y^2", "second"))
        t = tetrad_from_theta(theta)
        g = metric_from_tetrad(t)
        out = verify_asd_vacuum(g, t, [point("second", 1, 1, 1, 1)])
        assert out["verdict"] == "fail"
        assert out["records"][0]["ricci_max_abs"] != 0

    def test_sigma_scaling_preserves_verdict(self):
        for sigma in (F(1), F(5, 3), F(-7)):
            g, t, _ = st_setup(sigma)
            out = verify_asd_vacuum(g, t, pts(seed=14, n=3), {"sigma": sigma})
            assert out["verdict"] == "pass"

    def test_float_mode_tolerance(self):
        g, t, _ = st_setup()
        fpts = [p.as_float() for p in pts(seed=15, n=3)]
        out = verify_asd_vacuum(g, t, fpts, {"sigma": 1.0}, tol=1e-9)
        assert out["verdict"] == "pass"


FRAME_KEYS = ((0, 0), (0, 1), (1, 0), (1, 1))
# sparse rationals: zero entries exercise the zero-skipping in the contraction
RATIONALS = st.one_of(st.just(F(0)), st.fractions(min_value=-5, max_value=5, max_denominator=7))


def direct_frame_component(tensor, frame, keys):
    """The r-fold sum T_{a..d} u1^a .. ur^d written out term by term (test oracle)."""
    s = 0
    for idx, val in tensor.items():
        if val == 0:
            continue
        term = val
        for k, i in zip(keys, idx):
            term *= frame[k][i]
        s += term
    return s


def catalog_setup(name):
    entry = load_catalog()[name]
    profile = entry.expression if entry.kind == "metric" else None
    t = catalog_tetrad(entry, profile)
    points = sample_points(entry.chart, 21, 2, entry.exclusions)
    return metric_from_tetrad(t), t, dict(entry.params), points


def witness_setup():
    t = tetrad_from_theta(SecondPotential(ScalarField.parse("x^2*y^2", "second")))
    return metric_from_tetrad(t), t, {}, [point("second", 1, 1, 1, 1), point("second", 2, -1, 1, 3)]


class TestFrameProjection:
    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_successive_contractions_match_direct_sum(self, data):
        # the oracle's projection, which its full-W route and the float scale of
        # the differential test read
        rank = data.draw(st.integers(1, 4))
        idx = list(itertools.product(range(4), repeat=rank))
        entries = data.draw(st.lists(RATIONALS, min_size=len(idx), max_size=len(idx)))
        vectors = data.draw(st.lists(st.lists(RATIONALS, min_size=4, max_size=4),
                                     min_size=4, max_size=4))
        tensor = dict(zip(idx, entries))
        frame = dict(zip(FRAME_KEYS, map(tuple, vectors)))
        got = curvature_oracle.frame_components(tensor, frame)
        assert set(got) == set(itertools.product(FRAME_KEYS, repeat=rank))
        for keys, value in got.items():
            assert value == direct_frame_component(tensor, frame, keys)


class TestSinglePass:
    @pytest.mark.parametrize("setup", [
        lambda: catalog_setup("sparling-tod"),
        lambda: catalog_setup("phi2-eguchi-hanson"),
        lambda: catalog_setup("plane-wave"),
        witness_setup,
    ], ids=["sparling-tod", "phi2-eguchi-hanson", "plane-wave", "witness"])
    def test_single_riemann_matches_public_routes(self, setup):
        g, t, params, points = setup()
        for p in points:
            _, rm, ric, scalar = curvature_at(g, p, params)
            assert ric == [[sum(rm[a][b][a][d] for a in range(4)) for d in range(4)]
                           for b in range(4)]
            # scalar against an inverse of the order-0 metric, independent of the pipeline
            ginv = invert_jet_matrix(metric_jets(g, p, 0, params))
            assert scalar == sum(ginv[b][d].value * ric[b][d] for b in range(4) for d in range(4))
            rep, block = weyl_spinors(g, t, p, params), blocks(g, t, p, params)
            assert (block["ricci"], block["scalar"], rep.scalar) == (ric, scalar, scalar)
            assert rep.ricci_max_abs == max(abs(v) for row in ric for v in row)
            assert block["reassembly_max_abs"] == 0 and rep.duality_max_abs == 0

    def test_symmetric_jets_built_once(self, monkeypatch):
        # g_ab is built for a <= b only and mirrored, so the 10 metric jets fold
        # their shared subtrees once (folded one at a time they took 349
        # products and 10 inversions), and each jet keeps its reciprocal and
        # squarings (117 products and 7 inversions without).  Past the folds,
        # only the tree adapter's Gauss-Jordan inverse multiplies jets, on
        # order-0 truncations (the core reads the inverse's values), and it
        # takes no product by a zero jet (113 products with them); Riemann and
        # every sum after it run on numerators (order-1 Christoffel jets took
        # 160 products)
        g, t, params, points = catalog_setup("sparling-tod")
        work = JetWork(monkeypatch)
        weyl_spinors(g, t, points[0], params)
        monkeypatch.undo()
        assert work.fold_count <= 10
        assert work.most_folds_of_one_tree == 1
        assert work.products <= 65
        assert work.inversions <= 5
        # the geometry's route folds Theta alone and takes the inverse in closed
        # form: 3 products and 1 inversion, all in Theta's fold (51 and 5 with
        # the Gauss-Jordan inverse)
        work = JetWork(monkeypatch)
        rep = spinors_at(points[0], *load_catalog()["sparling-tod"].geometry().at(points[0], params))
        monkeypatch.undo()
        assert rep == weyl_spinors(g, t, points[0], params)
        assert work.fold_count == 1
        assert work.products <= 3
        assert work.inversions <= 1


# ---------------------------------------------------------------------------
# the jet route: metric jets and frame values off one jet of the primary field

# c * u^a * v^b * s^c * t^d over a chart's four coordinates
MONOMIAL = st.tuples(st.fractions(-3, 3, max_denominator=4).filter(bool), *[st.integers(0, 2)] * 4)


def _poly_text(terms, names) -> str:
    return "+".join(f"({c})*" + "*".join(f"{v}^{k}" for v, k in zip(names, ks))
                    for c, *ks in terms)


@st.composite
def geometry_routes(draw):
    """A random primary field with its tree route (tetrad, metric) and its jet route.

    Second-form potentials are polynomials or polynomials over a polynomial,
    plane-wave profiles come from ``test_integer_sums.profiles``, and
    first-form potentials are w zt + z wt plus a polynomial, so the mixed
    Hessian block is invertible near the origin (points where it is not are
    rejected).  A polynomial that cancels w zt or z wt makes the block singular
    everywhere; the tree route refuses it and the tetrad is None.
    """
    kind = draw(st.sampled_from(["second", "first", "plane-wave"]))
    if kind == "plane-wave":
        f = ScalarField.parse(draw(profiles()), "plane-wave")
        t, geometry = plane_wave_tetrad(f), plane_wave_geometry(f)
    else:
        names = ("w", "z", "x", "y") if kind == "second" else ("w", "z", "wt", "zt")
        text = _poly_text(draw(st.lists(MONOMIAL, min_size=1, max_size=4)), names)
        if kind == "second" and draw(st.booleans()):
            below = _poly_text(draw(st.lists(MONOMIAL, min_size=1, max_size=2)), names)
            text = f"({text})/(1+{below})"
        if kind == "second":
            theta = SecondPotential(ScalarField.parse(text, "second"))
            t, geometry = tetrad_from_theta(theta), geometry_from_theta(theta)
        else:
            omega = FirstPotential(ScalarField.parse(f"w*zt+z*wt+{text}", "first"))
            geometry = geometry_from_omega(omega)
            try:
                t = tetrad_from_omega(omega)
            except DegenerateHessianError:
                t = None
    values = draw(st.tuples(*[st.fractions(-3, 3, max_denominator=5)] * 4))
    return t, geometry, Point(geometry.field.chart, values)


def _values(table) -> list[list[F]]:
    """g_ab's values, divided, off a metric table."""
    rows, den = table
    return [[F(rows[curvature._AT[a][b]][0], den) for b in range(4)] for a in range(4)]


def _value_jets(table, p: Point) -> list[list[Jet]]:
    """g_ab's values off a metric table as order-0 jets at p, for the Gauss-Jordan inverse."""
    return [[Jet.constant(v, p, 0) for v in row] for row in _values(table)]


def _divided(table) -> list[list[F]]:
    rows, den = table
    return [[_quotient(x, den) for x in row] for row in rows]


def _quotient(x, den):
    """A numerator over its denominator: a Fraction of integers, a float over 1."""
    return F(x, den) if type(x) is int else x / den


def _frame_values(frame) -> dict:
    """The frame's values off its ``FrameTable``."""
    fv, den = frame
    return {k: tuple(_quotient(x, den) for x in u) for k, u in fv.items()}


@st.composite
def block_inputs(draw):
    """A way to a point's order-2 tree metric jets, and to a metric table and inverse
    values there: a random ``geometry_routes`` field's table and inverse, or those the
    tree route reads off the jets of the x^2 y^2 witness or the conformally flat
    s^2 g_flat, the non-solutions whose Ricci and scalar terms are nonzero, at a
    random point."""
    if draw(st.booleans()):
        t, geometry, p = draw(geometry_routes())
        if t is None:
            reject()
        return lambda: (metric_jets(metric_from_tetrad(t), p, 2, None), *geometry.at(p)[:2])
    g, _, params, chart = SETUPS[draw(st.sampled_from(["witness", "conformally-flat"]))]()
    p = Point(chart, draw(st.tuples(*[st.fractions(-3, 3, max_denominator=5)] * 4)))
    return lambda: (metric_jets(g, p, 2, params), *tree_inputs(g, p, params))


@st.composite
def table_routes(draw):
    """A primary field's geometry with its tetrad (the tree route) and parameters:
    sparling-tod at a random sigma, phi2-eguchi-hanson, flat-first, a random
    first-form non-solution, or the plane wave with a random polynomial or rational
    profile."""
    kind = draw(st.sampled_from(["sparling-tod", "phi2-eguchi-hanson", "flat-first", "first",
                                 "polynomial", "rational"]))
    if kind in ("polynomial", "rational"):
        f = ScalarField.parse(draw(profiles().filter(lambda t: ("/(q-" in t) == (kind == "rational"))),
                              "plane-wave")
        return plane_wave_tetrad(f), plane_wave_geometry(f), {}
    if kind == "first":
        text = _poly_text(draw(st.lists(MONOMIAL, min_size=1, max_size=4)), ("w", "z", "wt", "zt"))
        omega = FirstPotential(ScalarField.parse(f"w*zt+z*wt+{text}", "first"))
        try:
            return tetrad_from_omega(omega), geometry_from_omega(omega), {}
        except DegenerateHessianError:
            reject()
    entry = load_catalog()[kind]
    params = dict(entry.params)
    if kind == "sparling-tod":
        params["sigma"] = draw(st.fractions(-3, 3, max_denominator=5).filter(bool))
    return catalog_tetrad(entry), entry.geometry(), params


class TestJetRoute:
    @given(table_routes(), st.tuples(*[st.fractions(-3, 3, max_denominator=5)] * 4))
    @settings(max_examples=80, deadline=None)
    def test_table_is_the_tree_jets_read_out(self, route, values):
        # the geometry's table is, exactly, the one read off the tree route's order-2
        # metric jets; in float mode it is, bit for bit, the one read off the metric
        # jets formed from the same field's jet by d_jet and jet sums (the tree jets'
        # own rounding differs on a rational field)
        t, geometry, params = route
        p = Point(geometry.field.chart, values)
        try:
            table = geometry.at(p, params)[0]
            tree_table = table_of_jets(metric_jets(metric_from_tetrad(t), p, 2, params))
            float_table = geometry.at(p.as_float(), params)[0]
            jet_table = table_of_jets(derived_metric_jets(geometry, p.as_float(), params))
        except EvaluationError:
            reject()
        assert _divided(table) == _divided(tree_table)
        assert float_table[1] == jet_table[1] == 1
        assert [[x.hex() for x in row] for row in float_table[0]] == [
            [x.hex() for x in row] for row in jet_table[0]]

    @given(block_inputs())
    @settings(max_examples=60, deadline=None)
    def test_block_is_the_christoffel_routes_lowered_riemann(self, inputs):
        # R_abcd straight from the metric table's second partials and the Christoffel
        # values equals R^a_bcd from the Christoffel gradients (which read the
        # inverse's gradient) of the tree jets, lowered on the pairs a < b, c < d, and
        # so do the Ricci tensor and the scalar read off each
        try:
            gj, table, ginv = inputs()
            G, D, _, (giv, di) = christoffel_numerators(
                gj, invert_jet_matrix([[x.truncate(1) for x in row] for row in gj]))
        except (EvaluationError, SingularMetricError):
            reject()
        dense = curvature._kernels(curvature._DENSE, tuple(EPS), False)[0]
        (M, dm), (gv, dg) = curvature._riemann_block(table, ginv, gj[0][0].domain, dense)
        iv, di_block = ginv
        rm, d2 = riemann_values(G, D)
        pairs = [(a, b) for a in range(4) for b in range(a + 1, 4)]
        assert [[F(x, dm) for x in row] for row in M] == [
            [F(sum(gv[a][e] * rm[e][b][c][d] for e in range(4)), dg * d2) for c, d in pairs]
            for a, b in pairs]
        ric, scalar = curvature_oracle.ricci_numerators(M, iv)
        want_ric, want_scalar = ricci_values(rm, giv)
        assert [[F(x, di_block * dm) for x in row] for row in ric] == [
            [F(x, d2) for x in row] for row in want_ric]
        assert F(scalar, di_block ** 2 * dm) == F(want_scalar, di * d2)

    @given(geometry_routes())
    @settings(max_examples=60, deadline=None)
    def test_jet_route_equals_tree_route(self, routes):
        t, geometry, p = routes
        if t is None:
            # an identically singular mixed Hessian block: det H is 0 at every point
            with pytest.raises(PoleError):
                geometry.at(p)
            return
        try:
            table, ginv, frame = geometry.at(p)
            g = metric_from_tetrad(t)
            tree_table, tree_frame = table_of_jets(metric_jets(g, p, 2, None)), t.frame_values(p)
        except EvaluationError:
            reject()
        assert [len(row) for row in table[0]] == [15] * 10
        assert _divided(table) == _divided(tree_table)
        assert list(frame[0]) == list(tree_frame)
        assert _frame_values(frame) == tree_frame
        assert all(type(v) is int for u in frame[0].values() for v in u)
        assert all(type(v) is int for row in ginv[0] for v in row)
        assert spinors_at(p, table, ginv, frame) == weyl_spinors(g, t, p)

    @given(geometry_routes())
    @settings(max_examples=60, deadline=None)
    def test_inverse_in_closed_form(self, routes):
        # the geometry's inverse is the values of the Gauss-Jordan inverse of the
        # metric jets, exactly in exact mode.  In float mode it is within a relative
        # 1e-12 (of its largest entry) of the exact inverse at the same point;
        # Gauss-Jordan need not be, as it eliminates through the rounded s H on the
        # first form
        _, geometry, p = routes
        fp = p.as_float()
        try:
            table, ginv, _ = geometry.at(p)
            want = invert_jet_matrix(_value_jets(table, p))
            exact_at_fp = geometry.at(Point(p.chart, tuple(map(F, fp.values))))[1]
            float_ginv = geometry.at(fp)[1]
        except (EvaluationError, SingularMetricError):
            reject()
        assert _divided(ginv) == [[x.value for x in row] for row in want]
        exact_at_fp, float_ginv = _divided(exact_at_fp), _divided(float_ginv)
        scale = max(abs(v) for row in exact_at_fp for v in row)
        for got, wanted in zip((v for row in float_ginv for v in row),
                               (v for row in exact_at_fp for v in row)):
            assert type(got) is float
            assert abs(got - wanted) <= 1e-12 * scale

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_an_inverse_that_is_not_gs_is_refused(self, mode):
        # the caller's inverse is checked at the point: g^{w x} off by 1/10 would
        # give a connection that is not g's
        entry = load_catalog()["sparling-tod"]
        p = sample_points(entry.chart, 3, 1, entry.exclusions)[0]
        p = p.as_float() if mode == "float" else p
        table, ginv, frame = entry.geometry().at(p, dict(entry.params))
        spinors_at(p, table, ginv, frame)
        rows, den = ginv
        rows = [[10 * x for x in row] for row in rows]
        rows[0][2] = rows[0][2] + den
        ginv = (rows, 10 * den)
        with pytest.raises(ValueError if mode == "exact" else EvaluationError,
                           match="not the metric's inverse"):
            spinors_at(p, table, ginv, frame)

    def test_first_form_inverse_off_the_solutions(self):
        # det H = -1 on a solution, where g = H; here det H is not constant
        omega = FirstPotential(ScalarField.parse("2*w*zt+z*wt+w^2*wt^2-z*zt^3/3", "first"))
        for p in sample_points("first", 5, 3):
            table, ginv, _ = geometry_from_omega(omega).at(p)
            h = [[omega.field.jet(p, 2).d(a, b) for b in ("wt", "zt")] for a in ("w", "z")]
            assert h[0][0] * h[1][1] - h[0][1] * h[1][0] != -1
            want = invert_jet_matrix(_value_jets(table, p))
            assert _divided(ginv) == [[x.value for x in row] for row in want]

    def test_cli_route_is_the_catalog_entrys(self):
        # the per-point inputs of curvature-report equal those of the entry's tetrad
        cat = load_catalog()
        for entry in cat.values():
            t = catalog_tetrad(entry)
            g = metric_from_tetrad(t)
            params = dict(entry.params)
            for p in sample_points(entry.chart, 4, 2, entry.exclusions):
                table, _, frame = entry.geometry().at(p, params)
                assert _divided(table) == _divided(table_of_jets(metric_jets(g, p, 2, params)))
                assert _frame_values(frame) == t.frame_values(p, params)

    def test_profile_is_checked_as_the_tetrad_checks_it(self):
        f = ScalarField.parse("q*p", "plane-wave")
        for route in (plane_wave_tetrad, plane_wave_geometry):
            with pytest.raises(ValueError, match=r"depend on \(q, z\) only, found \['p'\]"):
                route(f)
            with pytest.raises(ValueError, match="plane-wave chart"):
                route(ScalarField.parse("x", "second"))

    def test_cancelled_mixed_hessian_is_refused_by_both_routes(self):
        # w zt + z wt - z wt, which geometry_routes can draw: the block Omega_{w^A wt^B}
        # = [[0, 1], [0, 0]] is singular everywhere, so both routes refuse it
        omega = FirstPotential(ScalarField.parse("w*zt+z*wt+(-1)*z*wt", "first"))
        with pytest.raises(DegenerateHessianError):
            tetrad_from_omega(omega)
        for p in sample_points("first", 5, 3):
            with pytest.raises(PoleError):
                geometry_from_omega(omega).at(p)

    def test_singular_mixed_hessian_is_a_pole(self):
        # Omega = wt (w zt + z wt): the block Omega_{w^A wt^B} = [[zt, wt], [2 wt, 0]]
        # has determinant -2 wt^2
        omega = FirstPotential(ScalarField.parse("wt*(w*zt+z*wt)", "first"))
        with pytest.raises(PoleError):
            geometry_from_omega(omega).at(point("first", 1, 2, 0, 0))
        (rows, _), _, _ = geometry_from_omega(omega).at(point("first", 1, 2, 3, 4))
        assert [len(row) for row in rows] == [15] * 10
