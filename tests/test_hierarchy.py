"""Extended flows: residuals, Lax distribution, Sato identity, slice metrics."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from heavenly.hierarchy import (
    ExtendedPotential,
    FlowFields,
    SpinorVector,
    coord_name,
    embed_second_form,
    extended1_point_of_second,
    hierarchy_residual,
    lax_compat_from_jet,
    paraconformal_eval,
    poisson_yx,
    sato_flow_residual,
    summed_lax_from_jet,
)
from heavenly.jetcore import (
    EXACT, Point, ScalarField, Var, chart_coords, extended_chart, jet_of, point,
)
from heavenly.polynomials import Poly
from heavenly.recursion import st_potential
from heavenly.sampling import float_points, sample_points
from heavenly.tetrads import SecondPotential, _bracket, lax_pair_theta, second_heavenly_residual

import geometry_oracle
import hierarchy_oracle as oracle
from diff_oracle import field_diff
from geometry_oracle import (
    metric_from_tetrad,
    slice_metric,
    tetrad_from_theta,
    vector_to_spinor_level1,
)
from jet_work import JetWork

SIGMA = {"sigma": F(1)}


def random_potential(n, seed, nterms=8, degree=3):
    rng = random.Random(seed)
    chart = extended_chart(n)
    ncoords = 2 * (n + 1)
    poly = Poly.zero(chart)
    for _ in range(nterms):
        exps = [0] * ncoords
        for _ in range(rng.randint(1, degree)):
            exps[rng.randrange(ncoords)] += 1
        c = F(rng.randint(-2, 2))
        if c:
            poly = poly + Poly(chart, {tuple(exps): c})
    return ExtendedPotential(n, poly.to_field())


class TestPoisson:
    def test_antisymmetry_and_self(self):
        chart = extended_chart(2)
        f = ScalarField.parse("x00^2*x11+x10*x02", chart)
        g = ScalarField.parse("x00*x10-x01", chart)
        for p in sample_points(chart, 1, 4):
            assert poisson_yx(f, f, p) == 0
            assert poisson_yx(f, g, p) == -poisson_yx(g, f, p)

    def test_canonical_pair(self):
        chart = extended_chart(1)
        f = ScalarField.parse("x00", chart)
        g = ScalarField.parse("x10", chart)
        assert poisson_yx(f, g, point(chart, 1, 2, 3, 4)) == 1

    def test_leibniz(self):
        chart = extended_chart(1)
        f = ScalarField.parse("x00^2+x01", chart)
        g = ScalarField.parse("x10*x11", chart)
        h = ScalarField.parse("x00-x10^2", chart)
        gh = ScalarField.parse("(x10*x11)*(x00-x10^2)", chart)
        for p in sample_points(chart, 2, 5):
            lhs = poisson_yx(f, gh, p)
            rhs = poisson_yx(f, g, p) * h.value(p) + g.value(p) * poisson_yx(f, h, p)
            assert lhs == rhs


class TestResidual:
    def test_level_one_equals_second_equation(self):
        theta = ScalarField.parse("sigma/(w*x+z*y)", "second")
        E = embed_second_form(theta)
        base = SecondPotential(theta)
        for p in sample_points("second", 3, 10, ("q_nonzero",)):
            pe = extended1_point_of_second(p)
            assert hierarchy_residual(E, 0, 1, 1, 1, pe, SIGMA) \
                == second_heavenly_residual(base, p, SIGMA)

    def test_polynomial_level_one_equality(self):
        rng = random.Random(4)
        for _ in range(5):
            terms = {tuple(rng.randint(0, 2) for _ in range(4)): F(rng.randint(-2, 2))
                     for _ in range(6)}
            theta = Poly("second", terms).to_field()
            E = embed_second_form(theta)
            base = SecondPotential(theta)
            p = sample_points("second", rng.randint(0, 99), 1)[0]
            pe = extended1_point_of_second(p)
            assert hierarchy_residual(E, 0, 1, 1, 1, pe) == second_heavenly_residual(base, p)

    def test_zero_potential(self):
        E = ExtendedPotential(2, ScalarField.constant(0, extended_chart(2)))
        p = sample_points(extended_chart(2), 5, 1)[0]
        for (A, i, B, j) in ((0, 1, 1, 1), (0, 2, 1, 1), (1, 2, 0, 2)):
            assert hierarchy_residual(E, A, i, B, j, p) == 0

    def test_upper_flow_only_potential(self):
        # no x^{A0} dependence: the bracket dies, leaving antisymmetrised seconds
        chart = extended_chart(2)
        T = ScalarField.parse("x01^2*x12+x11*x02^2", chart)
        E = ExtendedPotential(2, T)
        for p in sample_points(chart, 6, 3):
            for (A, i, B, j) in ((0, 1, 1, 1), (0, 2, 1, 2)):
                ti = field_diff(field_diff(T, coord_name(A, i)), coord_name(B, j - 1)).value(p)
                tj = field_diff(field_diff(T, coord_name(B, j)), coord_name(A, i - 1)).value(p)
                assert hierarchy_residual(E, A, i, B, j, p) == ti - tj

    def test_index_range(self):
        E = random_potential(2, 7)
        p = sample_points(E.chart, 7, 1)[0]
        with pytest.raises(IndexError):
            hierarchy_residual(E, 0, 0, 1, 1, p)
        with pytest.raises(IndexError):
            hierarchy_residual(E, 0, 1, 1, 3, p)


class TestLaxFields:
    """The Lax fields of the jet route (FlowFields) and of the tree route
    (hierarchy_oracle.lax_field), value by value."""

    def test_zero_potential_translations(self):
        E = ExtendedPotential(2, ScalarField.constant(0, extended_chart(2)))
        p = sample_points(E.chart, 8, 1)[0]
        fields = FlowFields(jet_of(E.field.expr, p, 3))
        lam = F(2)
        names = chart_coords(E.chart)
        for A in (0, 1):
            for i in (0, 1):
                vals = [f.value(p) for f in oracle.lax_field(E, A, i).at_lambda(lam)]
                expect = [F(0)] * 6
                expect[names.index(coord_name(A, i))] = F(1)
                expect[names.index(coord_name(A, i + 1))] = -lam
                assert vals == oracle.flow_lax_values(fields, A, i, lam) == expect

    def test_level_one_reduces_to_displayed_pair(self):
        theta = ScalarField.parse("sigma/(w*x+z*y)", "second")
        E = embed_second_form(theta)
        base = SecondPotential(theta)
        lam = F(1, 3)
        lp = geometry_oracle.lax_pair_theta(base, lam)
        for p in sample_points("second", 9, 5, ("q_nonzero",)):
            pe = extended1_point_of_second(p)
            fields = FlowFields(jet_of(E.field.expr, pe, 3, SIGMA))
            pair = lax_pair_theta(base, lam, p, SIGMA)
            for A in (0, 1):
                ext = [f.value(pe, SIGMA) for f in oracle.lax_field(E, A, 0).at_lambda(lam)]
                sec = [f.value(p, SIGMA) for f in lp.components(A)]
                read = [c[0] for c in geometry_oracle.lax_components(pair)[A]]
                # chart map: V^w = V^{x01}, V^z = -V^{x11}, V^x = V^{x10}, V^y = V^{x00}
                assert ext == oracle.flow_lax_values(fields, A, 0, lam)
                assert [ext[2], -ext[3], ext[1], ext[0]] == sec == read

    def test_hamiltonian_field_pattern(self):
        # the commutator part of D only points along the x^{A0} plane
        E = random_potential(2, 10)
        names = chart_coords(E.chart)
        fields = FlowFields(jet_of(E.field.expr, sample_points(E.chart, 10, 1)[0], 3))
        for A in (0, 1):
            for i in (0, 1):
                comps = oracle.d_flow_field(E, A, i)
                for k, f in enumerate(comps):
                    if names[k] in ("x00", "x10"):
                        continue
                    if names[k] == coord_name(A, i + 1):
                        assert str(f) == "1"
                    else:
                        assert f.is_zero()
                D = fields.D(A, i)
                up = fields.axes[coord_name(A, i + 1)]
                assert set(D) == {fields.axes["x00"], fields.axes["x10"], up}
                assert D[up] == fields.one


class TestCompatibility:
    @pytest.mark.parametrize("n,seed", [(2, 11), (2, 12), (3, 13)])
    def test_identities_and_equivalence(self, n, seed):
        E = random_potential(n, seed)
        pairs = [(A, i, B, j) for A in (0, 1) for B in (0, 1)
                 for i in range(n) for j in range(n) if (A, i) < (B, j)]
        for p in sample_points(E.chart, seed, 2):
            out = lax_compat_from_jet(FlowFields(jet_of(E.field.expr, p, 3)), pairs)
            # [delta, delta], mixed and [D, D] - X_H along each axis, for each pair
            assert len(out) == 3 * len(pairs) * len(chart_coords(E.chart))
            assert all(v == 0 for v in out.values())

    def test_dd_commutator_nonzero_generically(self):
        chart = extended_chart(2)
        T = Poly(chart, {(2, 2, 0, 0, 0, 0): F(1)})  # (x00 x10)^2: bracket-active
        E = ExtendedPotential(2, T.to_field())
        p = point(chart, 1, 1, 1, 1, 1, 1)
        fields = FlowFields(jet_of(E.field.expr, p, 3))
        assert any(_bracket(fields.D(0, 0), fields.D(1, 0), 6))
        out = lax_compat_from_jet(fields, [(0, 0, 1, 0)])
        assert all(v == 0 for v in out.values())


def _st_or_random_potential(kind, n, seed, degree):
    """The potential, its parameters and one sample point off its poles."""
    if kind == "random":
        E = random_potential(n, seed, degree=degree)
        return E, None, sample_points(E.chart, seed, 1)[0]
    E = embed_second_form(st_potential().field, n)
    # the quadratic pole wx + zy is x01 x10 - x11 x00 on the extended chart
    off_pole = lambda p: p.values[2] * p.values[1] - p.values[3] * p.values[0] != 0
    return E, {"sigma": F(seed % 7 - 3, 1 + seed % 4) or F(1)}, \
        sample_points(E.chart, seed, 1, [off_pole])[0]


def _scale(*jets):
    return 1 + max(abs(float(c)) for jet in jets for c in [0, *jet.coeffs.values()])


class TestJetRouteMatchesOracle:
    """The jet route against the symbolic tree route of tests/hierarchy_oracle.py."""

    @settings(max_examples=25, deadline=None)
    @given(kind=st.sampled_from(["random", "st"]), n=st.integers(1, 4),
           seed=st.integers(0, 10_000), degree=st.integers(1, 4),
           picks=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 3),
                                    st.integers(0, 1), st.integers(0, 3)), min_size=1, max_size=3))
    def test_compat_and_sato(self, kind, n, seed, degree, picks):
        E, params, p = _st_or_random_potential(kind, n, seed, degree)
        pairs = [(A, i % n, B, j % n) for A, i, B, j in picks]
        # exact mode: the routes agree exactly
        for got, want in _routes(E, pairs, p, params):
            assert got == want
        for A, i, B, j in pairs:
            assert hierarchy_residual(E, A, i + 1, B, j + 1, p, params) \
                == oracle.hierarchy_residual(E, A, i + 1, B, j + 1, p, params)
        # float mode: the values agree to rounding, on the scale of products of jet
        # coefficients
        fp = float_points([p])[0]
        fparams = params and {k: float(v) for k, v in params.items()}
        tol = 1e-12 * _scale(E.field.jet(p, 3, params),
                             *(t.jet(p, 1) for t in _coordinate_fields(E))) ** 2
        for got, want in _routes(E, pairs, fp, fparams):
            assert got.keys() == want.keys()
            assert all(type(x) is float for x in got.values())
            assert all(abs(got[k] - want[k]) <= tol for k in got)


def _coordinate_fields(E):
    return [ScalarField(E.chart, Var(c)) for c in chart_coords(E.chart)]


def _routes(E, pairs, p, params):
    """(jet route, tree route) of the [D, D] brackets, of the labelled compatibility
    residuals and of the labelled Sato residuals.

    The Sato identity holds as vector fields, so its component along axis c is
    the tree route's residual applied to the coordinate x_c as test field.
    """
    fields = FlowFields(jet_of(E.field.expr, p, 3, params))
    tree = oracle.lax_compat_residual(E, pairs, p, params)["pairs"]
    coords = chart_coords(E.chart)
    q = 1 / F(fields.den) ** 2 if fields.domain is EXACT else 1.0
    brackets, dd = {}, {}
    for rec in tree:
        A, i, B, j = rec["pair"]
        nums = _bracket(fields.D(A, i), fields.D(B, j), len(coords))
        brackets.update({(rec["pair"], c): x * q for c, x in zip(coords, nums)})
        dd.update({(rec["pair"], c): v for c, v in zip(coords, rec["dd_commutator"])})
    yield brackets, dd
    compat = {}
    for rec in tree:
        A, i, B, j = rec["pair"]
        equiv = [a - b for a, b in zip(rec["dd_commutator"], rec["residual_hamiltonian_field"])]
        for name, values in ((f"[delta_{A}{i}, delta_{B}{j}]", rec["delta_delta"]),
                             (f"mixed ({A}{i}, {B}{j})", rec["mixed"]),
                             (f"[D_{A}{i}, D_{B}{j}] - X_H", equiv)):
            compat.update({(f"{name}^{c}",): v for c, v in zip(coords, values)})
    yield lax_compat_from_jet(fields, pairs), compat
    sato = {(f"Sato A={A} j={j}^{c}", m): v
            for A in (0, 1) for j in range(1, E.n + 1)
            for c, test in zip(coords, _coordinate_fields(E))
            for m, v in oracle.summed_lax_identity_residual(E, A, j, test, p, params).items()}
    yield summed_lax_from_jet(fields), sato


class TestSato:
    def test_truncated_series_zero_potential(self):
        E = ExtendedPotential(2, ScalarField.constant(0, extended_chart(2)))
        om0, om1 = oracle.truncated_omega(E, 2)
        p = sample_points(E.chart, 15, 1)[0]
        from heavenly.jetcore import chart_coords
        names = chart_coords(E.chart)
        assert om0.coefficient(0).value(p) == -p.values[names.index("x00")]
        assert om1.coefficient(0).value(p) == -p.values[names.index("x10")]
        assert om0.coefficient(1).value(p) == 0
        res = sato_flow_residual(E, 1, 1, p)
        assert all(v == 0 for d in res.values() for v in d.values())

    @pytest.mark.parametrize("n,seed", [(1, 16), (2, 17), (3, 18)])
    def test_summed_lax_identity_any_potential(self, n, seed):
        E = random_potential(n, seed)
        for p in sample_points(E.chart, seed, 2):
            res = summed_lax_from_jet(FlowFields(jet_of(E.field.expr, p, 3)))
            # orders 0..j along each axis, for A = 0, 1 and j = 1..n
            assert len(res) == 2 * sum(j + 1 for j in range(1, n + 1)) * 2 * (n + 1)
            assert all(v == 0 for v in res.values())

    def test_flow_form_folds_each_coefficient_once(self, monkeypatch):
        # every coefficient's gradient is a pair of second partials read off one order-2
        # jet of the potential: the potential is the one tree folded, and no coefficient
        # tree is built.  Every order's value is the one of folding each coefficient on
        # its own (the tree route): exactly in exact mode, to rounding in float mode,
        # where the jet route divides each order once
        embedded = embed_second_form(ScalarField.parse("sigma/(w*x+z*y)", "second"))
        pe = extended1_point_of_second(sample_points("second", 19, 1, ("q_nonzero",))[0])
        level2 = random_potential(2, 17)
        p2 = sample_points(level2.chart, 17, 1)[0]
        for E, p, params, flows in ((embedded, pe, SIGMA, (1,)),
                                    (embedded, pe.as_float(), {"sigma": 1.0}, (1,)),
                                    (level2, p2, None, (1, 2))):
            for B in (0, 1):
                for j in flows:
                    work = JetWork(monkeypatch)
                    res = sato_flow_residual(E, B, j, p, params)
                    monkeypatch.undo()
                    assert work.most_folds_of_one_tree == 1
                    assert work.fold_count == 1
                    want = oracle.sato_flow_residual(E, B, j, p, params)
                    if p.domain is EXACT:
                        assert res == want
                        continue
                    tol = 1e-12 * _scale(E.field.jet(p, 2, params)) ** 2
                    assert {A: orders.keys() for A, orders in res.items()} \
                        == {A: orders.keys() for A, orders in want.items()}
                    assert all(type(x) is float and abs(x - want[A][r]) <= tol
                               for A, orders in res.items() for r, x in orders.items())

    def test_flow_form_on_embedded_solution(self):
        # level-1 embedding of the quadratic-pole solution: interior orders of
        # the flow-form residual vanish; the top order is truncation debris
        theta = ScalarField.parse("sigma/(w*x+z*y)", "second")
        E = embed_second_form(theta)
        for p in sample_points("second", 19, 4, ("q_nonzero",)):
            pe = extended1_point_of_second(p)
            res = sato_flow_residual(E, 1, 1, pe, SIGMA)
            for orders in res.values():
                top = max(orders)
                for r, v in orders.items():
                    if r < top:
                        assert v == 0


class TestSliceMetric:
    def test_level_one_reproduces_tetrad_metric(self):
        theta = ScalarField.parse("sigma/(w*x+z*y)", "second")
        E = embed_second_form(theta)
        sm = slice_metric(E)
        g = metric_from_tetrad(tetrad_from_theta(SecondPotential(theta)))
        jac = {0: (2, 1), 1: (3, -1), 2: (1, 1), 3: (0, 1)}
        for p in sample_points("second", 20, 5, ("q_nonzero",)):
            pe = extended1_point_of_second(p)
            gv = g.matrix_values(p, SIGMA)
            sv = sm.matrix_values(pe, SIGMA)
            for a in range(4):
                for b in range(4):
                    ea, sa = jac[a]
                    eb, sb = jac[b]
                    assert gv[a][b] == sa * sb * sv[ea][eb]

    def test_zero_potential_flat_slice(self):
        E = ExtendedPotential(2, ScalarField.constant(0, extended_chart(2)))
        sm = slice_metric(E)
        p = sample_points(E.chart, 21, 1)[0]
        m = sm.matrix_values(p)
        from heavenly.jetcore import chart_coords
        names = chart_coords(E.chart)
        i = {nm: names.index(nm) for nm in names}
        assert m[i["x01"]][i["x10"]] == 1
        assert m[i["x11"]][i["x00"]] == -1
        assert m[i["x02"]][i["x02"]] == 0

    def test_level_two_extension_restricts_to_quadratic_pole_metric(self):
        # constant extension along the new flows; slice at any point gives the
        # level-one metric values
        theta = ScalarField.parse("sigma/(w*x+z*y)", "second")
        chart2 = extended_chart(2)
        from heavenly.jetcore import Var, neg, substitute
        mapping = {"w": Var("x01"), "z": neg(Var("x11")),
                   "x": Var("x10"), "y": Var("x00")}
        T2 = ScalarField(chart2, substitute(theta.expr, mapping))
        E2 = ExtendedPotential(2, T2)
        sm = slice_metric(E2)
        g = metric_from_tetrad(tetrad_from_theta(SecondPotential(theta)))
        jac = {0: (2, 1), 1: (3, -1), 2: (1, 1), 3: (0, 1)}
        for p in sample_points("second", 22, 4, ("q_nonzero",)):
            w, z, x, y = p.values
            pe = Point(chart2, (y, x, w, -z, F(1, 2), F(-2, 3)))
            gv = g.matrix_values(p, SIGMA)
            sv = sm.matrix_values(pe, SIGMA)
            for a in range(4):
                for b in range(4):
                    ea, sa = jac[a]
                    eb, sb = jac[b]
                    assert gv[a][b] == sa * sb * sv[ea][eb]


class TestParaconformal:
    def test_even_rank_skew(self):
        rng = random.Random(23)
        for n in (2,):
            U = SpinorVector(n, {(A, k): F(rng.randint(-5, 5))
                                 for A in (0, 1) for k in range(n + 1)})
            assert paraconformal_eval(U, U) == 0

    def test_odd_rank_symmetric(self):
        rng = random.Random(24)
        for n in (1, 3):
            U = SpinorVector(n, {(A, k): F(rng.randint(-5, 5))
                                 for A in (0, 1) for k in range(n + 1)})
            W = SpinorVector(n, {(A, k): F(rng.randint(-5, 5))
                                 for A in (0, 1) for k in range(n + 1)})
            assert paraconformal_eval(U, W) == paraconformal_eval(W, U)

    def test_level_one_matches_metric(self):
        theta = SecondPotential(ScalarField.parse("sigma/(w*x+z*y)", "second"))
        t = tetrad_from_theta(theta)
        g = metric_from_tetrad(t)
        rng = random.Random(25)
        for p in sample_points("second", 26, 4, ("q_nonzero",)):
            u = tuple(F(rng.randint(-3, 3)) for _ in range(4))
            v = tuple(F(rng.randint(-3, 3)) for _ in range(4))
            gv = g.matrix_values(p, SIGMA)
            guv = sum(gv[a][b] * u[a] * v[b] for a in range(4) for b in range(4))
            U = vector_to_spinor_level1(t, u, p, SIGMA)
            W = vector_to_spinor_level1(t, v, p, SIGMA)
            assert paraconformal_eval(U, W) == guv

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 6), data=st.data())
    def test_closed_form_matches_the_index_sum(self, n, data):
        # keys past rank n are never read by either; a zero is skipped by the sum only
        spinor = st.dictionaries(st.tuples(st.integers(0, 1), st.integers(0, n + 1)),
                                 st.fractions(-9, 9, max_denominator=7) | st.integers(-9, 9))
        U = SpinorVector(n, data.draw(spinor))
        W = SpinorVector(n, data.draw(spinor))
        assert paraconformal_eval(U, W) == oracle.paraconformal_eval(U, W)

    def test_rank_mismatch(self):
        U = SpinorVector(1, {})
        W = SpinorVector(2, {})
        with pytest.raises(ValueError):
            paraconformal_eval(U, W)
