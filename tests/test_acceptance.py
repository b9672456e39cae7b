"""Acceptance suite: the binding exit criteria, one test per criterion.

Every residual check runs in exact rational arithmetic, so "zero" means
identically zero at the sampled points.  Run with ``pytest -s`` to see the
per-criterion pass lines.
"""

import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction as F

from heavenly.hierarchy import (
    ExtendedPotential,
    FlowFields,
    embed_second_form,
    extended1_point_of_second,
    lax_compat_from_jet,
    sato_flow_residual,
    summed_lax_from_jet,
)
from heavenly.jetcore import ScalarField, extended_chart, jet_of, parse_expression, point
from heavenly.polynomials import Poly
from heavenly.recursion import (
    chain_residual_maxima,
    coeff_A,
    flat_phi,
    gauge_symmetry_perturbation,
    killing_chain_flat,
    monomial_action_pairs,
    recursion_step_poly,
    st_chain_program,
    st_potential,
    wave_residual,
)
from heavenly.sampling import sample_points
from heavenly.symplectic import BoundaryBox, omega_k, symplectic_pair
from heavenly.tetrads import (
    SecondPotential,
    lax_commutator_residual,
    lax_pair_theta,
    linearized_from_jets,
    second_heavenly_residual,
)
from heavenly.twistor import (
    lax_annihilation_residual,
    recursion_on_twistor,
    st_curve_program,
)

import geometry_oracle
import hierarchy_oracle
from diff_oracle import field_diff
from geometry_oracle import (
    curvature_at,
    metric_from_tetrad,
    plane_wave_tetrad,
    tetrad_from_omega,
    tetrad_from_theta,
    verify_asd_vacuum,
)
from test_twistor import transform


def report(n, text):
    print(f"criterion {n:2d}: PASS - {text}")


def st(sigma=F(1)):
    return st_potential(), {"sigma": F(sigma)}


def spts(seed, count, exclusions=("q_nonzero",)):
    return sample_points("second", seed, count, exclusions)


def test_criterion_01_quadratic_pole_solution():
    theta, _ = st()
    for sigma in (F(1), F(1, 2), F(-3)):
        for p in spts(101, 25):
            assert second_heavenly_residual(theta, p, {"sigma": sigma}) == 0
    report(1, "second-equation residual exactly zero at 25 points for three sigmas")


def test_criterion_02_metric_reproduction():
    theta, params = st()
    g = metric_from_tetrad(tetrad_from_theta(theta))
    for p in spts(102, 10):
        w, z, x, y = (F(v) for v in p.values)
        q3 = (w * x + z * y) ** 3
        expect = [[F(0)] * 4 for _ in range(4)]
        expect[0][2] = expect[2][0] = F(1)
        expect[1][3] = expect[3][1] = F(1)
        expect[0][0] = 4 * z * z / q3
        expect[1][1] = 4 * w * w / q3
        expect[0][1] = expect[1][0] = -4 * w * z / q3
        assert g.matrix_values(p, params) == expect
    report(2, "tetrad metric equals the closed quadratic-pole form componentwise")


def test_criterion_03_asd_vacuum():
    theta, params = st()
    t = tetrad_from_theta(theta)
    g = metric_from_tetrad(t)
    out = verify_asd_vacuum(g, t, spts(103, 10), params)
    assert out["verdict"] == "pass"
    for profile in ("q^2", "q^3", "q*z"):
        tw = plane_wave_tetrad(ScalarField.parse(profile, "plane-wave"))
        gw = metric_from_tetrad(tw)
        out = verify_asd_vacuum(gw, tw, sample_points("plane-wave", 104, 10))
        assert out["verdict"] == "pass"
    # flat backgrounds: the full Riemann tensor vanishes
    for chart_theta in (SecondPotential(ScalarField.constant(0, "second")),):
        gf = metric_from_tetrad(tetrad_from_theta(chart_theta))
        rm = curvature_at(gf, point("second", 1, 2, 3, 4))[1]
        assert all(rm[a][b][c][d] == 0 for a in range(4) for b in range(4)
                   for c in range(4) for d in range(4))
    from heavenly.tetrads import FirstPotential
    gf = metric_from_tetrad(tetrad_from_omega(
        FirstPotential(ScalarField.parse("w*zt+z*wt", "first"))))
    rm = curvature_at(gf, point("first", 1, 2, 3, 4))[1]
    assert all(rm[a][b][c][d] == 0 for a in range(4) for b in range(4)
               for c in range(4) for d in range(4))
    # float-mode alternative on unit-scale points
    fpts = [p.as_float() for p in spts(105, 3, ("q_unit_scale",))]
    out = verify_asd_vacuum(g, t, fpts, {"sigma": 1.0}, tol=1e-9)
    assert out["verdict"] == "pass"
    report(3, "Ricci and self-dual Weyl vanish exactly (and in float mode at unit scale)")


def test_criterion_04_flat_chain():
    flat = SecondPotential(ScalarField.constant(0, "second"))
    sample = spts(106, 10, ("q_nonzero", "w_nonzero"))
    for n in range(7):
        phi = flat_phi(n)
        for p in sample:
            assert wave_residual(flat, phi, p) == 0
        if n:
            prev = flat_phi(n - 1)
            for p in sample:
                assert field_diff(phi, "y").value(p) == field_diff(prev, "w").value(p)
                assert field_diff(phi, "x").value(p) == -field_diff(prev, "z").value(p)
    report(4, "flat chain solves the wave equation with exact recursion links, n <= 6")


def test_criterion_05_curved_chain():
    # displayed members, table coefficient, wave equation, differential steps,
    # flat collapse
    assert coeff_A(3, 0) == (F(0), F(-2, 3))  # -2/3 sigma from the recurrence
    p0 = point("second", 1, 1, 1, 1)
    for sigma in (F(1), F(7, 5)):
        q = F(2)
        _, _, psi2, psi3 = st_chain_program(3, {}).values(p0, {"sigma": sigma})
        assert psi2 == -1 / q
        assert psi3 == -F(2, 3) * sigma / q ** 3 + 1 / q
    sample = spts(107, 5, ("q_nonzero", "w_nonzero", "y_nonzero"))
    pairs = monomial_action_pairs()
    chain = st_chain_program(8, pairs)
    waves, links, monomials = chain_residual_maxima(chain, 8, sample, {"sigma": F(1)}, pairs)
    assert waves == [0] * 8
    assert links == [0] * 7
    assert all(r == 0 for r in monomials.values())
    for p in sample:
        members = chain.values(p, {"sigma": F(0)})[1:9]
        assert members == [flat_phi(n).value(p) for n in range(8)]
    report(5, "curved chain matches displays, solves its wave equation, steps exactly")


def test_criterion_06_nonlinear_selection():
    winners = []
    sample = spts(108, 8, ("q_nonzero", "w_nonzero"))
    for n in range(5):
        theta = SecondPotential(flat_phi(n))
        if all(second_heavenly_residual(theta, p) == 0 for p in sample):
            winners.append(n)
    assert winners == [0, 2]
    report(6, "exactly chain members 0 and 2 solve the full equation (n <= 4)")


def test_criterion_07_lax_integrability():
    theta, params = st()
    sample = spts(109, 10)
    for lam in (F(0), F(1), F(-1), F(2), F(1, 3)):
        for p in sample:
            assert lax_commutator_residual(lax_pair_theta(theta, lam, p, params)) == (0, 0, 0, 0)
    witness = SecondPotential(ScalarField.parse("x*w*y*z", "second"))
    res = lax_commutator_residual(lax_pair_theta(witness, F(1), point("second", 1, 1, 1, 1)))
    assert any(v != 0 for v in res)
    assert res == geometry_oracle.lax_commutator_residual(
        geometry_oracle.lax_pair_theta(witness, F(1)), point("second", 1, 1, 1, 1))
    report(7, "pair commutes exactly on the solution at five parameter values")


def test_criterion_08_twistor_series():
    theta, params = st()
    curve = st_curve_program(6)
    for p in spts(110, 10, ("q_nonzero", "w_nonzero", "z_nonzero")):
        res = lax_annihilation_residual(curve, theta, p, params)
        assert res["max_abs_interior"] == 0
    report(8, "B-table series annihilated through order 5 at truncation 6")


def test_criterion_09_penrose_transform():
    pole = parse_expression("-w/y", "second")
    sample = spts(111, 6, ("q_nonzero", "w_nonzero", "y_nonzero"))
    for n in range(5):
        f = parse_expression(f"1/(mu0*mu1*lam^{n})" if n else "1/(mu0*mu1)",
                             "twistor-function")
        for p in sample:
            w, z, x, y = (F(v) for v in p.values)
            assert transform(f, pole, p) == (-y / w) ** n / (w * x + z * y)
        # intertwining: transform of the 1/lam image equals the one-step image
        rf = recursion_on_twistor(f)
        for p in sample:
            w, z, x, y = (F(v) for v in p.values)
            assert transform(rf, pole, p) \
                == (-y / w) ** (n + 1) / (w * x + z * y)
    report(9, "residue transform reproduces the flat chain and intertwines with R")


def _random_extended(n, seed):
    rng = random.Random(seed)
    chart = extended_chart(n)
    ncoords = 2 * (n + 1)
    poly = Poly.zero(chart)
    for _ in range(8):
        exps = [0] * ncoords
        for _ in range(rng.randint(1, 3)):
            exps[rng.randrange(ncoords)] += 1
        c = F(rng.randint(-2, 2))
        if c:
            poly = poly + Poly(chart, {tuple(exps): c})
    return ExtendedPotential(n, poly.to_field())


def test_criterion_10_hierarchy_identities():
    for n, seed in ((2, 112), (3, 113)):
        E = _random_extended(n, seed)
        pairs = [(A, i, B, j) for A in (0, 1) for B in (0, 1)
                 for i in range(n) for j in range(n)]
        for p in sample_points(E.chart, seed, 2):
            out = lax_compat_from_jet(FlowFields(jet_of(E.field.expr, p, 3)), pairs)
            # [delta, delta], mixed and [D, D] minus the residual's Hamiltonian field
            assert len(out) == 3 * len(pairs) * 2 * (n + 1)
            assert all(v == 0 for v in out.values())
    # level-1 reduction: flow residual is the second-equation residual and the
    # Lax fields are the displayed pair, componentwise
    theta = ScalarField.parse("sigma/(w*x+z*y)", "second")
    E1 = embed_second_form(theta)
    base = SecondPotential(theta)
    lam = F(2, 3)
    lp = geometry_oracle.lax_pair_theta(base, lam)
    from heavenly.hierarchy import hierarchy_residual
    for p in spts(114, 5):
        pe = extended1_point_of_second(p)
        assert hierarchy_residual(E1, 0, 1, 1, 1, pe, {"sigma": F(1)}) \
            == second_heavenly_residual(base, p, {"sigma": F(1)})
        fields = FlowFields(jet_of(E1.field.expr, pe, 3, {"sigma": F(1)}))
        pair = lax_pair_theta(base, lam, p, {"sigma": F(1)})
        for A in (0, 1):
            ext = [f.value(pe, {"sigma": F(1)})
                   for f in hierarchy_oracle.lax_field(E1, A, 0).at_lambda(lam)]
            sec = [f.value(p, {"sigma": F(1)}) for f in lp.components(A)]
            assert [ext[2], -ext[3], ext[1], ext[0]] == sec
            # the jet route: L_{A0} = delta_{A0} - lam D_{A1} off the potential's jet, and
            # the displayed pair read off Theta's jet, component by component
            flow = hierarchy_oracle.flow_lax_values(fields, A, 0, lam)
            read = [c[0] for c in geometry_oracle.lax_components(pair)[A]]
            assert [flow[2], -flow[3], flow[1], flow[0]] == read == sec
    report(10, "compatibility identities, residual equivalence and level-1 reduction exact")


def test_criterion_11_sato_identity():
    for n in (1, 2, 3):
        E = _random_extended(n, 116 + n)
        for p in sample_points(E.chart, 117 + n, 2):
            # both sides as vector fields, per lam-order and axis, for every A and j
            res = summed_lax_from_jet(FlowFields(jet_of(E.field.expr, p, 3)))
            assert len(res) == 2 * sum(j + 1 for j in range(1, n + 1)) * 2 * (n + 1)
            assert all(v == 0 for v in res.values())
    # truncated flow form: interior orders vanish on an embedded solution
    theta = ScalarField.parse("sigma/(w*x+z*y)", "second")
    E1 = embed_second_form(theta)
    for p in spts(118, 4):
        pe = extended1_point_of_second(p)
        res = sato_flow_residual(E1, 1, 1, pe, {"sigma": F(1)})
        for orders in res.values():
            top = max(orders)
            assert all(v == 0 for r, v in orders.items() if r < top)
    report(11, "summed-Lax operator identity and truncated flow form hold per order")


def _wave_samples(seed, count, degree=4):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        poly = Poly.zero("second")
        for _ in range(3):
            a, b = rng.randint(0, degree), rng.randint(0, degree)
            if a + b > degree:
                continue
            seedp = Poly("second", {(a, b, 0, 0): F(rng.randint(-2, 2))})
            for _ in range(rng.randint(0, 2)):
                seedp = recursion_step_poly(seedp)
            poly = poly + seedp
        c, d = rng.randint(0, degree), rng.randint(0, degree)
        if c + d <= degree:
            poly = poly + Poly("second", {(0, 0, c, d): F(rng.randint(-2, 2))})
        if not poly.is_zero():
            out.append(poly)
    return out


def test_criterion_12_symplectic_suite():
    box = BoundaryBox.unit()
    big = BoundaryBox(F(0), F(2))
    phis = _wave_samples(119, 24)
    pairs = list(zip(phis[::2], phis[1::2]))
    assert len(pairs) >= 10
    for a, b in pairs:
        assert symplectic_pair(a, b, box) == -symplectic_pair(b, a, box)
        assert symplectic_pair(recursion_step_poly(a), b, box) \
            == symplectic_pair(a, recursion_step_poly(b), box)
        assert symplectic_pair(a, b, box) == symplectic_pair(a, b, big)
    d1 = Poly("second", {(1, 0, 1, 0): F(1), (0, 1, 0, 1): F(-1)})
    d2 = Poly("second", {(0, 0, 2, 0): F(1)})
    assert symplectic_pair(d1, d2, box) == 0  # frozen exact-integration oracle value
    assert omega_k(d1, d2, 1, box) == symplectic_pair(d1, recursion_step_poly(d2), box)
    report(12, "pairing antisymmetric, R-compatible, box-invariant; oracle value matched")


def test_criterion_13_killing_chains():
    seeds1 = [Poly.constant(1, "second"),
              Poly("second", {(1, 0, 0, 0): F(1)}),
              Poly("second", {(0, 1, 0, 0): F(1)})]
    for L0 in seeds1:
        chain = killing_chain_flat(L0, 1)
        assert all(r.is_zero() for r in chain.contracted_relation_residuals())
        assert all(r.is_zero() for r in chain.kspinor_residuals())
    seeds2 = [Poly("second", {(2, 0, 0, 0): F(1)}),
              Poly("second", {(1, 1, 0, 0): F(1)})]
    for L0 in seeds2:
        chain = killing_chain_flat(L0, 2)
        assert all(r.is_zero() for r in chain.contracted_relation_residuals())
        assert all(r.is_zero() for r in chain.kspinor_residuals())
    report(13, "flat Killing chains satisfy contracted and componentwise relations")


def test_criterion_14_gauge_symmetries():
    rng = random.Random(120)
    theta, params = st()
    sample = spts(121, 4)

    def rpoly():
        terms = {(i, j, 0, 0): F(rng.randint(-2, 2)) for i in range(3) for j in range(2)}
        return Poly("second", terms).to_field()

    from heavenly.jetcore import neg
    for _ in range(10):
        m = rpoly()
        G0 = field_diff(m, "z")
        G1 = ScalarField("second", neg(field_diff(m, "w").expr))
        args = (rpoly(), G0, G1, rpoly(), rpoly())
        tree = geometry_oracle.gauge_symmetry_perturbation(*args, theta)
        for p in sample:
            delta = gauge_symmetry_perturbation(*args, theta, p, params)
            assert dict(delta.coeffs) == dict(tree.jet(p, 2, params).coeffs)
            assert linearized_from_jets(theta.field.jet(p, 2, params), delta) == 0
    report(14, "ten seeded generator tuples give exactly-zero linearised residuals")


def test_criterion_15_cli_determinism():
    from heavenly.cli import main

    def run_suite():
        chunks = []
        for argv in (
            ["verify-solution", "--background", "sparling-tod", "--sigma", "1",
             "--points", "4", "--seed", "5"],
            ["curvature-report", "--background", "plane-wave", "--f", "q^2",
             "--points", "2", "--seed", "5"],
            ["recursion-chain", "--background", "st", "--n", "3", "--sigma", "1",
             "--points", "2", "--seed", "5"],
            ["twistor-series", "--background", "st", "--order", "4",
             "--points", "2", "--seed", "5"],
            ["penrose", "--f", "1/(mu0*mu1)", "--pole=-w/y", "--points", "2", "--seed", "5"],
            ["hierarchy-check", "--n", "2", "--points", "1", "--seed", "5"],
            ["symplectic-check", "--degree", "3", "--pairs", "3", "--seed", "5"],
        ):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = main(argv)
            assert code == 0, argv
            chunks.append(buf.getvalue())
        return "".join(chunks)

    first = run_suite()
    second = run_suite()
    assert first.encode() == second.encode()
    for line in first.strip().splitlines():
        assert json.loads(line)["schema"] == 1
    report(15, "two full CLI suite runs are byte-identical")
