"""The jet route against the tree route, on random polynomial potentials.

The package reads every partial derivative off a jet of one potential; the
test oracles differentiate its expression tree symbolically
(``diff_oracle.diff``) and fold each derivative on its own.  On random
polynomial Theta and Omega, solutions and non-solutions alike, and at
random rational points, the two routes must give the same exact values for
the Lax commutators, the Sato flow form and the gauge perturbation's jet.
"""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from heavenly.hierarchy import ExtendedPotential, embed_second_form, sato_flow_residual
from heavenly.jetcore import Point, ScalarField, add, chart_coords, extended_chart, neg
from heavenly.polynomials import Poly
from heavenly.recursion import gauge_symmetry_perturbation
from heavenly.tetrads import (
    FirstPotential,
    SecondPotential,
    first_heavenly_residual,
    lax_commutator_residual,
    lax_pair_omega,
    lax_pair_theta,
    linearized_from_jets,
    second_heavenly_residual,
)

import geometry_oracle
import hierarchy_oracle
from diff_oracle import field_diff

COEFFS = st.integers(-3, 3)
RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def polys(draw, chart, variables, degree=3, terms=5):
    """A polynomial on ``chart`` in the coordinates at the positions ``variables``."""
    nvars = 2 * int(chart.split("-")[1]) + 2 if chart.startswith("extended") else 4
    out = {}
    for _ in range(draw(st.integers(0, terms))):
        exps = [0] * nvars
        for _ in range(draw(st.integers(0, degree))):
            exps[draw(st.sampled_from(variables))] += 1
        out[tuple(exps)] = F(draw(COEFFS))
    return Poly(chart, out)


@st.composite
def thetas(draw):
    """(Theta, whether it solves): A(x, z) + x m_z - y m_w + a(w, z), which solves, or
    a polynomial in all four coordinates."""
    if draw(st.booleans()):
        return draw(polys("second", [0, 1, 2, 3])).to_field(), False
    m = draw(polys("second", [0, 1]))
    x, y = Poly.coordinate("x", "second"), Poly.coordinate("y", "second")
    return (draw(polys("second", [1, 2])) + x * m.diff("z") - y * m.diff("w")
            + draw(polys("second", [0, 1]))).to_field(), True


@st.composite
def omegas(draw):
    """(Omega, whether it solves): w zt + z wt + P(wt, zt) + Q(w, z), which solves, or
    that plus a polynomial in all four coordinates."""
    flat = Poly("first", {(1, 0, 0, 1): F(1), (0, 1, 1, 0): F(1)})
    omega = flat + draw(polys("first", [2, 3])) + draw(polys("first", [0, 1]))
    if draw(st.booleans()):
        return (omega + draw(polys("first", [0, 1, 2, 3]))).to_field(), False
    return omega.to_field(), True


def points(chart, size=4):
    return st.tuples(*[RATIONALS] * size).map(lambda values: Point(chart, values))


def tree_components(tree_pair, p):
    """The value and the gradient of each component of the tree pair's L_0 and L_1 at p."""
    names = [(), *((c,) for c in chart_coords(p.chart))]
    return [[[f.jet(p, 1).d(*n) for n in names] for f in tree_pair.components(A)]
            for A in (0, 1)]


@settings(max_examples=60, deadline=None)
@given(theta=thetas(), omega=omegas(), p=points("second"), q=points("first"),
       lam=RATIONALS)
def test_lax_commutators_match_the_tree_pairs(theta, omega, p, q, lam):
    (theta, theta_solves), (omega, omega_solves) = theta, omega
    theta, omega = SecondPotential(theta), FirstPotential(omega)
    pair, tree_pair = lax_pair_theta(theta, lam, p), geometry_oracle.lax_pair_theta(theta, lam)
    pair_first = lax_pair_omega(omega, lam, q)
    tree_first = geometry_oracle.lax_pair_omega(omega, lam)
    # the commutator of the second-form pair is even in lam, so the fields are compared too
    assert geometry_oracle.lax_components(pair) == tree_components(tree_pair, p)
    assert geometry_oracle.lax_components(pair_first) == tree_components(tree_first, q)
    got = lax_commutator_residual(pair)
    assert got == geometry_oracle.lax_commutator_residual(tree_pair, p)
    got_first = lax_commutator_residual(pair_first)
    assert got_first == geometry_oracle.lax_commutator_residual(tree_first, q)
    # a solution's pair commutes at every parameter value
    assert not theta_solves or (second_heavenly_residual(theta, p) == 0
                                and got == (0, 0, 0, 0))
    assert not omega_solves or (first_heavenly_residual(omega, q) == 0
                                and got_first == (0, 0, 0, 0))


@settings(max_examples=40, deadline=None)
@given(theta=thetas(), n=st.integers(1, 3), data=st.data())
def test_sato_flow_form_matches_the_tree_series(theta, n, data):
    chart = extended_chart(n)
    extra = data.draw(polys(chart, list(range(2 * n + 2)), terms=3))
    E = embed_second_form(theta[0], n)
    E = ExtendedPotential(n, ScalarField(chart, add(E.field.expr, extra.to_field().expr)))
    p = data.draw(points(chart, 2 * n + 2))
    B, j = data.draw(st.integers(0, 1)), data.draw(st.integers(1, n))
    assert sato_flow_residual(E, B, j, p) == hierarchy_oracle.sato_flow_residual(E, B, j, p)


@settings(max_examples=40, deadline=None)
@given(theta=thetas(), data=st.data(), p=points("second"), symplectic=st.booleans())
def test_gauge_perturbation_jet_matches_the_tree(theta, data, p, symplectic):
    wz = lambda: data.draw(polys("second", [0, 1], degree=4)).to_field()
    F0, g, h, m = wz(), wz(), wz(), wz()
    # (G0, G1) = (m_z, -m_w), for which the perturbation solves the linearisation, or any
    G0, G1 = ((field_diff(m, "z"), ScalarField("second", neg(field_diff(m, "w").expr)))
              if symplectic else (wz(), wz()))
    (theta, solves) = theta
    theta = SecondPotential(theta)
    jet = gauge_symmetry_perturbation(F0, G0, G1, g, h, theta, p)
    tree = geometry_oracle.gauge_symmetry_perturbation(F0, G0, G1, g, h, theta)
    assert dict(jet.coeffs) == dict(tree.jet(p, 2).coeffs)
    assert not (symplectic and solves) or linearized_from_jets(theta.field.jet(p, 2), jet) == 0
