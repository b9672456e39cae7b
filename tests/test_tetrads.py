"""Heavenly residuals, tetrads, metrics, self-dual forms and Lax pairs."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import lax_oracle
from heavenly.jetcore import Jet, Point, ScalarField, point
from heavenly.sampling import sample_points
from heavenly.tetrads import (
    FirstPotential,
    SecondPotential,
    _bracket,
    first_heavenly_residual,
    lax_commutator_residual,
    lax_pair_omega,
    lax_pair_theta,
    lax_step_from_jets,
    linearized_from_jets,
    linearized_second_residual,
    second_heavenly_residual,
)

import geometry_oracle as tree
from diff_oracle import field_diff
from geometry_oracle import (
    DegenerateHessianError,
    metric_from_tetrad,
    plane_wave_tetrad,
    sigma_forms,
    tetrad_from_omega,
    tetrad_from_theta,
)

ST_TEXT = "sigma/(w*x+z*y)"
SIGMA1 = {"sigma": F(1)}


def st_theta():
    return SecondPotential(ScalarField.parse(ST_TEXT, "second"))


def flat_theta():
    return SecondPotential(ScalarField.constant(0, "second"))


def pts(seed=1, n=10, exclusions=("q_nonzero",)):
    return sample_points("second", seed, n, exclusions)


class TestSecondResidual:
    def test_flat_zero(self):
        assert second_heavenly_residual(flat_theta(), point("second", 1, 2, 3, 4)) == 0

    def test_quadratic_pole_solution_exact(self):
        theta = st_theta()
        for p in pts():
            assert second_heavenly_residual(theta, p, SIGMA1) == 0

    def test_chain_member_selection(self):
        # (-y/w)^n / Q solves the full equation for n = 0, 2 only
        for n, expect_zero in ((0, True), (1, False), (2, True), (3, False), (4, False)):
            theta = SecondPotential(ScalarField.parse(f"(-y/w)^{n}/(w*x+z*y)", "second"))
            vals = [second_heavenly_residual(theta, p)
                    for p in pts(seed=2, exclusions=("q_nonzero", "w_nonzero"))]
            if expect_zero:
                assert all(v == 0 for v in vals)
            else:
                assert any(v != 0 for v in vals)


class TestFirstResidual:
    def test_flat_solution(self):
        omega = FirstPotential(ScalarField.parse("w*zt+z*wt", "first"))
        for p in sample_points("first", 3, 5):
            assert first_heavenly_residual(omega, p) == 0

    def test_extra_tilde_square_still_solves(self):
        omega = FirstPotential(ScalarField.parse("w*zt+z*wt+zt^2", "first"))
        for p in sample_points("first", 3, 5):
            assert first_heavenly_residual(omega, p) == 0

    def test_single_term_fails_by_one(self):
        omega = FirstPotential(ScalarField.parse("w*zt", "first"))
        assert first_heavenly_residual(omega, point("first", 1, 1, 1, 1)) == -1


class TestLinearized:
    def test_psi1_solves_on_curved_background(self):
        theta = st_theta()
        delta = ScalarField.parse("1/(w*x+z*y)", "second")
        for p in pts(seed=4):
            assert linearized_second_residual(theta, delta, p, SIGMA1) == 0

    def test_flat_xw_minus_yz(self):
        delta = ScalarField.parse("x*w-y*z", "second")
        assert linearized_second_residual(flat_theta(), delta, point("second", 1, 2, 3, 4)) == 0

    def test_constant_perturbation(self):
        delta = ScalarField.constant(7, "second")
        assert linearized_second_residual(st_theta(), delta, pts()[0], SIGMA1) == 0

    def test_linearity_in_second_argument(self):
        theta = st_theta()
        d1 = ScalarField.parse("x*w-y*z", "second")
        d2 = ScalarField.parse("x^2*z", "second")
        combo = ScalarField.parse("3*(x*w-y*z)-2*(x^2*z)", "second")
        for p in pts(seed=5, n=4):
            v = (3 * linearized_second_residual(theta, d1, p, SIGMA1)
                 - 2 * linearized_second_residual(theta, d2, p, SIGMA1))
            assert linearized_second_residual(theta, combo, p, SIGMA1) == v


class TestTetradTheta:
    def test_flat_gives_coordinate_metric(self):
        g = metric_from_tetrad(tetrad_from_theta(flat_theta()))
        m = g.matrix_values(point("second", 2, 3, 5, 7))
        expect = [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
        assert m == expect

    def test_quadratic_pole_metric_componentwise(self):
        # 2dwdx + 2dzdy + 4 sigma Q^-3 (w dz - z dw)^2
        g = metric_from_tetrad(tetrad_from_theta(st_theta()))
        for p in pts(seed=6):
            w, z, x, y = (F(v) for v in p.values)
            q3 = (w * x + z * y) ** 3
            expect = [[F(0)] * 4 for _ in range(4)]
            expect[0][2] = expect[2][0] = F(1)
            expect[1][3] = expect[3][1] = F(1)
            expect[0][0] = 4 * z ** 2 / q3
            expect[1][1] = 4 * w ** 2 / q3
            expect[0][1] = expect[1][0] = -4 * w * z / q3
            assert g.matrix_values(p, SIGMA1) == expect

    def test_coframe_frame_duality(self):
        t = tetrad_from_theta(st_theta())
        for p in pts(seed=7, n=4):
            fv = t.frame_values(p, SIGMA1)
            cv = t.coframe_values(p, SIGMA1)
            for k1, row in cv.items():
                for k2, vec in fv.items():
                    pairing = sum(a * b for a, b in zip(row, vec))
                    assert pairing == (1 if k1 == k2 else 0)

    def test_volume_form_is_coordinate_volume(self):
        t = tetrad_from_theta(st_theta())
        nu = t.volume_component()
        for p in pts(seed=8, n=3):
            assert nu.value(p, SIGMA1) == 1


class TestTetradOmega:
    def test_flat_constant_coframe_and_metric(self):
        omega = FirstPotential(ScalarField.parse("w*zt+z*wt", "first"))
        t = tetrad_from_omega(omega)
        g = metric_from_tetrad(t)
        p = point("first", 1, 2, 3, 4)
        m = g.matrix_values(p)
        # two null 2-planes: metric pairs w with zt and z with wt
        expect = [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]
        assert m == expect

    def test_middle_sigma_is_the_kahler_form(self):
        # omega = -Omega_{w^A wt^B} dw^A ^ dwt^B on solutions (constant -1 in our
        # normalisation); alpha and alpha_tilde are potential-independent.
        coords = {"w": 0, "z": 1, "wt": 2, "zt": 3}
        for text in ("w*zt+z*wt", "w*zt+z*wt+zt^2"):
            omega = FirstPotential(ScalarField.parse(text, "first"))
            forms = sigma_forms(tetrad_from_omega(omega))
            field = omega.field
            for p in sample_points("first", 21, 4):
                for a in ("w", "z"):
                    for b in ("wt", "zt"):
                        hess = field_diff(field_diff(field, a), b).value(p)
                        assert forms.omega.value(coords[a], coords[b], p) == -hess
                assert forms.omega.value(coords["w"], coords["z"], p) == 0
                assert forms.omega.value(coords["wt"], coords["zt"], p) == 0
                assert forms.alpha.value(coords["w"], coords["z"], p) == 1
                assert forms.alpha_tilde.value(coords["wt"], coords["zt"], p) == 1

    def test_hessian_determinant_equals_residual_plus_one(self):
        omega = FirstPotential(ScalarField.parse("w*zt+z*wt+w^2*zt^2", "first"))
        for p in sample_points("first", 9, 5):
            def d(a, b):
                return field_diff(field_diff(omega.field, a), b).value(p)
            det = d("w", "zt") * d("z", "wt") - d("w", "wt") * d("z", "zt")
            assert det == first_heavenly_residual(omega, p) + 1

    def test_identically_degenerate_hessian_raises(self):
        omega = FirstPotential(ScalarField.parse("w*wt", "first"))
        with pytest.raises(DegenerateHessianError):
            tetrad_from_omega(omega)

    def test_pointwise_degenerate_hessian_raises_at_evaluation(self):
        from heavenly.jetcore import PoleError
        omega = FirstPotential(ScalarField.parse("w*zt+z*wt+w*wt*zt", "first"))
        t = tetrad_from_omega(omega)
        with pytest.raises(PoleError):
            t.coframe_values(point("first", 1, 1, -1, 1))
        assert t.coframe_values(point("first", 1, 1, 1, 1))


class TestSigmaForms:
    def test_flat_wedge_identities(self):
        forms = sigma_forms(tetrad_from_theta(flat_theta()))
        nu = tetrad_from_theta(flat_theta()).volume_component()
        p = point("second", 1, 2, 3, 4)
        ww = forms.omega.wedge_volume_coefficient(forms.omega)
        assert ww.value(p) == -2 * nu.value(p)
        for a, b in [(forms.alpha, forms.omega), (forms.alpha_tilde, forms.omega),
                     (forms.alpha, forms.alpha), (forms.alpha_tilde, forms.alpha_tilde)]:
            assert a.wedge_volume_coefficient(b).value(p) == 0

    def test_curved_wedge_identities_exact(self):
        t = tetrad_from_theta(st_theta())
        forms = sigma_forms(t)
        nu = t.volume_component()
        for p in pts(seed=10, n=5):
            assert forms.omega.wedge_volume_coefficient(forms.omega).value(p, SIGMA1) \
                == -2 * nu.value(p, SIGMA1)
            for a, b in [(forms.alpha, forms.omega), (forms.alpha_tilde, forms.omega),
                         (forms.alpha, forms.alpha), (forms.alpha_tilde, forms.alpha_tilde)]:
                assert a.wedge_volume_coefficient(b).value(p, SIGMA1) == 0

    def test_pencil_closed_and_simple_on_solution(self):
        t = tetrad_from_theta(st_theta())
        forms = sigma_forms(t)
        for lam in (F(0), F(1), F(-1), F(2)):
            pencil = forms.pencil(lam)
            for p in pts(seed=11, n=4):
                d = pencil.exterior_derivative_values(p, SIGMA1)
                assert all(v == 0 for v in d.values())
                assert pencil.wedge_volume_coefficient(pencil).value(p, SIGMA1) == 0

    def test_pencil_annihilates_frame_lax_fields(self):
        t = tetrad_from_theta(st_theta())
        forms = sigma_forms(t)
        for lam in (F(0), F(1), F(-1), F(1, 3)):
            pencil = forms.pencil(lam)
            fields = t.lax_fields(lam)
            for p in pts(seed=12, n=4):
                for vf in fields:
                    comps = tuple(f.value(p, SIGMA1) for f in vf)
                    assert all(v == 0 for v in pencil.contract_vector(comps, p, SIGMA1))


def lax_values(pair, A):
    """The values of the four components of L_A in a jet-read pair."""
    return [c[0] for c in tree.lax_components(pair)[A]]


def commutator(pair_of, potential, lam, p, params=None):
    """[L_0, L_1] at p by the jet route, asserted equal to the tree route's."""
    got = lax_commutator_residual(pair_of(potential, lam, p, params))
    oracle = {lax_pair_theta: tree.lax_pair_theta, lax_pair_omega: tree.lax_pair_omega}[pair_of]
    assert got == tree.lax_commutator_residual(oracle(potential, lam), p, params)
    return got


class TestLaxPairs:
    def test_displayed_components_on_quadratic_pole(self):
        # L_0 = (1 + 2 lam sigma w z Q^-3) d_y - lam d_w - 2 lam sigma z^2 Q^-3 d_x
        # L_1 = lam d_z + (1 - 2 lam sigma w z Q^-3) d_x + 2 lam sigma w^2 Q^-3 d_y
        lam = F(1, 2)
        lp = tree.lax_pair_theta(st_theta(), lam)
        for p in pts(seed=13, n=4):
            w, z, x, y = (F(v) for v in p.values)
            q3 = (w * x + z * y) ** 3
            pair = lax_pair_theta(st_theta(), lam, p, SIGMA1)
            c0 = [f.value(p, SIGMA1) for f in lp.components(0)]
            c1 = [f.value(p, SIGMA1) for f in lp.components(1)]
            assert c0 == lax_values(pair, 0) == [-lam, 0, -2 * lam * z * z / q3,
                                                 1 + 2 * lam * w * z / q3]
            assert c1 == lax_values(pair, 1) == [0, lam, 1 - 2 * lam * w * z / q3,
                                                 2 * lam * w * w / q3]

    def test_flat_lambda_zero(self):
        lp = tree.lax_pair_theta(flat_theta(), 0)
        p = point("second", 1, 1, 1, 1)
        pair = lax_pair_theta(flat_theta(), 0, p)
        assert [f.value(p) for f in lp.components(0)] == lax_values(pair, 0) == [0, 0, 0, 1]
        assert [f.value(p) for f in lp.components(1)] == lax_values(pair, 1) == [0, 0, 1, 0]

    def test_commutator_zero_on_solution_many_lambdas(self):
        theta = st_theta()
        for lam in (F(0), F(1), F(-1), F(2), F(1, 3)):
            for p in pts(seed=14, n=10):
                assert commutator(lax_pair_theta, theta, lam, p, SIGMA1) == (0, 0, 0, 0)

    def test_commutator_nonzero_on_witness(self):
        bad = SecondPotential(ScalarField.parse("x*w*y*z", "second"))
        res = commutator(lax_pair_theta, bad, 1, point("second", 1, 1, 1, 1))
        assert any(v != 0 for v in res)

    def test_commutator_iff_residual_both_directions(self):
        # solution -> zero commutator at every sampled (p, lam);
        # non-solution -> nonzero at a generic point
        sol = SecondPotential(ScalarField.parse("x^2*z+x*z^2", "second"))
        assert all(second_heavenly_residual(sol, p) == 0 for p in pts(seed=15, n=5))
        for lam in (F(1), F(-2)):
            for p in pts(seed=15, n=5):
                assert commutator(lax_pair_theta, sol, lam, p) == (0, 0, 0, 0)
        bad = SecondPotential(ScalarField.parse("x*w*y*z", "second"))
        p0 = point("second", 1, 1, 1, 1)
        assert second_heavenly_residual(bad, p0) != 0
        assert any(v != 0 for v in commutator(lax_pair_theta, bad, 1, p0))

    def test_omega_pair_flat_constant_components(self):
        omega = FirstPotential(ScalarField.parse("w*zt+z*wt", "first"))
        lp = tree.lax_pair_omega(omega, 0)
        p = point("first", 1, 2, 3, 4)
        pair = lax_pair_omega(omega, 0, p)
        # L_0 = O_wwt d_zt - O_wzt d_wt = -d_wt at lam = 0
        assert [f.value(p) for f in lp.components(0)] == lax_values(pair, 0) == [0, 0, -1, 0]
        assert [f.value(p) for f in lp.components(1)] == lax_values(pair, 1) == [0, 0, 0, 1]

    def test_omega_pair_flat_commutes_any_lambda(self):
        omega = FirstPotential(ScalarField.parse("w*zt+z*wt", "first"))
        for lam in (F(0), F(2), F(-1, 3)):
            for p in sample_points("first", 16, 4):
                assert commutator(lax_pair_omega, omega, lam, p) == (0, 0, 0, 0)

    def test_omega_pair_perturbed_commutes_iff_solution(self):
        # w*zt + z*wt + zt^2 still solves; w*zt + z*wt + w*wt^2*zt does not
        good = FirstPotential(ScalarField.parse("w*zt+z*wt+zt^2", "first"))
        for p in sample_points("first", 17, 4):
            assert commutator(lax_pair_omega, good, F(1), p) == (0, 0, 0, 0)
        bad = FirstPotential(ScalarField.parse("w*zt+z*wt+w*wt^2*zt", "first"))
        vals = []
        for p in sample_points("first", 17, 4):
            assert first_heavenly_residual(bad, p) != 0
            vals.append(commutator(lax_pair_omega, bad, F(1), p))
        assert any(any(v != 0 for v in row) for row in vals)

    def test_float_commutator_close_to_exact(self):
        # a float point reads the same pair to rounding, divided once per component
        theta = st_theta()
        for p in pts(seed=18, n=3):
            exact = lax_commutator_residual(lax_pair_theta(theta, F(1, 3), p, SIGMA1))
            got = lax_commutator_residual(lax_pair_theta(theta, F(1, 3), p.as_float(),
                                                         {"sigma": 1.0}))
            assert all(type(x) is float for x in got)
            assert exact == (0, 0, 0, 0) and all(abs(x) < 1e-9 for x in got)


class TestPlaneWaveTetrad:
    def test_metric_components(self):
        f = ScalarField.parse("q^2", "plane-wave")
        g = metric_from_tetrad(plane_wave_tetrad(f))
        p = point("plane-wave", 1, 2, 3, 4)
        m = g.matrix_values(p)
        expect = [[F(0)] * 4 for _ in range(4)]
        expect[0][2] = expect[2][0] = F(1)
        expect[1][3] = expect[3][1] = F(1)
        expect[1][1] = F(9)
        assert m == expect

    def test_profile_must_be_qz_only(self):
        with pytest.raises(ValueError):
            plane_wave_tetrad(ScalarField.parse("p*q", "plane-wave"))


class TestVectorCommutator:
    """The tree route's bracket (the oracle) and the package's bracket of numerator fields
    [value, d_w, d_z, d_x, d_y] over one denominator, on the same fields."""

    def test_coordinate_fields_commute(self):
        a = tuple(ScalarField.constant(c, "second") for c in (1, 0, 0, 0))
        b = tuple(ScalarField.constant(c, "second") for c in (0, 0, 1, 0))
        assert tree.vector_commutator_values(a, b, point("second", 1, 1, 1, 1)) == (0, 0, 0, 0)
        assert _bracket({0: [1, 0, 0, 0, 0]}, {2: [1, 0, 0, 0, 0]}, 4) == [0, 0, 0, 0]

    def test_textbook_bracket(self):
        # [w d_x, x d_y] = w d_y
        zero = ScalarField.constant(0, "second")
        u = (zero, zero, ScalarField.parse("w", "second"), zero)
        v = (zero, zero, zero, ScalarField.parse("x", "second"))
        p = point("second", 3, 1, 5, 1)
        assert tree.vector_commutator_values(u, v, p) == (0, 0, 0, 3)
        assert _bracket({2: [3, 1, 0, 0, 0]}, {3: [5, 0, 0, 1, 0]}, 4) == [0, 0, 0, 3]


RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=5)
# multi-indices of degree <= 2 in (w, z, x, y)
_UPTO2 = [tuple((i == a) + (i == b) for i in range(4)) for a in range(-1, 4) for b in range(a, 4)]


@st.composite
def second_jets(draw, mode, orders):
    """Random jets at one point of the second chart, the i-th of order
    ``orders[i]`` (1 or 2 where None); each is negated half the time, so float
    jets carry stored -0.0 coefficients."""
    center = Point("second", tuple(draw(st.lists(RATIONALS, min_size=4, max_size=4))))
    if mode == "float":
        center = center.as_float()
    out = []
    for order in orders:
        order = order or draw(st.integers(1, 2))
        alphas = [a for a in _UPTO2 if sum(a) <= order]
        coeffs = draw(st.dictionaries(st.sampled_from(alphas), RATIONALS, max_size=6))
        jet = Jet(center, order, coeffs)
        out.append(-jet if draw(st.booleans()) else jet)
    return out


def _same(got, want):
    """Equal exact values; in float mode equal bits, the sign of zero included."""
    assert type(got) is type(want)
    if isinstance(want, float):
        assert got.hex() == want.hex()
    else:
        assert got == want


class TestNumeratorReadouts:
    """lax_step_from_jets and linearized_from_jets read integer numerators and
    divide once; the Jet.d formulas of tests/lax_oracle.py are the oracle."""

    @given(st.sampled_from(["exact", "float"]).flatmap(
        lambda m: second_jets(m, (2, None, None))))
    @settings(max_examples=150, deadline=None)
    def test_lax_step_matches_d_readouts(self, jets):
        theta, phi, r_phi = jets
        for got, want in zip(lax_step_from_jets(theta, phi, r_phi),
                             lax_oracle.lax_step_from_jets(theta, phi, r_phi)):
            _same(got, want)

    @given(st.sampled_from(["exact", "float"]).flatmap(lambda m: second_jets(m, (2, 2))))
    @settings(max_examples=150, deadline=None)
    def test_wave_operator_matches_d_readouts(self, jets):
        theta, delta = jets
        _same(linearized_from_jets(theta, delta), lax_oracle.linearized_from_jets(theta, delta))
