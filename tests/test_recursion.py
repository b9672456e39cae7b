"""Recursion operator: flat chains, coefficient tables, symmetries, Killing data."""

from fractions import Fraction as F
from functools import partial

import pytest
from hypothesis import assume, given, settings, strategies as st

from heavenly.jetcore import Program, ScalarField, point
from heavenly.polynomials import Poly
from heavenly.recursion import (
    IntegrabilityError,
    TerminationError,
    _psi,
    chain_residual_maxima,
    coeff_A,
    coeff_B,
    flat_phi,
    gauge_symmetry_perturbation,
    killing_chain_flat,
    monomial_action_pairs,
    recursion_step_poly,
    st_chain_program,
    st_potential,
    wave_residual,
    zrm_recursion,
    DependencyError,
)
from heavenly.sampling import sample_points
from heavenly.tetrads import (
    SecondPotential,
    lax_step_residual,
    linearized_from_jets,
    linearized_second_residual,
)

import chain_oracle
import fold_oracle
import geometry_oracle
from chain_oracle import st_psi
from diff_oracle import field_diff
from geometry_oracle import flat_wave_poly, formal_step_consistency

SIGMA = {"sigma": F(1)}


def flat():
    return SecondPotential(ScalarField.constant(0, "second"))


def pts(seed=1, n=10):
    return sample_points("second", seed, n, ("q_nonzero", "w_nonzero", "z_nonzero", "y_nonzero"))


def mono(exps, c=1):
    return Poly("second", {tuple(exps): F(c)})


class TestWaveResidual:
    def test_psi1_on_curved_background(self):
        theta = st_potential()
        psi1 = ScalarField.parse("1/(w*x+z*y)", "second")
        for p in pts():
            assert wave_residual(theta, psi1, p, SIGMA) == 0

    def test_flat_chain_members_up_to_six(self):
        for n in range(7):
            phi = flat_phi(n)
            for p in pts(seed=2, n=5):
                assert wave_residual(flat(), phi, p) == 0

    def test_x_squared_flat(self):
        phi = ScalarField.parse("x^2", "second")
        assert wave_residual(flat(), phi, point("second", 1, 2, 3, 4)) == 0

    def test_reduces_to_displayed_curved_operator(self):
        # independent wiring check: box on the quadratic-pole background equals
        # 2(dxdw + dydz + 2 sigma Q^-3 (z^2 dx^2 + w^2 dy^2 - 2wz dxdy))
        theta = st_potential()
        phi = ScalarField.parse("w^2*x-y^3*z+x*y", "second")
        for p in pts(seed=3, n=5):
            w, z, x, y = (F(v) for v in p.values)
            d = phi.jet(p, 2).d
            q3 = (w * x + z * y) ** 3
            displayed = 2 * (d("x", "w") + d("y", "z")
                             + 2 / q3 * (z * z * d("x", "x") + w * w * d("y", "y")
                                         - 2 * w * z * d("x", "y")))
            assert wave_residual(theta, phi, p, SIGMA) == displayed

    def test_twice_linearized(self):
        theta = st_potential()
        phi = ScalarField.parse("x*y^2+w", "second")
        p = pts(seed=4)[0]
        assert wave_residual(theta, phi, p, SIGMA) == 2 * linearized_second_residual(theta, phi, p, SIGMA)


class TestFlatRecursion:
    def test_xw_minus_yz_maps_to_xy(self):
        phi = mono((1, 0, 1, 0)) + mono((0, 1, 0, 1), -1)
        assert recursion_step_poly(phi) == mono((0, 0, 1, 1))

    def test_x_squared_maps_to_zero(self):
        assert recursion_step_poly(mono((0, 0, 2, 0))).is_zero()

    def test_constant_maps_to_zero(self):
        assert recursion_step_poly(Poly.constant(5, "second")).is_zero()

    def test_non_wave_input_rejected(self):
        with pytest.raises(IntegrabilityError):
            recursion_step_poly(mono((1, 0, 1, 0)))  # xw alone

    def test_linear_and_commutes_with_wave(self):
        import random
        rng = random.Random(7)
        seeds = [mono((2, 1, 0, 0)), mono((0, 0, 2, 1)), mono((1, 1, 0, 0))]
        for _ in range(5):
            a = seeds[rng.randrange(3)]
            b = seeds[rng.randrange(3)]
            ca, cb = F(rng.randint(-3, 3)), F(rng.randint(-3, 3))
            lin = recursion_step_poly(a.scale(ca) + b.scale(cb)) \
                - (recursion_step_poly(a).scale(ca) + recursion_step_poly(b).scale(cb))
            assert lin.is_zero()
            combo = a.scale(ca) + b.scale(cb)
            assert flat_wave_poly(recursion_step_poly(combo)).is_zero()

    def test_zero_wz_part_convention(self):
        out = recursion_step_poly(mono((2, 1, 0, 0)))
        assert out.without("x").without("y").is_zero()


class TestCoeffTables:
    def test_seeds(self):
        assert coeff_A(1, 0) == (1, 0)
        assert coeff_A(1, 1)[0] == 0
        assert coeff_A(2, -1)[0] == 0

    def test_displayed_third_member_coefficient(self):
        # A(3, 0) = -2 sigma / 3
        c, j = coeff_A(3, 0)
        assert (c, j) == (F(-2, 3), 1)
        assert c * F(3, 2) ** j == -1

    def test_one_step_by_hand(self):
        # A(2,1) = A(1,0) - 2 sigma (2/1) A(1,2) = 1
        assert coeff_A(2, 1) == (1, 0)

    def test_b_table_seeds_and_step(self):
        assert coeff_B(1, 0) == (1, 0)
        # B(3,0) = -2 sigma (1/4) B(2,1), B(2,1) = 1
        assert coeff_B(3, 0) == (F(-1, 2), 1)

    @pytest.mark.parametrize("coeff, poly", [(coeff_A, chain_oracle.poly_A),
                                             (coeff_B, chain_oracle.poly_B)],
                             ids=["A", "B"])
    def test_each_entry_is_its_sigma_polynomial(self, coeff, poly):
        # the table's (c, j) against the oracle's recurrence on polynomials in sigma:
        # c sigma^j, with j = (n - 1 - k)/2, and zero where n - 1 - k is odd
        for n in range(1, 17):
            for k in range(-1, n + 1):
                c, j = coeff(n, k)
                assert type(c) is F and type(j) is int
                assert (((F(0),) * j + (c,)) if c else ()) == poly(n, k), (n, k)
                assert c == 0 or (n - 1 - k) % 2 == 0, (n, k)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            coeff_A(2, 3)
        with pytest.raises(IndexError):
            coeff_A(0, 0)


class TestCurvedChain:
    def test_displayed_members(self):
        p = point("second", 1, 1, 1, 1)
        sig = {"sigma": F(2)}
        q = F(2)  # Q at the point
        _, psi1, psi2, psi3 = st_chain_program(3, {}).values(p, sig)
        assert psi1 == 1 / q
        assert psi2 == (-1) / q  # (-y/w) = -1 here
        assert psi3 == F(-2, 3) * 2 / q ** 3 + 1 / q

    def test_wave_equation_through_eight(self):
        sample = pts(seed=8, n=4)
        chain = st_chain_program(8, {})
        for sigma in (F(1), F(-3)):
            waves, _, _ = chain_residual_maxima(chain, 8, sample, {"sigma": sigma})
            assert waves == [0] * 8

    def test_differential_steps_through_eight(self):
        sample = pts(seed=9, n=3)
        pairs = monomial_action_pairs()
        _, links, monomials = chain_residual_maxima(st_chain_program(8, pairs), 8, sample,
                                                    {"sigma": F(1, 2)}, pairs)
        assert links == [0] * 7
        assert len(monomials) == 2 * len(sample)
        assert [label for label, r in monomials.items() if r != 0] == []

    def test_formal_termwise_step_matches_table(self):
        sample = pts(seed=10, n=3)
        for n in range(1, 8):
            assert formal_step_consistency(n, F(1, 2), sample) == 0

    def test_sigma_zero_collapses_to_flat_chain(self):
        chain = st_chain_program(8, {})
        for p in pts(seed=11, n=4):
            members = chain.values(p, {"sigma": F(0)})[1:]
            assert members == [flat_phi(n - 1).value(p) for n in range(1, 9)]

    def test_chain_index_starts_at_one(self):
        with pytest.raises(IndexError):
            st_chain_program(0, {})

    def test_members_past_twelve_solve_the_wave_equation(self):
        # rows past the first twelve are built on demand by the same recurrence
        sample = pts(seed=12, n=1)
        waves, _, _ = chain_residual_maxima(st_chain_program(13, {}), 13, sample,
                                            {"sigma": F(1, 2)})
        assert waves == [0] * 13


class TestChainFromTheTable:
    """psi_1..psi_16 issued straight from table A against the trees of
    tests/chain_oracle.py compiled into one program with the potential and the
    monomial pairs: the same instructions, so the same text, jets and errors."""

    N = 16
    SIGMAS = (F(1), F(1, 2), F(-7, 3))

    def programs(self, n=N):
        pairs = monomial_action_pairs()
        return (st_chain_program(n, pairs),
                chain_oracle.chain_program([st_psi(m) for m in range(1, n + 1)], pairs))

    def test_the_instructions_of_the_trees(self):
        for n in range(1, self.N + 1):
            emitted, oracle = self.programs(n)
            assert emitted._code == oracle._code, n
            assert emitted._outputs == oracle._outputs, n

    def test_each_member_prints_as_its_tree(self):
        emitted, _ = self.programs()
        assert emitted.texts()[1:self.N + 1] \
            == [fold_oracle.to_text(st_psi(n).expr) for n in range(1, self.N + 1)]

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_jets_at_random_points(self, mode):
        emitted, oracle = self.programs()
        for i, p in enumerate(pts(seed=23, n=3)):
            sigma = self.SIGMAS[i]
            if mode == "float":
                p, sigma = p.as_float(), float(sigma)
            got, want = (prog.jets(p, 2, {"sigma": sigma}) for prog in (emitted, oracle))
            assert [chain_oracle.bits(j) for j in got] == [chain_oracle.bits(j) for j in want]

    @pytest.mark.parametrize("values, divisor", [
        ((0, 2, 3, 5), "w"),                # w = 0
        ((1, 1, 1, -1), "w*x+z*y"),         # wx + zy = 0
        ((0, 1, 3, 0), "w*x+z*y"),          # both: (wx+zy)^(-1) fails first
    ])
    def test_a_pole_names_the_divisor_of_the_trees(self, values, divisor):
        # the whole chain program, whose potential divides by wx+zy first, and the
        # members alone, whose first pole is that of (wx+zy)^(-1) or of -y/w
        members = Program([partial(_psi, n=n) for n in range(1, self.N + 1)], "second")
        tree_members = Program([st_psi(n).expr for n in range(1, self.N + 1)], "second")
        p = point("second", *values)
        for q in (p, p.as_float()):
            for run in (lambda prog: prog.jets(q, 2, {"sigma": F(1, 2)}),
                        lambda prog: prog.values(q, {"sigma": F(1, 2)})):
                for ours, theirs in (self.programs(), (members, tree_members)):
                    got = chain_oracle.outcome(ours, run)
                    assert got == chain_oracle.outcome(theirs, run)
                    assert got == f"PoleError: denominator {divisor!r} vanishes at the point"

    @pytest.mark.parametrize("values, text", [
        ((1.0, 1.0, 1.0, 1e200), "'(-y/w)^2'"),
        ((1.0, 1.0, 1e-200, 1e-200), "'(w*x+z*y)^(-3)'"),
    ])
    def test_a_float_overflow_names_the_instruction_of_the_trees(self, values, text):
        emitted, oracle = self.programs()
        p = point("second", *values)
        run = lambda prog: prog.values(p, {"sigma": 0.5})
        assert chain_oracle.outcome(emitted, run) == chain_oracle.outcome(oracle, run) \
            == f"EvaluationError: {text} is too large for a float at the point"


def symbolic_step_residual(theta, phi, r_phi, p, params):
    """The recursion relation by symbolic derivatives of the background and both fields."""
    def v(field, *names):
        for name in names:
            field = field_diff(field, name)
        return field.value(p, params)

    t, f, r = theta.field, phi, r_phi
    txx, tyy, txy = v(t, "x", "x"), v(t, "y", "y"), v(t, "x", "y")
    return (v(r, "y") - (v(f, "w") - txy * v(f, "y") + tyy * v(f, "x")),
            v(r, "x") + (v(f, "z") + txx * v(f, "y") - txy * v(f, "x")))


RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=6)


class TestLaxStepResidual:
    @given(st.integers(1, 6), st.integers(1, 7), RATIONALS,
           st.tuples(RATIONALS, RATIONALS, RATIONALS, RATIONALS))
    @settings(max_examples=30, deadline=None)
    def test_jets_match_symbolic_route(self, n, m, sigma, values):
        # psi_m stands in for R psi_n: m = n + 1 is the chain step (both values
        # vanish), any other m gives nonzero values that each term must match
        w, z, x, y = values
        assume(w != 0 and w * x + z * y != 0)
        p = point("second", *values)
        params = {"sigma": sigma}
        theta, phi, r_phi = st_potential(), st_psi(n), st_psi(m)
        assert lax_step_residual(theta, phi, r_phi, p, params) \
            == symbolic_step_residual(theta, phi, r_phi, p, params)

    def test_chain_step_vanishes(self):
        theta = st_potential()
        for p in pts(seed=17, n=3):
            assert lax_step_residual(theta, st_psi(2), st_psi(3), p, {"sigma": F(1, 3)}) == (0, 0)


def gauge_residual(args, theta, p, params):
    """The linearised residual at p of the gauge perturbation's jet, whose every
    coefficient is asserted equal to the tree oracle's jet of its perturbation."""
    jet = gauge_symmetry_perturbation(*args, theta, p, params)
    tree = geometry_oracle.gauge_symmetry_perturbation(*args, theta)
    assert dict(jet.coeffs) == dict(tree.jet(p, 2, params).coeffs)
    return linearized_from_jets(theta.field.jet(p, 2, params), jet)


class TestGauge:
    def make(self, F_txt, G0_txt, G1_txt, g_txt, h_txt):
        sf = lambda t: ScalarField.parse(t, "second")
        return (sf(F_txt), sf(G0_txt), sf(G1_txt), sf(g_txt), sf(h_txt))

    def test_f_only_passes_through(self):
        theta = st_potential()
        args = self.make("w", "0", "0", "0", "0")
        assert str(geometry_oracle.gauge_symmetry_perturbation(*args, theta)) == "w"
        w = ScalarField.parse("w", "second")
        for p in pts(seed=12, n=3):
            jet = gauge_symmetry_perturbation(*args, theta, p, SIGMA)
            assert dict(jet.coeffs) == dict(w.jet(p, 2).coeffs)
            assert gauge_residual(args, theta, p, SIGMA) == 0

    def test_h_w_gives_z_translation(self):
        theta = st_potential()
        args = self.make("0", "0", "0", "0", "w")
        for p in pts(seed=13, n=10):
            assert gauge_residual(args, theta, p, SIGMA) == 0

    def test_g_z_gives_y_translation(self):
        theta = st_potential()
        args = self.make("0", "0", "0", "z", "0")
        for p in pts(seed=14, n=10):
            assert gauge_residual(args, theta, p, SIGMA) == 0

    def test_seeded_generators_around_curved_background(self):
        import random
        rng = random.Random(15)
        theta = st_potential()
        sample = pts(seed=16, n=4)
        for _ in range(10):
            def rpoly():
                return " + ".join(f"({rng.randint(-2, 2)})*w^{i}*z^{j}"
                                  for i in range(3) for j in range(2))
            from heavenly.jetcore import neg
            m = ScalarField.parse(rpoly(), "second")
            G0 = field_diff(m, "z")
            G1 = ScalarField("second", neg(field_diff(m, "w").expr))
            args = (ScalarField.parse(rpoly(), "second"), G0, G1,
                    ScalarField.parse(rpoly(), "second"), ScalarField.parse(rpoly(), "second"))
            for p in sample:
                assert gauge_residual(args, theta, p, SIGMA) == 0

    def test_dependency_violation(self):
        theta = flat()
        bad = ScalarField.parse("x*w", "second")
        zero = ScalarField.constant(0, "second")
        with pytest.raises(DependencyError):
            gauge_symmetry_perturbation(bad, zero, zero, zero, zero, theta,
                                        point("second", 1, 2, 3, 4))
        with pytest.raises(DependencyError):
            geometry_oracle.gauge_symmetry_perturbation(bad, zero, zero, zero, zero, theta)


class TestKilling:
    def test_rank_one_seed_w(self):
        chain = killing_chain_flat(mono((1, 0, 0, 0)), 1)
        assert chain.components[0] == mono((1, 0, 0, 0))
        assert chain.components[1] == mono((0, 0, 0, 1), -1)  # -y
        assert all(r.is_zero() for r in chain.contracted_relation_residuals())
        assert all(r.is_zero() for r in chain.kspinor_residuals())

    def test_rank_one_constant_seed(self):
        chain = killing_chain_flat(Poly.constant(1, "second"), 1)
        assert chain.components[1].is_zero()
        assert all(r.is_zero() for r in chain.kspinor_residuals())

    def test_rank_one_seed_z(self):
        chain = killing_chain_flat(mono((0, 1, 0, 0)), 1)
        assert chain.components[1] == mono((0, 0, 1, 0))  # -R(z) = x
        assert all(r.is_zero() for r in chain.kspinor_residuals())

    def test_rank_two_seed_w_squared(self):
        chain = killing_chain_flat(mono((2, 0, 0, 0)), 2)
        # R(w^2) = 2wy, R^2(w^2) = y^2: components (w^2, -wy, y^2)
        assert chain.components[1] == mono((1, 0, 0, 1), -1)
        assert chain.components[2] == mono((0, 0, 0, 2))
        assert all(r.is_zero() for r in chain.contracted_relation_residuals())
        assert all(r.is_zero() for r in chain.kspinor_residuals())

    def test_rank_two_seed_wz(self):
        chain = killing_chain_flat(mono((1, 1, 0, 0)), 2)
        assert all(r.is_zero() for r in chain.contracted_relation_residuals())
        assert all(r.is_zero() for r in chain.kspinor_residuals())

    def test_termination_failure_detected(self):
        with pytest.raises(TerminationError):
            killing_chain_flat(mono((2, 0, 0, 0)), 1)  # R^2(w^2) = y^2 != 0

    def test_seed_must_not_depend_on_fibre(self):
        with pytest.raises(ValueError):
            killing_chain_flat(mono((0, 0, 1, 0)), 1)


class TestNeutrinoRecursion:
    def test_xw_minus_yz(self):
        phi = mono((1, 0, 1, 0)) + mono((0, 1, 0, 1), -1)
        out = zrm_recursion(phi)
        assert out["psi"][0] == mono((1, 0, 0, 0))       # w
        assert out["psi"][1] == mono((0, 1, 0, 0), -1)   # -z
        for d in out["psi_divergence"] + out["r_psi_divergence"]:
            assert d.is_zero()

    def test_x_squared_pattern(self):
        out = zrm_recursion(mono((0, 0, 2, 0)))
        assert out["psi"][0] == mono((0, 0, 1, 0), 2)
        assert out["psi"][1].is_zero()
        assert out["r_psi"][0].is_zero() and out["r_psi"][1].is_zero()

    def test_constant(self):
        out = zrm_recursion(Poly.constant(3, "second"))
        assert out["psi"][0].is_zero() and out["psi"][1].is_zero()
