"""Spectral series, curve annihilation and the residue transform."""

from fractions import Fraction as F

import pytest

from heavenly.jetcore import (
    Mul, Pow, Program, ScalarField, Var, field_program, parse_expression, point)
from heavenly.polynomials import Poly
from heavenly.recursion import st_potential
from heavenly.sampling import sample_points
from heavenly.tetrads import SecondPotential, lax_step_residual
from heavenly.twistor import (
    NotAPoleError,
    RatLambda,
    flat_curve_program,
    lam_degree,
    lax_annihilation_residual,
    on_flat_curve,
    penrose_residue_transform,
    recursion_on_twistor,
    residue_at,
    series_solve_omega,
    st_curve_program,
)

import chain_oracle
import fold_oracle
from chain_oracle import st_twistor_curve
from diff_oracle import field_diff
from jet_work import JetWork

SIGMA = {"sigma": F(1)}


def flat():
    return SecondPotential(ScalarField.constant(0, "second"))


def transform(f, pole, p):
    """``penrose_residue_transform`` of the trees f and pole, each compiled first."""
    return penrose_residue_transform(Program([f]), ScalarField("second", pole), p)


def curve_program(order):
    """The oracle's st curve trees, mu0's coefficients then mu1's, as one program."""
    mu0, mu1 = st_twistor_curve(order)
    return field_program(mu0 + mu1)


def pts(seed=1, n=10):
    return sample_points("second", seed, n,
                         ("q_nonzero", "w_nonzero", "z_nonzero", "y_nonzero"))


class TestFlatCurve:
    def test_leading_coefficients(self):
        c = flat_curve_program(3)
        p = point("second", 2, 3, 5, 7)
        assert c.chart == "second"
        assert c.values(p) == [2, 7, 0, 0, 3, -5, 0, 0]

    def test_higher_coefficients_vanish(self):
        c = flat_curve_program(4)
        assert c.texts() == ["w", "y", "0", "0", "0", "z", "-x", "0", "0", "0"]

    def test_annihilated_identically(self):
        c = flat_curve_program(4)
        for p in pts(seed=2, n=4):
            res = lax_annihilation_residual(c, flat(), p)
            assert res["max_abs_interior"] == 0
            assert all(v == 0 for d in res["top"].values() for v in d.values())


class TestCurvedCurve:
    def test_leading_and_quadratic_coefficients(self):
        c = st_curve_program(4)
        theta = st_potential()
        tx = field_diff(theta.field, "x")
        ty = field_diff(theta.field, "y")
        for p in pts(seed=3, n=5):
            values = c.values(p, SIGMA)
            mu0, mu1 = values[:5], values[5:]
            assert mu0[:2] == [p.values[0], p.values[3]]
            assert mu1[:2] == [p.values[1], -p.values[2]]
            # lam^2 tails are -Theta_x and -Theta_y
            assert mu0[2] == -tx.value(p, SIGMA)
            assert mu1[2] == -ty.value(p, SIGMA)

    def test_sigma_zero_is_flat(self):
        c = st_curve_program(5)
        flat_c = flat_curve_program(5)
        for p in pts(seed=4, n=3):
            assert c.values(p, {"sigma": F(0)}) == flat_c.values(p)

    def test_order_starts_at_one(self):
        import pytest
        with pytest.raises(ValueError):
            st_curve_program(0)

    def test_order_past_table_seed_rows(self):
        # the B table grows on demand: order 14 needs rows up to 13
        assert len(st_curve_program(14).texts()) == 2 * 15

    def test_annihilation_through_order_five(self):
        c = st_curve_program(6)
        theta = st_potential()
        for p in pts(seed=5, n=10):
            res = lax_annihilation_residual(c, theta, p, SIGMA)
            assert res["max_abs_interior"] == 0

    def test_each_jet_evaluated_once_per_point(self, monkeypatch):
        mu0, mu1 = st_twistor_curve(10)
        program = st_curve_program(10)
        theta = st_potential()
        p = pts(seed=7)[0]
        work = JetWork(monkeypatch)
        res = lax_annihilation_residual(program, theta, p, SIGMA)
        # the potential's jet plus one per curve coefficient (11 in each of mu0, mu1)
        assert work.fold_count == 1 + len(mu0) + len(mu1) == 23
        assert work.most_folds_of_one_tree == 1
        # the coefficients share their powers of Q, -y/w and x/z, and each jet keeps
        # its reciprocal and squarings: folded one at a time they took 713 products
        # and 91 inversions, with the memo alone 221 and 8
        assert work.products <= 147
        assert work.inversions <= 4
        monkeypatch.undo()
        # each residual is the relation between two coefficient trees of the oracle
        zero = ScalarField.constant(0, "second")
        for A, B in res["interior"]:
            series = [zero, *(mu0 if B == "mu0" else mu1), zero]   # lam^-1 .. lam^11
            top = len(series) - 3
            for r in range(top + 2):
                public = lax_step_residual(theta, series[r], series[r + 1], p, SIGMA)
                table = res["interior"] if r <= top - 1 else res["top"]
                assert table[(A, B)][r] == public[A]

    def test_curve_compiled_once_for_every_point(self, monkeypatch):
        theta = st_potential()
        work = JetWork(monkeypatch)
        c = st_curve_program(10)
        for p in pts(seed=7, n=3):
            lax_annihilation_residual(c, theta, p, SIGMA)
        # the potential's program, kept from its first use, and the curve's
        assert work.compiles == 2
        assert work.fold_count == 3 * 23
        assert work.most_folds_of_one_tree == 1
        assert work.products <= 3 * 147

    def test_fault_injection_locates_order(self):
        mu0, mu1 = st_twistor_curve(5)
        # corrupt the lam^3 coefficient of mu0 with a coordinate-dependent term
        from heavenly.jetcore import Var, add, mul
        bad = list(mu0)
        bad[3] = ScalarField("second", add(bad[3].expr, mul(Var("x"), Var("w"))))
        theta = st_potential()
        p = pts(seed=6)[0]
        res = lax_annihilation_residual(field_program(bad + list(mu1)), theta, p, SIGMA)
        assert res["max_abs_interior"] != 0
        nonzero_orders = {r for d in res["interior"].values() for r, v in d.items() if v != 0}
        assert nonzero_orders and min(nonzero_orders) >= 2


class TestCurveFromTheTable:
    """The st curve of orders 1..12 issued straight from table B against the
    trees of tests/chain_oracle.py: the same instructions, so the same text,
    jets and errors."""

    ORDERS = range(1, 13)

    def test_the_instructions_of_the_trees(self):
        for order in self.ORDERS:
            emitted, oracle = st_curve_program(order), curve_program(order)
            assert emitted._code == oracle._code, order
            assert emitted._outputs == oracle._outputs, order

    def test_each_coefficient_prints_as_its_tree(self):
        for order in self.ORDERS:
            mu0, mu1 = st_twistor_curve(order)
            emitted = st_curve_program(order)
            assert emitted.texts() == [fold_oracle.to_text(f.expr) for f in mu0 + mu1]

    def test_jets_at_random_points(self):
        emitted, oracle = st_curve_program(12), curve_program(12)
        for p, sigma in zip(pts(seed=24, n=3), (F(1), F(2, 3), F(-5, 2))):
            for q, s in ((p, sigma), (p.as_float(), float(sigma))):
                got, want = (prog.jets(q, 1, {"sigma": s}) for prog in (emitted, oracle))
                assert [chain_oracle.bits(j) for j in got] == [chain_oracle.bits(j) for j in want]

    @pytest.mark.parametrize("values, text", [
        ((0, 2, 3, 5), "PoleError: denominator 'w' vanishes at the point"),
        ((1, 1, 1, -1), "PoleError: denominator 'w*x+z*y' vanishes at the point"),
        ((1.0, 1.0, 1.0, 1e200), "EvaluationError: '(-y/w)^2' is too large for a float at the point"),
        ((1.0, 1.0, 1e-200, 1e-200),
         "EvaluationError: '(w*x+z*y)^(-2)' is too large for a float at the point"),
    ])
    def test_an_error_names_the_instruction_of_the_trees(self, values, text):
        emitted, oracle = st_curve_program(12), curve_program(12)
        p = point("second", *values)
        runs = [lambda prog: prog.values(p, {"sigma": 0.5})]
        if "Pole" in text:   # a jet never overflows: it holds an inf
            runs += [lambda prog: prog.jets(p, 1, {"sigma": F(1, 2)}),
                     lambda prog: prog.jets(p.as_float(), 1, {"sigma": 0.5})]
        for run in runs:
            assert chain_oracle.outcome(emitted, run) == chain_oracle.outcome(oracle, run) == text


class TestSeriesSolve:
    def test_flat_background_gives_flat_curve(self):
        c = series_solve_omega(Poly.zero("second"), 4)
        p = point("second", 1, 2, 3, 4)
        assert c.chart == "second"
        assert c.values(p) == flat_curve_program(4).values(p) == [1, 4, 0, 0, 0, 2, -3, 0, 0, 0]

    def test_polynomial_background_quadratic_tail(self):
        # background x^2 z: the lam^2 coefficient of the first component is the
        # recursion image of y, which equals -Theta_x here (zero (w,z) part)
        theta = Poly("second", {(0, 1, 2, 0): F(1)})
        c = series_solve_omega(theta, 3)
        tx = theta.diff("x")
        for p in pts(seed=7, n=4):
            assert c.values(p)[2] == -tx.eval(p)

    def test_generated_curve_annihilated(self):
        theta = Poly("second", {(0, 1, 2, 0): F(1), (0, 2, 1, 0): F(1)})  # x^2 z + x z^2
        c = series_solve_omega(theta, 4)
        background = SecondPotential(theta.to_field())
        for p in pts(seed=8, n=5):
            res = lax_annihilation_residual(c, background, p)
            assert res["max_abs_interior"] == 0


class TestResidueTransform:
    def test_pole_free_region_is_refused(self):
        # a declared pole where f's denominator does not vanish is no pole: no value
        f = parse_expression("1/(mu0*mu1)", "twistor-function")
        pole = parse_expression("1+w^2+y^2", "second")  # never a zero of mu0 mu1... generically
        p = point("second", 1, 1, 1, 1)
        with pytest.raises(NotAPoleError, match="^f's denominator is -8 at lam = 3, not 0$"):
            transform(f, pole, p)

    def test_a_removable_singularity_is_zero(self):
        # mu0 cancels: the pole -w/y of 1/(mu0 mu1) is removable in mu0/(mu0 mu1)
        f = parse_expression("mu0/(mu0*mu1)", "twistor-function")
        pole = parse_expression("-w/y", "second")
        for p in pts(seed=15, n=3):
            assert transform(f, pole, p) == 0

    def test_flat_chain_values(self):
        pole = parse_expression("-w/y", "second")
        for n in range(5):
            f = parse_expression(f"1/(mu0*mu1*lam^{n})" if n else "1/(mu0*mu1)",
                                 "twistor-function")
            for p in pts(seed=9, n=6):
                w, z, x, y = (F(v) for v in p.values)
                expect = (-y / w) ** n / (w * x + z * y)
                assert transform(f, pole, p) == expect

    def test_transform_linear(self):
        pole = parse_expression("-w/y", "second")
        f1 = parse_expression("1/(mu0*mu1)", "twistor-function")
        f2 = parse_expression("lam/(mu0*mu1)", "twistor-function")
        combo = parse_expression("3/(mu0*mu1)-2*lam/(mu0*mu1)", "twistor-function")
        for p in pts(seed=10, n=4):
            v = 3 * transform(f1, pole, p) \
                - 2 * transform(f2, pole, p)
            assert transform(combo, pole, p) == v

    def test_intertwines_with_spacetime_recursion(self):
        # both sides independently: the transform of lam^-1 F against the known
        # one-step image (-y/w) phi_n, itself validated by the flat relations
        pole = parse_expression("-w/y", "second")
        for n in range(4):
            f = parse_expression(f"1/(mu0*mu1*lam^{n})" if n else "1/(mu0*mu1)",
                                 "twistor-function")
            rf = recursion_on_twistor(f)
            for p in pts(seed=11, n=4):
                w, z, x, y = (F(v) for v in p.values)
                phi_n = (-y / w) ** n / (w * x + z * y)
                lhs = transform(rf, pole, p)
                assert lhs == (-y / w) * phi_n

    def test_one_step_image_satisfies_flat_relations(self):
        # (-y/w) phi_n has d_y = d_w phi_n and d_x = -d_z phi_n
        for n in range(4):
            phi_n = ScalarField.parse(f"(-y/w)^{n}/(w*x+z*y)" if n else "1/(w*x+z*y)", "second")
            image = ScalarField.parse(f"(-y/w)^{n + 1}/(w*x+z*y)", "second")
            for p in pts(seed=12, n=4):
                assert field_diff(image, "y").value(p) == field_diff(phi_n, "w").value(p)
                assert field_diff(image, "x").value(p) == -field_diff(phi_n, "z").value(p)

    def test_lambda_cancellation(self):
        f = parse_expression("lam/(mu0*mu1)", "twistor-function")
        g = recursion_on_twistor(f)  # lam^-1 * lam * F0 = F0
        pole = parse_expression("-w/y", "second")
        f0 = parse_expression("1/(mu0*mu1)", "twistor-function")
        for p in pts(seed=13, n=3):
            assert transform(g, pole, p) \
                == transform(f0, pole, p)

    def test_applied_n_times(self):
        f = parse_expression("1/(mu0*mu1)", "twistor-function")
        g = f
        for _ in range(3):
            g = recursion_on_twistor(g)
        pole = parse_expression("-w/y", "second")
        p = pts(seed=14)[0]
        h = parse_expression("1/(mu0*mu1*lam^3)", "twistor-function")
        assert transform(g, pole, p) == transform(h, pole, p)


class TestLamDegree:
    @pytest.mark.parametrize("text,degree", [
        ("lam^7/(mu0*mu1)", 7), ("1/(mu0^7*mu1)", 8), ("(lam+mu0)^7/(mu0*mu1)", 7),
        ("1/(mu0*mu1)-2*lam/(mu0*mu1)", 4), ("(lam/mu0+mu1/lam)^3", 6), ("lam^(-3)", 3),
    ])
    def test_the_degree_the_fold_forms(self, text, degree):
        # with no cancellation the bound is the degree the fold on the flat curve forms
        f = ScalarField.parse(text, "twistor-function").program()
        assert lam_degree(f) == degree
        rat = on_flat_curve(f, pts(seed=16, n=1)[0])
        assert max(len(rat.num), len(rat.den)) - 1 == degree

    def test_a_degree_on_the_way_counts(self):
        # (lam^9)^0 is 1, but the fold forms lam^9 first (the parser folds x^0 to 1,
        # so only a tree built by hand holds it)
        f = Program([Mul(Pow(Pow(Var("lam"), 9), 0), Var("mu0"))])
        assert lam_degree(f) >= 9


class TestRatLambda:
    def test_higher_order_pole_residue(self):
        # residue of 1/(lam^2 (lam - 1)) at 0: expand 1/(lam-1) = -(1 + lam + ...):
        # coefficient of lam^-1 is -1
        lam = RatLambda.lam()
        one = RatLambda.constant(1)
        f = one / (lam * lam * (lam - one))
        assert residue_at(f, F(0)) == -1
        assert residue_at(f, F(1)) == 1

    def test_removable_singularity(self):
        lam = RatLambda.lam()
        f = (lam * lam) / lam  # lam after cancellation
        assert residue_at(f, F(0)) == 0

    def test_regular_point_zero(self):
        f = RatLambda.constant(1) / (RatLambda.lam() - RatLambda.constant(2))
        assert residue_at(f, F(0)) == 0
        assert residue_at(f, F(2)) == 1
