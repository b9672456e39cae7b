"""Expression parsing and jet arithmetic against independent oracles."""

import operator
from fractions import Fraction as F
from itertools import product
from math import factorial, prod
from unittest import mock

import pytest
import sympy as sp
from hypothesis import assume, given, settings, strategies as st

from heavenly import twistor
from heavenly.jetcore import (
    Add,
    Const,
    Div,
    Mul,
    Neg,
    ParseError,
    Point,
    PoleError,
    Pow,
    ScalarField,
    Sub,
    Var,
    jet_of,
    parse_expression,
    partial,
    point,
    to_text,
)
from heavenly.polynomials import uni_eval


def P(*vals):
    return point("second", *vals)


class TestParser:
    def test_direct_parse_shape(self):
        e = parse_expression("sigma/(w*x+z*y)", "second")
        assert to_text(e) == "sigma/(w*x+z*y)"

    def test_rational_constant_folds_exactly(self):
        e = parse_expression("1/2", "second")
        assert e == Const(F(1, 2))

    def test_phi2_expression_parses(self):
        e = parse_expression("(-y/w)^2/(w*x+z*y)", "second")
        f = ScalarField("second", e)
        assert f.value(P(1, 1, 1, 1)) == F(1, 2)

    def test_unknown_identifier_rejected_with_position(self):
        with pytest.raises(ParseError) as err:
            parse_expression("w + foo", "second")
        assert err.value.position == 4

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_expression("w + ", "second")
        assert err.value.position == 4

    def test_roundtrip_examples(self):
        for text in ("w", "-w", "1/2", "w+z*x", "(w+z)*x", "w-z-x", "w/(z*y)",
                     "(-y/w)^2/(w*x+z*y)", "x^(-2)", "2/3*w", "w-(z-x)", "-(w+z)"):
            e = parse_expression(text, "second")
            assert parse_expression(to_text(e), "second") == e

    @given(st.recursive(
        st.sampled_from(["w", "z", "x", "y", "2", "1/3", "-5"]),
        lambda s: st.tuples(st.sampled_from("+-*/"), s, s).map(lambda t: f"({t[1]}){t[0]}({t[2]})"),
        max_leaves=12))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, text):
        try:
            e = parse_expression(text, "second")
        except ParseError:
            return  # division by a zero constant folded at parse time
        assert parse_expression(to_text(e), "second") == e


class TestJetOf:
    def test_linear_field_value_and_gradient(self):
        e = parse_expression("w*x+z*y", "second")
        j = jet_of(e, P(1, 1, 1, 1), 1)
        assert j.value == 2
        grads = [j.coefficient(tuple(1 if i == k else 0 for i in range(4))) for k in range(4)]
        assert grads == [1, 1, 1, 1]

    def test_reciprocal_jet(self):
        e = parse_expression("1/(w*x+z*y)", "second")
        j = jet_of(e, P(1, 1, 1, 1), 1)
        assert j.value == F(1, 2)
        assert j.coefficient((0, 0, 1, 0)) == F(-1, 4)

    def test_constant_jet_has_single_coefficient(self):
        j = jet_of(Const(F(5, 3)), P(1, 2, 3, 4), 4)
        assert j.coeffs == {(0, 0, 0, 0): F(5, 3)}

    def test_pole_error_names_denominator(self):
        e = parse_expression("1/(w*x+z*y)", "second")
        with pytest.raises(PoleError) as err:
            jet_of(e, P(1, 1, -1, 1), 2)
        assert "w*x+z*y" in str(err.value)

    def test_sigma_binds_at_evaluation(self):
        e = parse_expression("sigma*w", "second")
        j = jet_of(e, P(3, 0, 0, 0), 1, {"sigma": F(1, 2)})
        assert j.value == F(3, 2)


class TestJetArith:
    def test_inverse_product_is_one(self):
        e = parse_expression("w^2*x+z", "second")
        p = P(2, 1, 1, 3)
        a = jet_of(e, p, 4)
        b = jet_of(parse_expression("1/(w^2*x+z)", "second"), p, 4)
        prod = a * b
        assert prod.coeffs == {(0, 0, 0, 0): F(1)}

    def test_add_negate_is_zero(self):
        a = jet_of(parse_expression("w*x^3-y", "second"), P(1, 2, 3, 4), 3)
        assert not (a + (-a)).coeffs

    def test_order2_product_cross_coefficient(self):
        # jets of (x - 1) and (y - 2) at the shifted point: coefficient of xy in
        # the product is 1 by hand expansion
        p = P(0, 0, 1, 2)
        a = jet_of(parse_expression("x-1", "second"), p, 2)
        b = jet_of(parse_expression("y-2", "second"), p, 2)
        assert (a * b).coefficient((0, 0, 1, 1)) == 1

    def test_mismatch_rejected(self):
        a = jet_of(Const(F(1)), P(1, 1, 1, 1), 2)
        b = jet_of(Const(F(1)), P(1, 1, 1, 2), 2)
        with pytest.raises(ValueError):
            a + b
        c = jet_of(Const(F(1)), P(1, 1, 1, 1), 3)
        with pytest.raises(ValueError):
            a + c

    def test_division_by_zero_valued_jet(self):
        a = jet_of(parse_expression("w", "second"), P(1, 1, 1, 1), 2)
        b = jet_of(parse_expression("w-1", "second"), P(1, 1, 1, 1), 2)
        with pytest.raises(ZeroDivisionError):
            a / b

    @given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
    @settings(max_examples=40, deadline=None)
    def test_leibniz_property(self, cw, cz, cx, cy):
        # coefficient of the product at alpha equals the convolution of factors
        p = P(1, -2, F(1, 3), 2)
        a = jet_of(parse_expression(f"({cw})*w^2+({cz})*z*y+x", "second"), p, 3)
        b = jet_of(parse_expression(f"({cx})*x*w+({cy})*y^2+z", "second"), p, 3)
        prod = a * b
        for alpha in [(1, 1, 0, 0), (0, 1, 1, 1), (2, 0, 1, 0), (0, 0, 0, 3)]:
            conv = 0
            for beta, cb in a.coeffs.items():
                gamma = tuple(x - y for x, y in zip(alpha, beta))
                if all(g >= 0 for g in gamma):
                    conv += cb * b.coefficient(gamma)
            assert prod.coefficient(alpha) == conv


class TestDerivativeReadout:
    def test_d_by_names_and_grad(self):
        j = jet_of(parse_expression("w^2*x/(z+y^2)", "second"), P(1, 2, 3, 1), 2)
        assert j.d() == j.value
        assert j.d("x", "w") == j.d("w", "x") == j.derivative((1, 0, 1, 0)) == F(2, 3)
        assert j.d("y", "y") == j.derivative((0, 0, 0, 2))
        assert j.grad() == tuple(j.d(name) for name in ("w", "z", "x", "y"))

    def test_beyond_order_rejected(self):
        j = jet_of(parse_expression("w*x", "second"), P(1, 2, 3, 1), 1)
        with pytest.raises(ValueError):
            j.d("w", "x")


class TestPartials:
    def test_symbolic_partial_of_quotient(self):
        f = ScalarField.parse("sigma/(w*x+z*y)", "second")
        fx = partial(f, (0, 0, 1, 0))
        # d_x of sigma/Q = -sigma w / Q^2, checked by values
        for p in [P(1, 1, 1, 1), P(2, -1, 1, 3)]:
            w, z, x, y = p.values
            q = w * x + z * y
            assert fx.value(p, {"sigma": F(2)}) == -2 * w / q ** 2

    def test_mixed_partials_commute(self):
        f = ScalarField.parse("(-y/w)/(w*x+z*y)", "second")
        a = partial(partial(f, (1, 0, 0, 0)), (0, 0, 1, 0))
        b = partial(partial(f, (0, 0, 1, 0)), (1, 0, 0, 0))
        for p in [P(1, 1, 1, 1), P(F(1, 2), -1, 3, F(2, 5)), P(-2, 3, F(5, 7), 1)]:
            assert a.value(p) == b.value(p)

    def test_recursion_relation_value(self):
        f = ScalarField.parse("(-y/w)/(w*x+z*y)", "second")
        fy = partial(f, (0, 0, 0, 1))
        assert fy.value(P(1, 1, 1, 1)) == F(-1, 4)

    def test_partial_consistent_with_jet_shift(self):
        f = ScalarField.parse("w^2*y/(z+x^2)", "second")
        p = P(1, 2, 1, -1)
        alpha = (1, 0, 1, 0)
        via_partial = partial(f, alpha).jet(p, 2)
        via_jet = f.jet(p, 4).shift(alpha)
        for a, c in via_partial.coeffs.items():
            assert via_jet.coefficient(a) == c


class TestOracleConsistency:
    def test_exactness_against_sympy(self):
        # jets of rational fields agree with an independent symbolic engine
        import random

        import sympy as sp

        rng = random.Random(20)
        ws, zs, xs, ys = sp.symbols("w z x y")
        cases = [
            ("w^2*x-z*y^3+1/2", ws ** 2 * xs - zs * ys ** 3 + sp.Rational(1, 2)),
            ("(w+z)/(x*y-2)", (ws + zs) / (xs * ys - 2)),
            ("(-y/w)^2/(w*x+z*y)", (-ys / ws) ** 2 / (ws * xs + zs * ys)),
        ]
        indices = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 1, 0), (2, 0, 0, 1), (1, 1, 1, 1),
                   (0, 0, 3, 1), (2, 2, 1, 1)]
        for text, sym in cases:
            f = ScalarField.parse(text, "second")
            count = 0
            while count < 7:
                vals = [F(rng.randint(-7, 7), rng.randint(1, 7)) for _ in range(4)]
                subs = dict(zip((ws, zs, xs, ys), [sp.Rational(v) for v in vals]))
                try:
                    jet = f.jet(Point("second", tuple(vals)), 6)
                except PoleError:
                    continue
                count += 1
                for alpha in indices:
                    expect = sp.diff(sym, ws, alpha[0], zs, alpha[1], xs, alpha[2], ys, alpha[3])
                    expect = expect.subs(subs)
                    assert F(str(expect)) == jet.derivative(alpha), (text, alpha)

    def test_float_mode_matches_exact(self):
        f = ScalarField.parse("(w+z)^3/(x*y+4)", "second")
        pe = P(1, F(1, 2), -1, F(2, 3))
        pf = pe.as_float()
        je = f.jet(pe, 3)
        jf = f.jet(pf, 3)
        assert jf.mode == "float"
        for alpha, c in je.coeffs.items():
            assert abs(jf.coefficient(alpha) - float(c)) <= 1e-12 * max(1.0, abs(float(c)))

    def test_order_cap(self):
        with pytest.raises(ValueError):
            jet_of(Const(F(1)), P(0, 0, 0, 0), 7)


# ---------------------------------------------------------------------------
# random expression trees against independent oracles

_BINARY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}


def expr_trees(names, depth=4):
    """Raw Const/Var/Add/Sub/Mul/Div/Pow/Neg trees of depth <= ``depth`` (no folding)."""
    leaf = st.one_of(st.integers(-3, 3).map(lambda k: Const(F(k))), st.sampled_from(names).map(Var))
    if depth == 0:
        return leaf
    sub = expr_trees(names, depth - 1)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from(list(_BINARY)), sub, sub).map(lambda t: t[0](t[1], t[2])),
        st.tuples(sub, st.integers(-2, 2)).map(lambda t: Pow(*t)),
        sub.map(Neg),
    )


def _to_sympy(e, symbols):
    if isinstance(e, Const):
        return sp.Rational(e.value.numerator, e.value.denominator)
    if isinstance(e, Var):
        return symbols[e.name]
    if isinstance(e, Pow):
        return _to_sympy(e.base, symbols) ** e.exponent
    if isinstance(e, Neg):
        return -_to_sympy(e.a, symbols)
    return _BINARY[type(e)](_to_sympy(e.a, symbols), _to_sympy(e.b, symbols))


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
SECOND_NAMES = ("w", "z", "x", "y")


class TestFoldOracles:
    @given(expr_trees(SECOND_NAMES), st.tuples(rationals, rationals, rationals, rationals))
    @settings(max_examples=60, deadline=None)
    def test_jets_match_sympy_through_order_two(self, e, values):
        try:
            jet = jet_of(e, Point("second", values), 2)
        except PoleError:
            assume(False)
        symbols = {name: sp.Symbol(name) for name in SECOND_NAMES}
        sym = _to_sympy(e, symbols)
        at = {symbols[name]: sp.Rational(v.numerator, v.denominator)
              for name, v in zip(SECOND_NAMES, values)}
        for alpha in product(range(3), repeat=4):
            if sum(alpha) > 2:
                continue
            args = [a for name, k in zip(SECOND_NAMES, alpha) for a in (symbols[name], k)]
            expect = F(str(sp.diff(sym, *args).subs(at))) / prod(factorial(k) for k in alpha)
            assert jet.coefficient(alpha) == expect, (to_text(e), alpha)

    @given(expr_trees(("lam", "mu0", "mu1")), st.tuples(rationals, rationals, rationals, rationals),
           rationals)
    @settings(max_examples=60, deadline=None)
    def test_residue_transform_folds_the_flat_curve(self, f, values, t):
        w, z, x, y = values
        seen = []
        with mock.patch.object(twistor, "residue_at", lambda rat, pole: seen.append(rat) or F(0)):
            try:
                twistor.penrose_residue_transform(f, Const(F(0)), Point("second", values))
            except PoleError:
                assume(False)
        (rat,) = seen
        den = uni_eval(rat.den, t)
        assume(den != 0)
        try:
            expect = jet_of(f, Point("twistor-function", (t, w + t * y, z - t * x)), 0).value
        except PoleError:
            assume(False)
        assert uni_eval(rat.num, t) / den == expect
