"""Expression parsing and jet arithmetic against independent oracles."""

import math
import operator
from fractions import Fraction as F
from itertools import product
from math import factorial, prod
from unittest import mock

import pytest
import sympy as sp
from hypothesis import assume, given, reject, settings, strategies as st

from heavenly import twistor
from heavenly.jetcore import (
    Add,
    Const,
    Div,
    EXACT,
    FLOAT,
    EvaluationError,
    Jet,
    Mul,
    Neg,
    ParseError,
    Point,
    PoleError,
    Pow,
    Program,
    ScalarField,
    Sub,
    Var,
    _point_leaf,
    chart_coords,
    common_denominator,
    free_vars,
    jet_of,
    jets_of,
    parse_expression,
    partial,
    point,
    to_text,
)

import fold_oracle
import mul_oracle
from dict_jet import DictJet, partials
from jet_work import JetWork
from poly_oracle import uni_eval


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


    def test_free_vars_walks_a_shared_subtree_once(self):
        # 40 doublings by identity sharing: 41 distinct nodes, 2^40 paths from the root
        e = Var("x")
        for _ in range(40):
            e = Add(e, e)
        assert free_vars(e) == {"x"}
        assert ScalarField("second", e).expr is e


class TestJetOf:
    def test_linear_field_value_and_gradient(self):
        e = parse_expression("w*x+z*y", "second")
        j = jet_of(e, P(1, 1, 1, 1), 1)
        assert j.value == 2
        grads = [j.d(name) for name in ("w", "z", "x", "y")]
        assert grads == [1, 1, 1, 1]

    def test_reciprocal_jet(self):
        e = parse_expression("1/(w*x+z*y)", "second")
        j = jet_of(e, P(1, 1, 1, 1), 1)
        assert j.value == F(1, 2)
        assert j.d("x") == F(-1, 4)

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
        assert (a * b).d("x", "y") == 1

    def test_mismatch_rejected(self):
        a = jet_of(Const(F(1)), P(1, 1, 1, 1), 2)
        b = jet_of(Const(F(1)), P(1, 1, 1, 2), 2)
        with pytest.raises(ValueError):
            a + b
        c = jet_of(Const(F(1)), P(1, 1, 1, 1), 3)
        with pytest.raises(ValueError):
            a + c

    def test_exact_zero_readouts_are_one_shared_fraction(self):
        a = jet_of(parse_expression("x^2/3", "second"), P(1, 2, 1, 1), 2)
        b = jet_of(parse_expression("w/7+z", "second"), P(1, 2, 1, 1), 2)
        zeros = [EXACT.divide(0, 3), EXACT.divide(0, 5), a.d("y"), b.d("x"), (a - a).value]
        assert all(z is zeros[0] for z in zeros)
        assert zeros[0] == F(0) and type(zeros[0]) is F

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
                    conv += cb * b.coeffs.get(gamma, 0)
            assert prod.coeffs.get(alpha, 0) == conv


class TestDerivativeReadout:
    def test_d_by_names_and_grad(self):
        j = jet_of(parse_expression("w^2*x/(z+y^2)", "second"), P(1, 2, 3, 1), 2)
        assert j.d() == j.value
        assert j.d("x", "w") == j.d("w", "x") == j.coeffs[(1, 0, 1, 0)] == F(2, 3)
        assert j.d("y", "y") == 2 * j.coeffs[(0, 0, 0, 2)]
        nums, den = j.d_numerators(("w",), ("z",), ("x",), ("y",))
        assert [F(x, den) for x in nums] == [j.d(name) for name in ("w", "z", "x", "y")]

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
        via_jet = f.jet(p, 4)
        for names in partials(SECOND_NAMES, 2):
            assert via_jet.d("w", "x", *names) == via_partial.d(*names)


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
                    names = [n for n, k in zip(SECOND_NAMES, alpha) for _ in range(k)]
                    assert F(str(expect)) == jet.d(*names), (text, alpha)

    def test_float_mode_matches_exact(self):
        f = ScalarField.parse("(w+z)^3/(x*y+4)", "second")
        pe = P(1, F(1, 2), -1, F(2, 3))
        pf = pe.as_float()
        je = f.jet(pe, 3)
        jf = f.jet(pf, 3)
        assert jf.domain is FLOAT
        for alpha, c in je.coeffs.items():
            assert abs(jf.coeffs.get(alpha, 0.0) - float(c)) <= 1e-12 * max(1.0, abs(float(c)))

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
            assert jet.coeffs.get(alpha, 0) == expect, (to_text(e), alpha)

    @given(expr_trees(SECOND_NAMES), st.tuples(rationals, rationals, rationals, rationals))
    @settings(max_examples=100, deadline=None)
    def test_plain_value_matches_order_zero_jet(self, e, values):
        p = Point("second", values)
        field = ScalarField("second", e)
        try:
            expect = jet_of(e, p, 0).value
        except PoleError:
            with pytest.raises(PoleError):
                field.value(p)
            return
        got = field.value(p)
        assert got == expect and type(got) is F

    def test_plain_value_errors_match_the_jet_route(self):
        field = ScalarField.parse("sigma*w", "second")
        p = P(1, 2, 3, 4)
        for route in (lambda: field.value(p), lambda: jet_of(field.expr, p, 0)):
            with pytest.raises(EvaluationError, match="unbound symbol 'sigma'"):
                route()
        with pytest.raises(ValueError, match="evaluated at 'first' point"):
            field.value(point("first", 1, 2, 3, 4), {"sigma": 1})
        assert field.value(p, {"sigma": 2}) == 2 and type(field.value(p, {"sigma": 2})) is F
        half = field.value(p.as_float(), {"sigma": F(1, 2)})
        assert half == 0.5 and type(half) is float

    @given(expr_trees(("lam", "mu0", "mu1")), st.tuples(rationals, rationals, rationals, rationals),
           rationals)
    @settings(max_examples=60, deadline=None)
    def test_residue_transform_folds_the_flat_curve(self, f, values, t):
        # the transform takes its residue of this rational function of lam
        w, z, x, y = values
        try:
            rat = twistor.on_flat_curve(f, Point("second", values))
        except PoleError:
            assume(False)
        den = uni_eval(rat.den, t)
        assume(den != 0)
        try:
            expect = jet_of(f, Point("twistor-function", (t, w + t * y, z - t * x)), 0).value
        except PoleError:
            assume(False)
        assert uni_eval(rat.num, t) / den == expect


def rebuilt(e):
    """A structurally equal copy of the tree that shares no node with it."""
    if isinstance(e, Const):
        return Const(e.value)
    if isinstance(e, Var):
        return Var(e.name)
    if isinstance(e, Pow):
        return Pow(rebuilt(e.base), e.exponent)
    if isinstance(e, Neg):
        return Neg(rebuilt(e.a))
    return type(e)(rebuilt(e.a), rebuilt(e.b))


@st.composite
def trees_sharing_subtrees(draw):
    """One to three trees built over a small pool of subtrees, so that subtrees
    repeat within and across the trees, both as the same node and as separately
    built equal copies."""
    pool = draw(st.lists(expr_trees(SECOND_NAMES, depth=2), min_size=1, max_size=3))
    share = st.sampled_from(pool)
    part = st.one_of(share, share.map(rebuilt), expr_trees(SECOND_NAMES, depth=1))

    def grow(depth):
        if depth == 0:
            return part
        sub = grow(depth - 1)
        return st.one_of(
            part,
            st.tuples(st.sampled_from(list(_BINARY)), sub, sub).map(lambda t: t[0](t[1], t[2])),
            st.tuples(sub, st.integers(-2, 2)).map(lambda t: Pow(*t)),
            sub.map(Neg),
        )

    return draw(st.lists(grow(2), min_size=1, max_size=3))


def _bits(jet):
    """Every derivative numerator of the jet and its denominator, float bits as hex."""
    nums, den = jet.d_numerators(*partials(chart_coords(jet.center.chart), jet.order))
    return jet.order, den, [(type(x), float(x).hex() if isinstance(x, float) else x) for x in nums]


class TestMemoisedFold:
    """jets_of compiles its trees into one program, so a subtree they share is
    folded once; the memo-free walk of tests/fold_oracle.py is the oracle."""

    @given(trees_sharing_subtrees(), st.tuples(rationals, rationals, rationals, rationals),
           st.integers(0, 2), st.sampled_from(["exact", "float"]))
    @settings(max_examples=150, deadline=None)
    def test_matches_memo_free_fold(self, exprs, values, order, mode):
        p = Point("second", values if mode == "exact" else tuple(map(float, values)))
        try:
            expect = [fold_oracle.jet_of(e, p, order) for e in exprs]
        except PoleError as err:
            # the same first pole, named by the same divisor
            with pytest.raises(PoleError) as got:
                jets_of(exprs, p, order)
            assert str(got.value) == str(err)
            return
        got = jets_of(exprs, p, order)
        # exact numerators over a reduced denominator are equal iff the jets are;
        # in float mode every coefficient has the oracle's bits
        assert [_bits(j) for j in got] == [_bits(j) for j in expect]
        assert [_bits(jet_of(e, p, order)) for e in exprs] == [_bits(j) for j in expect]

    @given(trees_sharing_subtrees())
    @settings(max_examples=100, deadline=None)
    def test_equal_trees_built_separately_hash_equal(self, exprs):
        for e in exprs:
            copy = rebuilt(e)
            assert copy is not e
            assert copy == e and hash(copy) == hash(e)
            assert {e: 1}[copy] == 1

    def test_jet_work_counts_a_tree_folded_at_two_orders(self, monkeypatch):
        # the order-3 jet holds the order-2 one, so a second fold is waste
        q = parse_expression("1/(w*x+z*y)", "second")
        p = P(1, 2, 3, 4)
        work = JetWork(monkeypatch)
        jet_of(q, p, 3)
        jet_of(q, p, 2)
        monkeypatch.undo()
        assert work.fold_count == 2
        assert work.most_folds_of_one_tree == 2

    def test_shared_subtree_is_folded_once(self):
        q = parse_expression("1/(w*x+z*y)", "second")
        p = P(1, 2, 3, 4)
        sums = []
        real = Jet.__add__
        with mock.patch.object(Jet, "__add__", lambda j, k: sums.append(j) or real(j, k)):
            a, b = jets_of([q, parse_expression("w/(w*x+z*y)", "second")], p, 2)
        # the divisor w*x+z*y is folded once for both trees
        assert len(sums) == 1
        assert _bits(a) == _bits(fold_oracle.jet_of(q, p, 2))
        assert b.coeffs == (a * jet_of(Var("w"), p, 2)).coeffs


class TestProgram:
    """A program compiled once and run at several points: each run equals the
    memo-free walk of tests/fold_oracle.py at its point."""

    @given(trees_sharing_subtrees(),
           st.lists(st.tuples(rationals, rationals, rationals, rationals), min_size=2, max_size=4),
           st.integers(0, 2), st.sampled_from(["exact", "float"]))
    @settings(max_examples=150, deadline=None)
    def test_one_program_runs_at_several_points(self, exprs, points, order, mode):
        program = Program(exprs)
        for values in points:
            p = Point("second", values if mode == "exact" else tuple(map(float, values)))
            try:
                expect = [fold_oracle.jet_of(e, p, order) for e in exprs]
            except PoleError as err:
                # the same first pole, named by the same divisor; the program stays usable
                with pytest.raises(PoleError) as got:
                    program.jets(p, order)
                assert str(got.value) == str(err)
                continue
            assert [_bits(j) for j in program.jets(p, order)] == [_bits(j) for j in expect]

    def test_a_later_point_on_the_pole(self):
        exprs = [parse_expression(text, "second") for text in ("w/(w*x+z*y)", "1/(w*x+z*y)")]
        program = Program(exprs)
        for p in (P(1, 2, 3, 4), P(1, 1, 1, -1), P(2, 1, 3, 4).as_float(), P(1, -1, 1, 1)):
            if p.values[0] * p.values[2] + p.values[1] * p.values[3]:
                got = program.jets(p, 2)
                assert [_bits(j) for j in got] == [_bits(fold_oracle.jet_of(e, p, 2))
                                                   for e in exprs]
            else:
                with pytest.raises(PoleError, match="'w\\*x\\+z\\*y'"):
                    program.jets(p, 2)

    def test_the_divisor_runs_before_the_dividend(self):
        # both have a pole where w = x = 0: the divisor's is the one named, as in the walk
        e = parse_expression("(1/w)/(1/x)", "second")
        p = P(0, 1, 0, 1)
        with pytest.raises(PoleError) as expect:
            fold_oracle.jet_of(e, p, 1)
        with pytest.raises(PoleError) as got:
            Program([e]).jets(p, 1)
        assert str(got.value) == str(expect.value) == "denominator 'x' vanishes at the point"

    def test_a_value_too_large_for_a_float(self):
        # 7^400 is no float: a float run raises an EvaluationError naming it, which is
        # no PoleError; the exact run is unaffected
        program = Program([parse_expression("q^2/(q^400*7^400)", "plane-wave")])
        p = point("plane-wave", 1, 2, 3, 4)
        for run in (lambda p: program.jets(p, 1), program.values):
            with pytest.raises(EvaluationError, match="^'[0-9.]+' is too large for a float") \
                    as got:
                run(p.as_float())
            assert not isinstance(got.value, PoleError)
            run(p)
        # a float power past the float range raises where a float jet's goes to inf
        program = Program([parse_expression("(7*q)^400*z", "plane-wave")])
        with pytest.raises(EvaluationError, match="^'\\(7\\*q\\)\\^400' is too large"):
            program.values(p.as_float())
        assert program.jets(p.as_float(), 1)[0].value == math.inf

    def test_a_field_keeps_its_program(self):
        f = ScalarField.parse("w/(w*x+z*y)", "second")
        assert f.program() is f.program()
        assert f.program().texts() == ["w/(w*x+z*y)"]
        assert f == ScalarField.parse("w/(w*x+z*y)", "second")
        with pytest.raises(ValueError, match="evaluated at 'first' point"):
            f.jet(point("first", 1, 2, 3, 4), 1)


@st.composite
def printed_trees(draw):
    """Trees as in trees_sharing_subtrees, some of them with fractional and negative
    constants, which print with '/' or a sign."""
    constant = st.fractions(-3, 3, max_denominator=3).map(Const)
    exprs = draw(trees_sharing_subtrees())
    extra = draw(st.lists(st.tuples(st.sampled_from(list(_BINARY)), constant), max_size=2))
    return [op(c, e) if i % 2 else op(e, c) for i, (e, (op, c)) in enumerate(zip(exprs, extra))
            ] + exprs[len(extra):]


class TestProgramText:
    """A program prints its outputs from its instructions; the tree printer of
    tests/fold_oracle.py is the oracle."""

    @given(printed_trees())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_tree_printer(self, exprs):
        program = Program(exprs)
        assert program.texts() == [fold_oracle.to_text(e) for e in exprs]
        assert [to_text(e) for e in exprs] == [fold_oracle.to_text(e) for e in exprs]

    def test_a_shared_subtree_prints_once(self):
        e = parse_expression("(w*x+z*y)^(-1)+(w*x+z*y)^(-2)", "second")
        program = Program([e, e])
        assert program.texts() == ["(w*x+z*y)^(-1)+(w*x+z*y)^(-2)"] * 2
        # one entry per distinct instruction: w, x, w*x, z, y, z*y, the sum, two powers, +
        assert len(program._texts) == 10


def _words(j):
    """The stored numerators as ``float.hex`` text (so the sign of a zero and of an
    infinity count) or as integers, and the denominator.  Every nan reads "nan":
    which operand's sign and payload a product of two nans carries is not fixed
    even between two runs of one Python expression (the interpreter's
    specialised and generic float products may differ), so it is not compared."""
    return j._den, [x.hex() if isinstance(x, float) else x for x in j._c]


SPECIAL_FLOATS = st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 1.7e308,
                                  float("inf"), float("-inf"), float("nan")])


@st.composite
def constant_products(draw):
    """A constant jet (value only, possibly zero) and a random jet at one point and
    order, in exact or float mode; float values include signed zeros, values
    whose products underflow or overflow to +-inf, infinities and nan."""
    mode = draw(st.sampled_from(["exact", "float"]))
    order = draw(st.integers(0, 3))
    p = P(1, 2, 3, 4)
    number = rationals
    if mode == "float":
        p = p.as_float()
        number = st.one_of(st.floats(-4, 4), SPECIAL_FLOATS)
    alphas = st.lists(st.integers(0, 3), max_size=order).map(
        lambda axes: tuple(axes.count(i) for i in range(4)))
    c = Jet.constant(draw(number), p, order)
    j = Jet(p, order, draw(st.dictionaries(alphas, number, max_size=6)))
    if draw(st.booleans()):
        j = -j
    return c, j


class TestConstantFactor:
    """A product with a constant factor is a scaling; the sum over rows of
    tests/mul_oracle.py is the oracle, bit for bit."""

    @given(constant_products())
    @settings(max_examples=300, deadline=None)
    def test_scaling_matches_the_sum_over_rows(self, pair):
        c, j = pair
        for a, b in ((c, j), (j, c), (c, c), (j, j)):
            assert _words(a * b) == _words(mul_oracle.product(a, b))

    def test_signed_zeros_and_overflow(self):
        p = P(1, 2, 3, 4).as_float()
        big = Jet(p, 1, {(0, 0, 0, 0): 1e300, (1, 0, 0, 0): -1e300, (0, 1, 0, 0): 1e-300})
        for value in (1e300, -1e-300, -0.0, float("inf"), float("nan")):
            c = Jet.constant(value, p, 1)
            for a, b in ((c, big), (big, c), (c, -big)):
                assert _words(a * b) == _words(mul_oracle.product(a, b))
        # -1e-300 * 1e-300 underflows to -0.0, which the product stores as 0.0
        assert _words(Jet.constant(-1e-300, p, 1) * big)[1][2] == "0x0.0p+0"


# ---------------------------------------------------------------------------
# the one read-out: Jet.d_numerators, and Jet.d through it

READOUT_CHARTS = ("second", "first", "extended-2")


@st.composite
def folded_jets(draw):
    """A jet folded from a random tree at a random point of a random chart and
    mode, through order 0-4, with the dict-kernel oracle of its derivatives.

    In exact mode the oracle folds the same tree in the dict kernel; in float
    mode it holds the jet's own Taylor coefficients, so a derivative is the
    same float product in both and its bits can be compared."""
    chart = draw(st.sampled_from(READOUT_CHARTS))
    names = chart_coords(chart)
    mode = draw(st.sampled_from(["exact", "float"]))
    order = draw(st.integers(0, 4))
    e = draw(expr_trees(names, depth=3))
    values = tuple(draw(st.lists(rationals, min_size=len(names), max_size=len(names))))
    p = Point(chart, values if mode == "exact" else tuple(map(float, values)))
    try:
        jet = jet_of(e, p, order)
        if mode == "float":
            return jet, DictJet(p, order, jet.coeffs)
        return jet, fold_oracle.fold(e, _point_leaf(p, None,
                                                    lambda v: DictJet.constant(v, p, order),
                                                    lambda i: DictJet.coordinate(i, p, order)))
    except PoleError:
        reject()


def reads(domain):
    """Float values as hex text, so the sign of a zero counts; exact values as they are."""
    return (lambda x: x) if domain is EXACT else (lambda x: x.hex())


def oracle_d(oracle, names):
    """The oracle's derivative, a float zero read as 0.0 as the jet reads it."""
    return oracle.d(*names) + oracle.domain.zero


class TestOneReadout:
    @given(folded_jets(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_numerators_over_the_denominator_are_the_oracle_derivatives(self, pair, data):
        jet, oracle = pair
        names = chart_coords(jet.center.chart)
        partial_names = st.lists(st.sampled_from(names), max_size=jet.order).map(tuple)
        wanted = data.draw(st.lists(partial_names, max_size=8))
        wanted += data.draw(st.lists(st.sampled_from(wanted), max_size=3)) if wanted else []
        nums, den = jet.d_numerators(*wanted)
        assert len(nums) == len(wanted)
        show = reads(jet.domain)
        if jet.domain is EXACT:
            assert den > 0 and all(type(x) is int for x in nums)
            got = [F(x, den) for x in nums]
        else:
            assert den == 1
            got = [x / den for x in nums]
        expect = [oracle_d(oracle, n) for n in wanted]
        assert list(map(show, got)) == list(map(show, expect))
        assert [show(jet.d(*n)) for n in wanted] == list(map(show, expect))

    @given(folded_jets(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_a_partial_above_the_order_is_rejected(self, pair, data):
        jet, _ = pair
        names = chart_coords(jet.center.chart)
        high = tuple(data.draw(st.lists(st.sampled_from(names), min_size=jet.order + 1,
                                        max_size=jet.order + 2)))
        with pytest.raises(ValueError):
            jet.d_numerators((), high)
        with pytest.raises(ValueError):
            jet.d(*high)

    @given(st.sampled_from(["exact", "float"]), st.integers(1, 3),
           st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=6), st.data())
    @settings(max_examples=80, deadline=None)
    def test_one_layout_two_charts_each_read_their_own(self, mode, order, terms, data):
        # second and first have 4 coordinates each, so their jets share one layout;
        # the same names read on both must resolve in each jet's own chart
        coeffs = {tuple((i == a) + (i == b) for i in range(4)): F(a - b, 1 + a * b)
                  for a, b in terms}
        coeffs = {alpha: c for alpha, c in coeffs.items() if sum(alpha) <= order}
        jets = {}
        for chart in ("second", "first"):
            p = Point(chart, (F(1), F(2), F(3), F(4)))
            p = p if mode == "exact" else p.as_float()
            jets[chart] = (Jet(p, order, coeffs), DictJet(p, order, coeffs))
        names = sorted(set(chart_coords("second")) | set(chart_coords("first")))
        wanted = data.draw(st.lists(st.lists(st.sampled_from(names), max_size=order).map(tuple),
                                    min_size=1, max_size=4))
        show = reads(p.domain)
        for chart in ("second", "first", "second"):
            jet, oracle = jets[chart]
            if all(n in chart_coords(chart) for names_ in wanted for n in names_):
                got = [show(jet.d(*n)) for n in wanted]
                assert got == [show(oracle_d(oracle, n)) for n in wanted]
            else:
                with pytest.raises(ValueError):
                    jet.d_numerators(*wanted)

    @given(folded_jets(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_partial_jet_is_the_oracle_partial(self, pair, data):
        jet, oracle = pair
        names = chart_coords(jet.center.chart)
        wanted = tuple(data.draw(st.lists(st.sampled_from(names), max_size=jet.order)))
        got, want = jet.d_jet(*wanted), oracle.partial(*wanted)
        assert got.order == want.order == jet.order - len(wanted)
        assert got.center == jet.center and got.domain is jet.domain
        show = reads(jet.domain)
        assert {k: show(v) for k, v in got.coeffs.items()} == {
            k: show(v) for k, v in want.coeffs.items()}
        if jet.domain is EXACT:
            # a partial of the partial is the partial of the whole
            rest = tuple(data.draw(st.lists(st.sampled_from(names), max_size=got.order)))
            assert got.d(*rest) == jet.d(*wanted, *rest)
        with pytest.raises(ValueError):
            jet.d_jet(*wanted, *names[:1] * (got.order + 1))

    @given(folded_jets(), st.lists(rationals, max_size=4), st.data())
    @settings(max_examples=80, deadline=None)
    def test_common_denominator_of_readouts_and_numbers(self, pair, numbers, data):
        jet, _ = pair
        names = chart_coords(jet.center.chart)
        wanted = data.draw(st.lists(st.lists(st.sampled_from(names), max_size=jet.order)
                                    .map(tuple), max_size=4))
        readout = jet.d_numerators(*wanted)
        if jet.domain is FLOAT:
            numbers = [float(x) for x in numbers]
        out, den = common_denominator([readout, *numbers, readout])
        if jet.domain is FLOAT:
            assert den == 1 and out == [readout[0], *numbers, readout[0]]
            return
        assert den > 0
        assert [F(x, den) for x in out[0]] == [F(x, readout[1]) for x in readout[0]]
        assert [F(x, den) for x in out[1:-1]] == numbers
        assert out[-1] == out[0]
