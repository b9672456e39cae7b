"""The dense jet kernel against the dictionary-of-Fractions kernel it replaced."""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

import power_oracle
from dict_jet import DictJet, partials
from heavenly.jetcore import (
    CHARTS, EXACT, MAX_ORDER, Jet, Point, jet_of, parse_expression, point,
)

# charts of every size from 1 to 10 variables, so jets of any arity can be centred
ORACLE_CHARTS = {n: f"oracle-{n}" for n in range(1, 11)}
for _n, _name in ORACLE_CHARTS.items():
    CHARTS.setdefault(_name, tuple(f"v{i}" for i in range(_n)))

RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@st.composite
def jet_pairs(draw, mode):
    """Two random sparse jets of one center and order, as (dense, dict) kernel pairs."""
    nvars = draw(st.integers(1, 10))
    order = draw(st.integers(0, MAX_ORDER))
    values = tuple(draw(st.lists(RATIONALS, min_size=nvars, max_size=nvars)))
    center = Point(ORACLE_CHARTS[nvars], values)
    if mode == "float":
        center = center.as_float()

    def alpha():
        axes = draw(st.lists(st.integers(0, nvars - 1), max_size=order))
        return tuple(axes.count(i) for i in range(nvars))

    out = []
    for _ in range(2):
        coeffs = {alpha(): draw(RATIONALS) for _ in range(draw(st.integers(0, 5)))}
        if mode == "float":
            coeffs = {a: float(c) for a, c in coeffs.items()}
        out.append((Jet(center, order, coeffs), DictJet(center, order, coeffs)))
    return out, alpha()


def _agree(new, old):
    assert (new.center, new.order, new.domain) == (old.center, old.order, old.domain)
    if new.domain is EXACT:
        assert new.coeffs == old.coeffs
        return
    scale = max((abs(c) for c in old.coeffs.values()), default=0.0)
    for alpha in set(new.coeffs) | set(old.coeffs):
        assert abs(new.coeffs.get(alpha, 0.0) - old.coefficient(alpha)) <= 1e-12 * max(1.0, scale)


def _both(op, new, old):
    """Apply ``op`` in both kernels; either both raise ZeroDivisionError or both agree."""
    try:
        expect = op(old)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            op(new)
        return
    _agree(op(new), expect)


def _check_kernels(data):
    ((a, a0), (b, b0)), alpha = data
    _agree(a, a0)
    _agree(a + b, a0 + b0)
    _agree(a - b, a0 - b0)
    _agree(a * b, a0 * b0)
    _agree(-a, -a0)
    _both(lambda j: j.reciprocal(), a, a0)
    _both(lambda j: j[0] / j[1], (a, b), (a0, b0))
    for n in (-2, -1, 0, 1, 2, 3):
        _both(lambda j: j ** n, a, a0)
    close = (lambda x, y: x == y) if a.domain is EXACT else \
        (lambda x, y: abs(x - y) <= 1e-12 * max(1.0, abs(y)))
    names = CHARTS[a.center.chart]
    assert close(a.d(*(n for n, k in zip(names, alpha) for _ in range(k))), a0.derivative(alpha))
    if a.order >= 1:
        assert all(map(close, (a.d(n) for n in names), a0.grad()))


class TestDictKernelOracle:
    @given(jet_pairs("exact"))
    @settings(max_examples=80, deadline=None)
    def test_exact_kernels_agree_coefficient_for_coefficient(self, data):
        _check_kernels(data)

    @given(jet_pairs("float"))
    @settings(max_examples=80, deadline=None)
    def test_float_kernels_agree_to_relative_1e12(self, data):
        _check_kernels(data)


@st.composite
def signed_jets(draw, mode):
    """A random sparse jet in up to 4 variables through order 4, negated or
    inverted half the time, so float jets carry stored -0.0 coefficients as
    ``Neg`` and ``reciprocal`` leave them.  Float coefficients use the whole
    mantissa, so a product taken in another association shows in the last bits."""
    nvars = draw(st.integers(1, 4))
    order = draw(st.integers(0, 4))
    center = Point(ORACLE_CHARTS[nvars], tuple(draw(st.lists(RATIONALS, min_size=nvars,
                                                             max_size=nvars))))
    number = RATIONALS
    if mode == "float":
        center = center.as_float()
        number = st.floats(-4, 4, allow_nan=False, allow_infinity=False)
    alphas = st.lists(st.integers(0, nvars - 1), max_size=order).map(
        lambda axes: tuple(axes.count(i) for i in range(nvars)))
    a = Jet(center, order, draw(st.dictionaries(alphas, number, max_size=5)))
    if draw(st.booleans()):
        a = -a
    if draw(st.booleans()) and a.value:
        a = a.reciprocal()
    return a


def _overflowing_jet():
    """A float order-3 jet of value 8.1e108 whose higher coefficients overflowed to
    +-inf, so its negative powers hold nan: the power test's failing example."""
    tiny = Jet(Point(ORACLE_CHARTS[1], (0.5,)), 3, {(0,): 1.234e-109, (1,): 1.0})
    return tiny.reciprocal()


def _stored(j):
    """The stored numerators (floats as hex, so the sign of zero counts) and the denominator."""
    return j._den, [x.hex() if isinstance(x, float) else x for x in j._c]


def _float_readouts(j):
    """Every coefficient and every named derivative, as float.hex text."""
    derivatives = [j.d(*names) for names in partials(CHARTS[j.center.chart], j.order)]
    return {a: c.hex() for a, c in j.coeffs.items()}, [x.hex() for x in derivatives]


class TestPowerOracle:
    """Jet.__pow__ (squarings in bit order from the lowest one used, kept on the
    jet with its reciprocal) against the old square-and-multiply from the constant
    1 in tests/power_oracle.py."""

    @given(st.sampled_from(["exact", "float"]).flatmap(signed_jets), st.integers(-12, 12))
    @example(_overflowing_jet(), -3)
    @settings(max_examples=150, deadline=None)
    def test_matches_square_and_multiply_from_one(self, x, n):
        try:
            expect = power_oracle.power(x, n)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                x ** n
            return
        got = x ** n
        if x.domain is EXACT:
            assert (got.coeffs, got.value) == (expect.coeffs, expect.value)
        else:
            assert _float_readouts(got) == _float_readouts(expect)
        assert (x ** 0).coeffs == {(0,) * x.nvars: 1}
        # a second power of the same jet reuses its reciprocal and squarings; stored
        # numerators are compared as hex text, so a nan equals itself and -0.0 != 0.0
        assert _stored(x ** n) == _stored(got)

    def test_a_power_holding_nan_compares_by_its_bits(self):
        x = _overflowing_jet()
        got = x ** -3
        assert any(c != c for c in got.coeffs.values())   # a nan, never equal to itself
        assert _stored(x ** -3) == _stored(got) == _stored(power_oracle.power(x, -3))

    @given(st.sampled_from(["exact", "float"]).flatmap(signed_jets))
    @settings(max_examples=60, deadline=None)
    def test_cached_reciprocal_equals_a_fresh_one(self, x):
        if not x.value:
            return
        cached = x.reciprocal()
        assert x.reciprocal() is cached
        fresh = x._invert()
        assert fresh is not cached
        assert _stored(cached) == _stored(fresh)


def _readouts(j):
    names = CHARTS[j.center.chart]
    out = [j.value, j.d(), *j.coeffs.values()]
    if j.order >= 1:
        out += [j.d(name) for name in names]
    if j.order >= 2:
        out += [j.d(names[0], names[-1]), j.d(names[0], names[0])]
    return out


class TestReadoutTypes:
    P = point("second", 1, F(1, 2), -3, 2)

    def jets(self, p):
        e = parse_expression("w^2*x/(z+y^2)-3", "second")
        yield jet_of(e, p, 2)
        yield jet_of(parse_expression("w-w", "second"), p, 2)   # the zero jet
        ones = point("second", 1, 1, 1, 1)   # integer coefficients: denominator 1
        yield jet_of(parse_expression("2*x^2+y", "second"), ones if p.domain is EXACT
                     else ones.as_float(), 2)
        yield jet_of(parse_expression("7", "second"), p, 0)
        yield Jet(p, 1, {})
        j = jet_of(e, p, 3)
        yield j * j - j.reciprocal()
        yield j.truncate(1)

    def test_exact_readouts_are_fractions_never_ints(self):
        for j in self.jets(self.P):
            for x in _readouts(j):
                assert type(x) is F, (j, x)

    def test_float_readouts_are_floats(self):
        for j in self.jets(self.P.as_float()):
            for x in _readouts(j):
                assert type(x) is float, (j, x)

    def test_denominator_one_and_zero_still_read_as_fractions(self):
        j = jet_of(parse_expression("2*x^2+y", "second"), point("second", 1, 1, 1, 1), 2)
        assert j.value == 3 and type(j.value) is F
        assert j.coeffs == {(0, 0, 0, 0): F(3), (0, 0, 1, 0): F(4), (0, 0, 0, 1): F(1),
                            (0, 0, 2, 0): F(2)}
        zero = j - j
        assert zero.is_zero() and not zero.coeffs and type(zero.value) is F
