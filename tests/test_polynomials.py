"""``Poly`` on integer numerators over one denominator, against the Fraction-dict oracle.

Every operation must give the terms, equality, field tree, text and values
of ``tests/poly_oracle.py``'s ``DictPoly``, and every result must be in
normal form: a positive denominator coprime to the numerators, and no zero
numerator.  Then equal values built by different routes compare equal.
"""

from fractions import Fraction as F
from math import gcd

from hypothesis import given, settings, strategies as st

from heavenly.jetcore import Point, point
from heavenly.polynomials import Poly

from poly_oracle import DictPoly

CHART = "second"
COORDS = ("w", "z", "x", "y")
EXPONENTS = st.tuples(*[st.integers(0, 3)] * 4)
COEFFS = st.one_of(st.integers(-6, 6),
                   st.fractions(min_value=-5, max_value=5, max_denominator=12))
TERMS = st.dictionaries(EXPONENTS, COEFFS, max_size=6)
SMALL_TERMS = st.dictionaries(EXPONENTS, COEFFS, max_size=3)
NAMES = st.sampled_from(COORDS)
VALUES = st.tuples(*[st.fractions(min_value=-4, max_value=4, max_denominator=9)] * 4)


def both(terms):
    return Poly(CHART, terms), DictPoly(CHART, terms)


def assert_normal(p: Poly):
    nums, den = p.numerators()
    assert type(den) is int and den > 0
    assert all(type(c) is int and c for c in nums.values())
    assert gcd(den, *nums.values()) == 1


def assert_same(p: Poly, d: DictPoly):
    """Normal form, and the oracle's terms, equality, field tree and text."""
    assert_normal(p)
    assert dict(p.terms) == d.terms
    assert all(type(c) is F for c in p.terms.values())
    nums, den = p.numerators()
    assert {m: F(c, den) for m, c in nums.items()} == d.terms
    assert p == Poly(CHART, d.terms) and not p != Poly(CHART, d.terms)
    assert p.to_field().expr == d.to_field().expr
    assert str(p) == str(d)
    assert p.is_zero() == d.is_zero()


class TestAgainstTheOracle:
    @given(TERMS)
    @settings(max_examples=100, deadline=None)
    def test_construction(self, terms):
        assert_same(*both(terms))

    @given(TERMS, TERMS)
    @settings(max_examples=100, deadline=None)
    def test_ring_operations(self, a, b):
        (pa, da), (pb, db) = both(a), both(b)
        assert_same(pa + pb, da + db)
        assert_same(pa - pb, da - db)
        assert_same(-pa, -da)
        assert_same(pa * pb, da * db)

    @given(SMALL_TERMS, st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_power(self, a, n):
        p, d = both(a)
        assert_same(p ** n, d ** n)

    @given(TERMS, COEFFS)
    @settings(max_examples=100, deadline=None)
    def test_scale(self, a, k):
        p, d = both(a)
        assert_same(p.scale(k), d.scale(k))

    @given(TERMS, NAMES)
    @settings(max_examples=100, deadline=None)
    def test_calculus_and_queries(self, a, name):
        p, d = both(a)
        assert_same(p.diff(name), d.diff(name))
        assert_same(p.integrate(name), d.integrate(name))
        assert_same(p.without(name), d.without(name))
        assert p.depends_on(name) == d.depends_on(name)

    @given(TERMS, VALUES)
    @settings(max_examples=100, deadline=None)
    def test_eval(self, a, values):
        p, d = both(a)
        for pt in (point(CHART, *values), Point(CHART, tuple(float(v) for v in values))):
            got = p.eval(pt)
            assert type(got) is F and got == d.eval(pt)

    @given(NAMES, COEFFS)
    @settings(max_examples=30, deadline=None)
    def test_constructors(self, name, c):
        assert_same(Poly.zero(CHART), DictPoly.zero(CHART))
        assert_same(Poly.constant(c, CHART), DictPoly.constant(c, CHART))
        assert_same(Poly.coordinate(name, CHART), DictPoly.coordinate(name, CHART))


class TestNormalForm:
    """Equal values built by different routes compare equal."""

    @given(TERMS, TERMS, TERMS)
    @settings(max_examples=60, deadline=None)
    def test_ring_identities(self, a, b, c):
        pa, pb, pc = Poly(CHART, a), Poly(CHART, b), Poly(CHART, c)
        assert (pa + pb) * pc == pa * pc + pb * pc
        assert pa * pb == pb * pa
        assert pa - pa == Poly.zero(CHART) and (pa - pa).is_zero()
        assert (pa + pb) - pb == pa
        assert pa ** 2 == pa * pa

    @given(TERMS, COEFFS.filter(bool), NAMES)
    @settings(max_examples=60, deadline=None)
    def test_inverse_routes(self, a, k, name):
        p = Poly(CHART, a)
        assert p.scale(k).scale(1 / F(k)) == p
        assert p.integrate(name).diff(name) == p
        assert Poly(CHART, dict(p.terms)) == p
        assert p.without(name) + (p - p.without(name)) == p

    def test_halves_reduce(self):
        half = Poly(CHART, {(1, 0, 0, 0): F(1, 2)})
        one = half + half
        assert one == Poly.coordinate("w", CHART)
        assert one.numerators()[1] == 1
        assert (half.scale(2) - Poly.coordinate("w", CHART)).numerators() == ({}, 1)
