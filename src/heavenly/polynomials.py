"""Exact polynomials over the rationals.

The recursion operator on the flat background, the twistor series solver and
the boundary symplectic pairing all need ring operations and antiderivatives
that stay exact; :class:`Poly` is a minimal sparse implementation specialised
to those needs.  As a ``Jet`` stores an exact jet, a ``Poly`` stores one
integer numerator per monomial (a dict keyed by exponent tuples) over one
positive denominator, coprime to the numerators, and keeps no zero
numerator.  That is a normal form, so equal polynomials have equal fields.
Every operation works on integers and divides by one gcd per result.
``Poly.numerators`` reads the integers out, for callers that sum in integers
and divide once; ``Poly.terms`` reads the coefficients back as ``Fraction``s.

``Poly`` is the package's only polynomial type.  A rational function of lam,
``twistor.RatLambda``, holds its numerator and denominator as ``Poly``s on the
one-coordinate chart ``lam``, so the package has one polynomial product, one
power and one normal form; the sigma tables of the curved chain hold numbers
(``recursion.coeff_A``).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import add
from types import MappingProxyType
from typing import Mapping

from . import jetcore
from .jetcore import Expr, Point, chart_coords


def _times(a: dict, b: dict) -> dict:
    """The product of two numerator dicts, zero numerators dropped."""
    out: dict[tuple[int, ...], int] = {}
    get = out.get
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(map(add, m1, m2))
            out[m] = get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


class Poly:
    """Polynomial over a chart: exponent tuple -> integer numerator, over one denominator."""

    __slots__ = ("chart", "_nums", "_denom", "_view")

    def __init__(self, chart: str, terms: Mapping[tuple[int, ...], object] | None = None):
        coeffs = [(m, c if isinstance(c, (int, Fraction)) else Fraction(c))
                  for m, c in (terms or {}).items()]
        coeffs = [(m, c) for m, c in coeffs if c]
        den = lcm(*(c.denominator for _, c in coeffs))
        # the lcm of reduced denominators leaves the numerators coprime to it
        self.chart = chart
        self._nums = {m: c.numerator * (den // c.denominator) for m, c in coeffs}
        self._denom = den

    @staticmethod
    def _reduced(chart: str, nums: dict, den: int) -> "Poly":
        """The polynomial nums/den; ``nums`` has no zero and ``den`` > 0, one gcd divides both."""
        g = gcd(den, *nums.values()) if den != 1 else 1
        if g != 1:
            nums = {m: c // g for m, c in nums.items()}
            den //= g
        out = object.__new__(Poly)
        out.chart, out._nums, out._denom = chart, nums, den
        return out

    # -- read-outs -------------------------------------------------------------
    @property
    def terms(self) -> Mapping[tuple[int, ...], Fraction]:
        """Read-only exponent tuple -> ``Fraction`` coefficient mapping of the nonzero terms."""
        try:
            return self._view
        except AttributeError:
            den = self._denom
            self._view = MappingProxyType({m: Fraction(c, den) for m, c in self._nums.items()})
            return self._view

    def numerators(self) -> tuple[Mapping[tuple[int, ...], int], int]:
        """The nonzero integer numerators by exponent tuple, and their one denominator.

        The denominator is positive and coprime to the numerators, so sums of
        products of them stay integers and a result is divided once.
        """
        return MappingProxyType(self._nums), self._denom

    def __eq__(self, other) -> bool:
        if other.__class__ is not Poly:
            return NotImplemented
        return (self.chart == other.chart and self._denom == other._denom
                and self._nums == other._nums)

    def __repr__(self) -> str:
        return f"Poly({self.chart!r}, {dict(self.terms)!r})"

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero(chart: str) -> "Poly":
        return Poly(chart)

    @staticmethod
    def constant(c, chart: str) -> "Poly":
        n = len(chart_coords(chart))
        return Poly(chart, {(0,) * n: c})

    @staticmethod
    def coordinate(name: str, chart: str) -> "Poly":
        coords = chart_coords(chart)
        i = coords.index(name)
        mon = tuple(1 if j == i else 0 for j in range(len(coords)))
        return Poly(chart, {mon: 1})

    # -- ring operations ----------------------------------------------------
    def _sum(self, other: "Poly", sign: int) -> "Poly":
        """self + sign * other over the lcm of the two denominators."""
        da, db = self._denom, other._denom
        g = gcd(da, db)
        ma, mb = db // g, sign * (da // g)
        out = {m: c * ma for m, c in self._nums.items()} if ma != 1 else dict(self._nums)
        get = out.get
        for m, c in other._nums.items():
            out[m] = get(m, 0) + c * mb
        return Poly._reduced(self.chart, {m: c for m, c in out.items() if c}, da * ma)

    def __add__(self, other: "Poly") -> "Poly":
        return self._sum(other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._sum(other, -1)

    def __neg__(self) -> "Poly":
        return Poly._reduced(self.chart, {m: -c for m, c in self._nums.items()}, self._denom)

    def __mul__(self, other: "Poly") -> "Poly":
        return Poly._reduced(self.chart, _times(self._nums, other._nums),
                             self._denom * other._denom)

    def __pow__(self, n: int) -> "Poly":
        """self^n by square-and-multiply on the numerators, divided once."""
        if n < 0:
            raise ValueError("negative power of a polynomial")
        acc, base, k = {(0,) * len(chart_coords(self.chart)): 1}, self._nums, n
        while k:
            if k & 1:
                acc = _times(acc, base)
            k >>= 1
            if k:
                base = _times(base, base)
        return Poly._reduced(self.chart, acc, self._denom ** n)

    def scale(self, k) -> "Poly":
        k = Fraction(k)
        if not k:
            return Poly(self.chart)
        num = k.numerator
        return Poly._reduced(self.chart, {m: c * num for m, c in self._nums.items()},
                             self._denom * k.denominator)

    # -- calculus ------------------------------------------------------------
    def _axis(self, name: str) -> int:
        return chart_coords(self.chart).index(name)

    def diff(self, name: str) -> "Poly":
        i = self._axis(name)
        # lowering a nonzero exponent is one-to-one, so no two terms meet
        out = {m[:i] + (m[i] - 1,) + m[i + 1:]: c * m[i]
               for m, c in self._nums.items() if m[i]}
        return Poly._reduced(self.chart, out, self._denom)

    def integrate(self, name: str) -> "Poly":
        """Antiderivative with zero constant term in ``name``."""
        i = self._axis(name)
        nums = self._nums
        scale = lcm(*{m[i] + 1 for m in nums})
        out = {m[:i] + (m[i] + 1,) + m[i + 1:]: c * (scale // (m[i] + 1))
               for m, c in nums.items()}
        return Poly._reduced(self.chart, out, self._denom * scale)

    def without(self, name: str) -> "Poly":
        """The part of the polynomial free of ``name``."""
        i = self._axis(name)
        return Poly._reduced(self.chart, {m: c for m, c in self._nums.items() if m[i] == 0},
                             self._denom)

    # -- queries --------------------------------------------------------------
    def is_zero(self) -> bool:
        return not self._nums

    def depends_on(self, name: str) -> bool:
        i = self._axis(name)
        return any(m[i] for m in self._nums)

    def eval(self, p: Point) -> Fraction:
        """The exact value at ``p`` (a float coordinate counts as the rational it is)."""
        if p.chart != self.chart:
            raise ValueError("point chart mismatch")
        xs = [Fraction(x) for x in p.values]
        nums = self._nums
        tops = [max((m[j] for m in nums), default=0) for j in range(len(xs))]
        # each monomial over the common denominator prod q_j^top_j of the coordinates
        total = sum(c * prod(x.numerator ** e * x.denominator ** (t - e)
                             for x, e, t in zip(xs, m, tops))
                    for m, c in nums.items())
        return Fraction(total, self._denom * prod(x.denominator ** t for x, t in zip(xs, tops)))

    def to_field(self) -> jetcore.ScalarField:
        coords = chart_coords(self.chart)
        e: Expr = jetcore.ZERO
        for m, c in sorted(self.terms.items()):
            t: Expr = jetcore.const(c)
            for name, k in zip(coords, m):
                if k:
                    t = jetcore.mul(t, jetcore.pow_(jetcore.Var(name), k))
            e = jetcore.add(e, t)
        return jetcore.ScalarField(self.chart, e)

    def __str__(self):
        return str(self.to_field())

