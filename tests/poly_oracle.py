"""The dictionary-of-Fractions polynomial, kept as a test oracle for ``heavenly.polynomials.Poly``.

This is the polynomial the package used before it stored integer numerators
over one denominator: one ``Fraction`` per monomial, every operation term by
term in ``Fraction`` arithmetic.  It is slow and obviously correct, which is
what an oracle should be.  ``uni_eval``, Horner evaluation of a univariate
coefficient tuple (a ``twistor.RatLambda``'s numerator or denominator), lives
here too: no subcommand evaluates one.  Nothing in
``src/`` imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from heavenly import jetcore
from heavenly.jetcore import Expr, Point, chart_coords


@dataclass(frozen=True)
class DictPoly:
    """Polynomial over a chart: exponent tuple -> rational coefficient."""

    chart: str
    terms: dict[tuple[int, ...], Fraction] = field(default_factory=dict)

    def __post_init__(self):
        clean = {m: Fraction(c) for m, c in self.terms.items() if c != 0}
        object.__setattr__(self, "terms", clean)

    @staticmethod
    def zero(chart: str) -> "DictPoly":
        return DictPoly(chart, {})

    @staticmethod
    def constant(c, chart: str) -> "DictPoly":
        n = len(chart_coords(chart))
        return DictPoly(chart, {(0,) * n: Fraction(c)})

    @staticmethod
    def coordinate(name: str, chart: str) -> "DictPoly":
        coords = chart_coords(chart)
        i = coords.index(name)
        mon = tuple(1 if j == i else 0 for j in range(len(coords)))
        return DictPoly(chart, {mon: Fraction(1)})

    def __add__(self, other: "DictPoly") -> "DictPoly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return DictPoly(self.chart, out)

    def __sub__(self, other: "DictPoly") -> "DictPoly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) - c
        return DictPoly(self.chart, out)

    def __neg__(self) -> "DictPoly":
        return DictPoly(self.chart, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "DictPoly") -> "DictPoly":
        out: dict[tuple[int, ...], Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return DictPoly(self.chart, out)

    def __pow__(self, n: int) -> "DictPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        acc = DictPoly.constant(1, self.chart)
        for _ in range(n):
            acc = acc * self
        return acc

    def scale(self, k) -> "DictPoly":
        k = Fraction(k)
        return DictPoly(self.chart, {m: c * k for m, c in self.terms.items()})

    def _axis(self, name: str) -> int:
        return chart_coords(self.chart).index(name)

    def diff(self, name: str) -> "DictPoly":
        i = self._axis(name)
        out: dict[tuple[int, ...], Fraction] = {}
        for m, c in self.terms.items():
            if m[i] == 0:
                continue
            m2 = m[:i] + (m[i] - 1,) + m[i + 1:]
            out[m2] = out.get(m2, Fraction(0)) + c * m[i]
        return DictPoly(self.chart, out)

    def integrate(self, name: str) -> "DictPoly":
        i = self._axis(name)
        out = {}
        for m, c in self.terms.items():
            m2 = m[:i] + (m[i] + 1,) + m[i + 1:]
            out[m2] = c / (m[i] + 1)
        return DictPoly(self.chart, out)

    def without(self, name: str) -> "DictPoly":
        i = self._axis(name)
        return DictPoly(self.chart, {m: c for m, c in self.terms.items() if m[i] == 0})

    def is_zero(self) -> bool:
        return not self.terms

    def depends_on(self, name: str) -> bool:
        i = self._axis(name)
        return any(m[i] for m in self.terms)

    def eval(self, p: Point) -> Fraction:
        if p.chart != self.chart:
            raise ValueError("point chart mismatch")
        total = Fraction(0)
        for m, c in self.terms.items():
            v = c
            for e, x in zip(m, p.values):
                v *= Fraction(x) ** e
            total += v
        return total

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


def uni_eval(a: tuple[Fraction, ...], x: Fraction) -> Fraction:
    """Horner evaluation of coefficients in ascending powers."""
    v = Fraction(0)
    for c in reversed(a):
        v = v * x + c
    return v
