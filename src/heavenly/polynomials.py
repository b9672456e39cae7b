"""Exact polynomials over the rationals.

The recursion operator on the flat background, the twistor series solver and
the boundary symplectic pairing all need ring operations, antiderivatives and
box integrals that stay exact; :class:`Poly` is a minimal dense-free (dict
keyed by exponent tuples) implementation specialised to those needs.

Univariate polynomials (the sigma-coefficient tables of the curved chain and
the numerators and denominators of the residue transform) are plain tuples of
rationals in ascending powers, trimmed of trailing zeros, with the ``uni_*``
functions below as their arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import jetcore
from .jetcore import Expr, Point, chart_coords


@dataclass(frozen=True)
class Poly:
    """Polynomial over a chart: exponent tuple -> rational coefficient."""

    chart: str
    terms: dict[tuple[int, ...], Fraction] = field(default_factory=dict)

    def __post_init__(self):
        clean = {m: Fraction(c) for m, c in self.terms.items() if c != 0}
        object.__setattr__(self, "terms", clean)

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero(chart: str) -> "Poly":
        return Poly(chart, {})

    @staticmethod
    def constant(c, chart: str) -> "Poly":
        n = len(chart_coords(chart))
        return Poly(chart, {(0,) * n: Fraction(c)})

    @staticmethod
    def coordinate(name: str, chart: str) -> "Poly":
        coords = chart_coords(chart)
        i = coords.index(name)
        mon = tuple(1 if j == i else 0 for j in range(len(coords)))
        return Poly(chart, {mon: Fraction(1)})

    # -- ring operations ----------------------------------------------------
    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return Poly(self.chart, out)

    def __sub__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) - c
        return Poly(self.chart, out)

    def __neg__(self) -> "Poly":
        return Poly(self.chart, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        out: dict[tuple[int, ...], Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return Poly(self.chart, out)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        acc = Poly.constant(1, self.chart)
        for _ in range(n):
            acc = acc * self
        return acc

    def scale(self, k) -> "Poly":
        k = Fraction(k)
        return Poly(self.chart, {m: c * k for m, c in self.terms.items()})

    # -- calculus ------------------------------------------------------------
    def _axis(self, name: str) -> int:
        return chart_coords(self.chart).index(name)

    def diff(self, name: str) -> "Poly":
        i = self._axis(name)
        out: dict[tuple[int, ...], Fraction] = {}
        for m, c in self.terms.items():
            if m[i] == 0:
                continue
            m2 = m[:i] + (m[i] - 1,) + m[i + 1:]
            out[m2] = out.get(m2, Fraction(0)) + c * m[i]
        return Poly(self.chart, out)

    def integrate(self, name: str) -> "Poly":
        """Antiderivative with zero constant term in ``name``."""
        i = self._axis(name)
        out = {}
        for m, c in self.terms.items():
            m2 = m[:i] + (m[i] + 1,) + m[i + 1:]
            out[m2] = c / (m[i] + 1)
        return Poly(self.chart, out)

    def without(self, name: str) -> "Poly":
        """The part of the polynomial free of ``name``."""
        i = self._axis(name)
        return Poly(self.chart, {m: c for m, c in self.terms.items() if m[i] == 0})

    def definite_integral(self, name: str, a, b) -> "Poly":
        anti = self.integrate(name)
        return anti.substitute_value(name, b) - anti.substitute_value(name, a)

    def substitute_value(self, name: str, v) -> "Poly":
        i = self._axis(name)
        v = Fraction(v)
        out: dict[tuple[int, ...], Fraction] = {}
        for m, c in self.terms.items():
            m2 = m[:i] + (0,) + m[i + 1:]
            out[m2] = out.get(m2, Fraction(0)) + c * v ** m[i]
        return Poly(self.chart, out)

    # -- queries --------------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def constant_value(self) -> Fraction:
        n = len(chart_coords(self.chart))
        return self.terms.get((0,) * n, Fraction(0))

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


# ---------------------------------------------------------------------------
# univariate polynomials

UniPoly = tuple[Fraction, ...]  # coefficient of t^k at index k; the zero polynomial is ()


def _trimmed(coeffs: list) -> UniPoly:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def uni(coeffs) -> UniPoly:
    """A univariate polynomial from any coefficient sequence in ascending powers."""
    return _trimmed([Fraction(c) for c in coeffs])


def uni_add(a: UniPoly, b: UniPoly) -> UniPoly:
    out = list(a) + [Fraction(0)] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] += c
    return _trimmed(out)


def uni_mul(a: UniPoly, b: UniPoly) -> UniPoly:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trimmed(out)


def uni_scale(a: UniPoly, c: Fraction) -> UniPoly:
    return _trimmed([c * x for x in a])


def uni_eval(a: UniPoly, x: Fraction) -> Fraction:
    """Horner evaluation."""
    v = Fraction(0)
    for c in reversed(a):
        v = v * x + c
    return v


def uni_shift(a: UniPoly, c: Fraction) -> UniPoly:
    """Coefficients of a(c + t) as a polynomial in t (Horner-style Taylor shift)."""
    out: list[Fraction] = []
    for coeff in reversed(a):
        # out <- out * (c + t) + coeff
        new = [Fraction(0)] * (len(out) + 1)
        for i, v in enumerate(out):
            new[i] += c * v
            new[i + 1] += v
        new[0] += coeff
        out = new
    return _trimmed(out)


def uni_expr(a: UniPoly, var: str) -> Expr:
    """The polynomial as an expression in the symbol ``var``."""
    e: Expr = jetcore.ZERO
    for k, c in enumerate(a):
        if c == 0:
            continue
        term: Expr = jetcore.const(c)
        if k:
            term = jetcore.mul(term, jetcore.pow_(jetcore.Var(var), k))
        e = jetcore.add(e, term)
    return e
