"""Polynomials over ``Fraction`` coefficients, kept as test oracles for ``heavenly.polynomials.Poly``.

``DictPoly`` is the polynomial the package used before it stored integer
numerators over one denominator: one ``Fraction`` per monomial, every
operation term by term in ``Fraction`` arithmetic.  ``TupleRatLambda`` is
the rational function of lam that ``twistor.RatLambda`` was before its
numerator and denominator became ``Poly``s: ``Fraction`` tuples in ascending
powers of lam, trimmed of trailing zeros, multiplied coefficient by
coefficient, with its residue and its fold on the flat curve.  Both are slow
and obviously correct, which is what an oracle should be.  Nothing in
``src/`` imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import zip_longest

from heavenly import jetcore
from heavenly.jetcore import Const, Expr, Point, Program, chart_coords


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


# ---------------------------------------------------------------------------
# rational functions of lam as Fraction tuples

def _trimmed(coeffs) -> tuple[Fraction, ...]:
    """Coefficients in ascending powers of lam as ``Fraction``s, trailing zeros dropped."""
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _times(a: tuple, b: tuple) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        if x:   # lam^k is mostly zeros
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _shifted(a: tuple, c: Fraction, m: int | None = None) -> list[Fraction]:
    """The coefficients of a(c + t) in ascending powers of t (Horner-style Taylor
    shift), only the first m of them if m is given."""
    out: list[Fraction] = []
    for coeff in reversed(a):
        new = [c * v for v in out]
        new.append(Fraction(0))
        for i, v in enumerate(out):
            new[i + 1] += v
        new[0] += coeff
        out = new[:m]
    return out


class TupleRatLambda:
    """Univariate rational function in lam, numerator and denominator ``Fraction`` tuples."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num, self.den = _trimmed(num), _trimmed(den)
        if not self.den:
            raise ZeroDivisionError("zero denominator")

    @staticmethod
    def constant(c) -> "TupleRatLambda":
        return TupleRatLambda((c,), (1,))

    @staticmethod
    def lam() -> "TupleRatLambda":
        return TupleRatLambda((0, 1), (1,))

    def __add__(self, o):
        terms = zip_longest(_times(self.num, o.den), _times(o.num, self.den), fillvalue=0)
        return TupleRatLambda([x + y for x, y in terms], _times(self.den, o.den))

    def __sub__(self, o):
        return self + -o

    def __mul__(self, o):
        return TupleRatLambda(_times(self.num, o.num), _times(self.den, o.den))

    def __truediv__(self, o):
        if not o.num:
            raise ZeroDivisionError("division by identically zero rational function")
        return TupleRatLambda(_times(self.num, o.den), _times(self.den, o.num))

    def __pow__(self, k: int):
        """f^k by square-and-multiply, f^-k as (1/f)^k."""
        if k < 0:
            return TupleRatLambda(self.den, self.num) ** (-k)
        out, base = TupleRatLambda.constant(1), self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __neg__(self):
        return TupleRatLambda([-c for c in self.num], self.den)


def tuple_residue_at(f: TupleRatLambda, pole: Fraction) -> Fraction:
    """Residue of f dlam at lam = pole; 0 at a regular point."""
    den = _shifted(f.den, pole)
    m = next(i for i, c in enumerate(den) if c)
    if m == 0:
        return Fraction(0)
    num = _shifted(f.num, pole, m)
    den_red = den[m:]
    order = m - 1
    inv = [Fraction(0)] * (order + 1)
    inv[0] = 1 / den_red[0]
    for i in range(1, order + 1):
        s = Fraction(0)
        for j in range(1, i + 1):
            if j < len(den_red):
                s += den_red[j] * inv[i - j]
        inv[i] = -s / den_red[0]
    res = Fraction(0)
    for i, c in enumerate(num):
        res += c * inv[order - i]
    return res


def tuple_on_flat_curve(f: Program, p: Point) -> TupleRatLambda:
    """f(lam, mu0, mu1), compiled, on the flat curve (w + lam y, z - lam x) at p."""
    wv, zv, xv, yv = (Fraction(v) for v in p.values)
    env = {"lam": TupleRatLambda.lam(), "mu0": TupleRatLambda((wv, yv), (1,)),
           "mu1": TupleRatLambda((zv, -xv), (1,))}
    return f.run(lambda e: TupleRatLambda.constant(e.value) if isinstance(e, Const)
                 else env[e.name])[0]


def lam_coefficients(p) -> tuple[Fraction, ...]:
    """A ``Poly`` on the chart ``lam``'s coefficients in ascending powers, as a
    ``TupleRatLambda`` holds them."""
    terms = p.terms
    return tuple(terms.get((k,), Fraction(0)) for k in range(degree_of(p) + 1))


def degree_of(p) -> int:
    """The degree of a ``Poly`` on the chart ``lam`` (-1 for zero)."""
    return max((k for (k,) in p.terms), default=-1)
