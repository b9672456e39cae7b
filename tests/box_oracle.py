"""Box integrals by iterated antiderivatives, kept as a test oracle for ``heavenly.symplectic``.

This is how the package integrated over the box [a, b]^4 before it used the
closed form: restrict to a face by substituting the fixed coordinate, then
take an antiderivative in each remaining coordinate and evaluate it between
the ends, one coordinate at a time.  It is slow and obviously correct, which
is what an oracle should be.  Nothing in ``src/`` imports it.
"""

from __future__ import annotations

from fractions import Fraction

from heavenly.polynomials import Poly
from heavenly.symplectic import COORDS, BoundaryBox, ThreeForm


def substitute_value(poly: Poly, name: str, v) -> Poly:
    """The polynomial with the coordinate ``name`` set to the number ``v``."""
    i = COORDS.index(name)
    v = Fraction(v)
    out: dict[tuple[int, ...], Fraction] = {}
    for m, c in poly.terms.items():
        m2 = m[:i] + (0,) + m[i + 1:]
        out[m2] = out.get(m2, Fraction(0)) + c * v ** m[i]
    return Poly(poly.chart, out)


def definite_integral(poly: Poly, name: str, a, b) -> Poly:
    anti = poly.integrate(name)
    return substitute_value(anti, name, b) - substitute_value(anti, name, a)


def _integrate_over_cube(poly: Poly, axes, a, b) -> Fraction:
    for name in axes:
        poly = definite_integral(poly, name, a, b)
    return poly.terms.get((0, 0, 0, 0), Fraction(0))


def boundary_integral(eta: ThreeForm, box: BoundaryBox) -> Fraction:
    total = Fraction(0)
    for k, comp in enumerate(eta.components):
        others = [c for i, c in enumerate(COORDS) if i != k]
        sign = 1 if k % 2 == 0 else -1
        top = _integrate_over_cube(substitute_value(comp, COORDS[k], box.b), others, box.a, box.b)
        bottom = _integrate_over_cube(substitute_value(comp, COORDS[k], box.a), others,
                                      box.a, box.b)
        total += sign * (top - bottom)
    return total


def volume_integral(poly: Poly, box: BoundaryBox) -> Fraction:
    return _integrate_over_cube(poly, COORDS, box.a, box.b)
