"""The jet product the package used before a constant factor was taken as a
scaling, kept as a test oracle for ``heavenly.jetcore.Jet.__mul__``.

Every product runs the sum over rows: the sparser factor drives the outer
loop, each x * y is added to a zero output slot, and zero coefficients are
skipped.  ``Jet.__mul__`` must store the same numerators and denominator, and
in float mode the same floats, the sign of a zero and of an infinity
included, and a nan where the loop gives one.  Nothing in ``src/`` imports it.
"""

from __future__ import annotations

from heavenly.jetcore import Jet


def product(self: Jet, other: Jet) -> Jet:
    """self * other by the sum over rows, whatever the factors."""
    self._check(other)
    a, b = self._c, other._c
    outer = [(i, x) for i, x in enumerate(a) if x]
    inner = [(k, y) for k, y in enumerate(b) if y]
    if len(inner) < len(outer):
        outer, inner = inner, outer
    rows = self._layout.rows
    out = [0.0 if self.mode == "float" else 0] * len(a)
    for i, x in outer:
        row = rows[i]
        end = len(row)
        for k, y in inner:
            if k >= end:
                break
            out[row[k]] += x * y
    return self._like(out, self._den * other._den)
