"""The jet power the package used before a jet kept its reciprocal and squarings,
kept as a test oracle for ``heavenly.jetcore.Jet.__pow__``.

Square-and-multiply from the constant 1: every call inverts its base afresh
for a negative exponent, multiplies the first power used by the constant 1
and takes one squaring past the top bit.  ``Jet.__pow__`` must give the same
exact values and, in float mode, the same bits in every read-out (a product
by the constant 1 only turned a stored -0.0 into 0.0, which read-outs do
too).  Nothing in ``src/`` imports it.
"""

from __future__ import annotations

from heavenly.jetcore import Jet


def power(x: Jet, n: int) -> Jet:
    """x^n by the old square-and-multiply, with a freshly computed inverse for n < 0."""
    if n < 0:
        return power(x._invert(), -n)
    acc = Jet.constant(1, x.center, x.order)
    base = x
    k = n
    while k:
        if k & 1:
            acc = acc * base
        base = base * base
        k >>= 1
    return acc
