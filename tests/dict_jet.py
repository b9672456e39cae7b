"""The dictionary-of-Fractions jet kernel, kept as a test oracle for ``heavenly.jetcore.Jet``.

This is the jet arithmetic the package used before its dense kernel: a jet is
a dict from multi-index tuples to Taylor coefficients, multiplied term pair by
term pair, inverted by a geometric series.  It is slow and obviously correct,
which is what an oracle should be.  Nothing in ``src/`` imports it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial

from heavenly.jetcore import MAX_ORDER, Number, Point, chart_coords


def partials(names: tuple[str, ...], order: int) -> list[tuple[str, ...]]:
    """Every partial through ``order`` as a sorted tuple of coordinate names, lowest degree first."""
    return [p for k in range(order + 1) for p in combinations_with_replacement(names, k)]


def _alpha_factorial(alpha: tuple[int, ...]) -> int:
    f = 1
    for a in alpha:
        f *= factorial(a)
    return f


class DictJet:
    """Truncated Taylor expansion of a scalar field at a point.

    ``coeffs`` maps a multi-index alpha (one exponent per chart coordinate)
    to the Taylor coefficient d^alpha f / alpha!.  Missing entries are zero.
    Mixed-partial symmetry is structural: there is one slot per multi-index.
    """

    __slots__ = ("center", "order", "coeffs", "mode")

    def __init__(self, center: Point, order: int, coeffs: dict[tuple[int, ...], Number],
                 mode: str | None = None):
        if order < 0 or order > MAX_ORDER:
            raise ValueError(f"jet order must be in 0..{MAX_ORDER}, got {order}")
        self.center = center
        self.order = order
        self.coeffs = {a: c for a, c in coeffs.items() if c != 0}
        self.mode = mode if mode is not None else center.mode

    # -- constructors ------------------------------------------------------
    @staticmethod
    def constant(value: Number, center: Point, order: int) -> "DictJet":
        mode = center.mode
        v = float(value) if mode == "float" else Fraction(value)
        return DictJet(center, order, {(0,) * len(center.values): v} if v != 0 else {}, mode)

    @staticmethod
    def coordinate(index: int, center: Point, order: int) -> "DictJet":
        n = len(center.values)
        coeffs: dict[tuple[int, ...], Number] = {(0,) * n: center.values[index]}
        if order >= 1:
            one = 1.0 if center.mode == "float" else Fraction(1)
            unit = tuple(1 if i == index else 0 for i in range(n))
            coeffs[unit] = one
        return DictJet(center, order, coeffs, center.mode)

    # -- access ------------------------------------------------------------
    @property
    def nvars(self) -> int:
        return len(self.center.values)

    @property
    def value(self) -> Number:
        zero = 0.0 if self.mode == "float" else Fraction(0)
        return self.coeffs.get((0,) * self.nvars, zero)

    def coefficient(self, alpha: tuple[int, ...]) -> Number:
        zero = 0.0 if self.mode == "float" else Fraction(0)
        return self.coeffs.get(tuple(alpha), zero)

    def derivative(self, alpha: tuple[int, ...]) -> Number:
        """d^alpha f at the center (Taylor coefficient times alpha!)."""
        if sum(alpha) > self.order:
            raise ValueError(f"jet of order {self.order} has no |alpha|={sum(alpha)} data")
        return self.coefficient(alpha) * _alpha_factorial(tuple(alpha))

    def d(self, *names: str) -> Number:
        """The derivative by coordinate names of the chart: ``d("x", "w")`` is d_x d_w f."""
        coords = chart_coords(self.center.chart)
        alpha = [0] * len(coords)
        for name in names:
            alpha[coords.index(name)] += 1
        return self.derivative(tuple(alpha))

    def grad(self) -> tuple[Number, ...]:
        """The first partials at the center, in chart order."""
        n = self.nvars
        zeros = (0,) * n
        return tuple(self.derivative(zeros[:k] + (1,) + zeros[k + 1:]) for k in range(n))

    def partial(self, *names: str) -> "DictJet":
        """The jet of the derivative by coordinate names, through ``order - len(names)``:
        its coefficient at gamma is this jet's at alpha = beta + gamma times
        alpha!/gamma!, beta the names' multi-index."""
        if len(names) > self.order:
            raise ValueError(f"jet of order {self.order} has no |alpha|={len(names)} data")
        coords = chart_coords(self.center.chart)
        beta = [0] * len(coords)
        for name in names:
            beta[coords.index(name)] += 1
        out = {}
        for alpha, c in self.coeffs.items():
            gamma = tuple(a - b for a, b in zip(alpha, beta))
            if min(gamma) >= 0:
                out[gamma] = c * (_alpha_factorial(alpha) // _alpha_factorial(gamma))
        return DictJet(self.center, self.order - len(names), out, self.mode)

    # -- arithmetic --------------------------------------------------------
    def _check(self, other: "DictJet"):
        if self.center != other.center or self.order != other.order or self.mode != other.mode:
            raise ValueError("jet center/order/mode mismatch")

    def __add__(self, other: "DictJet") -> "DictJet":
        self._check(other)
        out = dict(self.coeffs)
        for a, c in other.coeffs.items():
            out[a] = out.get(a, 0) + c
        return DictJet(self.center, self.order, out, self.mode)

    def __sub__(self, other: "DictJet") -> "DictJet":
        self._check(other)
        out = dict(self.coeffs)
        for a, c in other.coeffs.items():
            out[a] = out.get(a, 0) - c
        return DictJet(self.center, self.order, out, self.mode)

    def __neg__(self) -> "DictJet":
        return DictJet(self.center, self.order, {a: -c for a, c in self.coeffs.items()}, self.mode)

    def __mul__(self, other: "DictJet") -> "DictJet":
        self._check(other)
        order = self.order
        out: dict[tuple[int, ...], Number] = {}
        for a, ca in self.coeffs.items():
            da = sum(a)
            for b, cb in other.coeffs.items():
                if da + sum(b) > order:
                    continue
                g = tuple(i + j for i, j in zip(a, b))
                out[g] = out.get(g, 0) + ca * cb
        return DictJet(self.center, order, out, self.mode)

    def scale(self, k: Number) -> "DictJet":
        return DictJet(self.center, self.order, {a: c * k for a, c in self.coeffs.items()}, self.mode)

    def reciprocal(self) -> "DictJet":
        v = self.value
        if v == 0:
            raise ZeroDivisionError("division by zero-valued jet")
        inv = 1.0 / v if self.mode == "float" else Fraction(1) / v
        # u = 1 - f/v is nilpotent to order+1; 1/f = (1/v) sum u^k
        u = DictJet.constant(1, self.center, self.order) - self.scale(inv)
        acc = DictJet.constant(1, self.center, self.order)
        power = DictJet.constant(1, self.center, self.order)
        for _ in range(self.order):
            power = power * u
            if not power.coeffs:
                break
            acc = acc + power
        return acc.scale(inv)

    def __truediv__(self, other: "DictJet") -> "DictJet":
        self._check(other)
        return self * other.reciprocal()

    def __pow__(self, n: int) -> "DictJet":
        if n < 0:
            return self.reciprocal() ** (-n)
        acc = DictJet.constant(1, self.center, self.order)
        base = self
        k = n
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def __repr__(self):
        return f"DictJet(order={self.order}, value={self.value!r}, nterms={len(self.coeffs)})"

