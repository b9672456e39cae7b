"""Exact truncated-Taylor (jet) arithmetic over a small rational expression language.

Every geometric check in this package reduces to evaluating scalar fields and
their partial derivatives at rational points.  Fields are rational-function
expression trees over the coordinates of a chart (plus the free parameter
``sigma``); evaluation propagates truncated multivariate Taylor polynomials
("jets") through the tree, so derivatives come out exact when the inputs are
exact rationals.  The tree walk itself is :func:`fold`, which evaluates a tree
in any ring (jets here, rational functions of the fibre coordinate in the
residue transform).  A second, independent route — symbolic differentiation of
the expression tree followed by plain evaluation — is provided by
:func:`partial` and is used to cross-check the jet route.

Two numeric modes exist.  In exact mode all coefficients are
:class:`fractions.Fraction`; a residual is zero iff it is *exactly* zero.
Float mode runs the same algorithms in double precision and is only used for
tolerance-based reporting.  A mode never changes silently inside one
computation: it is fixed by the evaluation point.

Expressions, points, fields and jets are immutable after construction and
evaluation is pure, so independent points may be evaluated concurrently.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable, Mapping, TypeVar, Union

Number = Union[Fraction, float]
_Ring = TypeVar("_Ring")

DEFAULT_ORDER = 4
MAX_ORDER = 6

# ---------------------------------------------------------------------------
# charts

CHARTS: dict[str, tuple[str, ...]] = {
    # second potential chart
    "second": ("w", "z", "x", "y"),
    # first potential chart; wt/zt are the tilded partners of w/z
    "first": ("w", "z", "wt", "zt"),
    # null plane-wave chart
    "plane-wave": ("w", "z", "q", "p"),
    # rational functions of a twistor fibre coordinate and the two curve components
    "twistor-function": ("lam", "mu0", "mu1"),
}


def extended_chart(n: int) -> str:
    """Register (if needed) and return the 2n+2 coordinate chart x^{Ai}, i=0..n."""
    if n < 1 or n > 9:
        raise ValueError(f"extended chart level must be in 1..9, got {n}")
    name = f"extended-{n}"
    if name not in CHARTS:
        CHARTS[name] = tuple(f"x{A}{i}" for i in range(n + 1) for A in (0, 1))
    return name


def chart_coords(chart: str) -> tuple[str, ...]:
    if chart.startswith("extended-"):
        extended_chart(int(chart.split("-")[1]))
    try:
        return CHARTS[chart]
    except KeyError:
        raise ValueError(f"unknown chart {chart!r}") from None


class EvaluationError(Exception):
    """Raised when a field cannot be evaluated at the requested point."""


class PoleError(EvaluationError):
    """A denominator vanished at the evaluation point."""

    def __init__(self, denominator_text: str):
        self.denominator_text = denominator_text
        super().__init__(f"denominator {denominator_text!r} vanishes at the point")


@dataclass(frozen=True)
class Point:
    """A chart point with rational (exact mode) or float coordinates."""

    chart: str
    values: tuple[Number, ...]

    def __post_init__(self):
        coords = chart_coords(self.chart)
        if len(self.values) != len(coords):
            raise ValueError(
                f"chart {self.chart!r} needs {len(coords)} coordinates, got {len(self.values)}"
            )
        if any(isinstance(v, float) for v in self.values):
            object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    @property
    def mode(self) -> str:
        return "float" if any(isinstance(v, float) for v in self.values) else "exact"

    def env(self) -> dict[str, Number]:
        return dict(zip(chart_coords(self.chart), self.values))

    def as_float(self) -> "Point":
        return Point(self.chart, tuple(float(v) for v in self.values))


def point(chart: str, *values: object) -> Point:
    """Convenience constructor accepting ints, Fractions, strings 'p/q' or floats."""
    conv: list[Number] = []
    for v in values:
        if isinstance(v, float):
            conv.append(v)
        else:
            conv.append(Fraction(v))  # type: ignore[arg-type]
    return Point(chart, tuple(conv))


# ---------------------------------------------------------------------------
# expressions

@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Const(Expr):
    value: Fraction


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Add(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Sub(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Mul(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Div(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Neg(Expr):
    a: Expr


ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))


def const(v) -> Const:
    return Const(Fraction(v))


def add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if a == ZERO:
        return b
    if b == ZERO:
        return a
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if b == ZERO:
        return a
    if a == ZERO:
        return neg(b)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    if a == ZERO or b == ZERO:
        return ZERO
    if a == ONE:
        return b
    if b == ONE:
        return a
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if isinstance(b, Const):
        if b.value == 0:
            raise ZeroDivisionError("division by the zero constant")
        if isinstance(a, Const):
            return Const(a.value / b.value)
        if b == ONE:
            return a
    if a == ZERO:
        return ZERO
    return Div(a, b)


def pow_(base: Expr, exponent: int) -> Expr:
    if exponent == 1:
        return base
    if exponent == 0:
        return ONE
    if isinstance(base, Const):
        if base.value == 0 and exponent < 0:
            raise ZeroDivisionError("zero to a negative power")
        return Const(base.value ** exponent)
    return Pow(base, exponent)


def neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


def free_vars(e: Expr) -> frozenset[str]:
    if isinstance(e, Const):
        return frozenset()
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, (Add, Sub, Mul, Div)):
        return free_vars(e.a) | free_vars(e.b)
    if isinstance(e, Pow):
        return free_vars(e.base)
    if isinstance(e, Neg):
        return free_vars(e.a)
    raise TypeError(type(e))


def substitute(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace variables by expressions (used for chart embeddings)."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return mapping.get(e.name, e)
    if isinstance(e, Add):
        return add(substitute(e.a, mapping), substitute(e.b, mapping))
    if isinstance(e, Sub):
        return sub(substitute(e.a, mapping), substitute(e.b, mapping))
    if isinstance(e, Mul):
        return mul(substitute(e.a, mapping), substitute(e.b, mapping))
    if isinstance(e, Div):
        return div(substitute(e.a, mapping), substitute(e.b, mapping))
    if isinstance(e, Pow):
        return pow_(substitute(e.base, mapping), e.exponent)
    if isinstance(e, Neg):
        return neg(substitute(e.a, mapping))
    raise TypeError(type(e))


def diff(e: Expr, var: str) -> Expr:
    """Symbolic derivative of the expression tree (quotient rule, no expansion)."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == var else ZERO
    if isinstance(e, Add):
        return add(diff(e.a, var), diff(e.b, var))
    if isinstance(e, Sub):
        return sub(diff(e.a, var), diff(e.b, var))
    if isinstance(e, Mul):
        return add(mul(diff(e.a, var), e.b), mul(e.a, diff(e.b, var)))
    if isinstance(e, Div):
        da, db = diff(e.a, var), diff(e.b, var)
        return div(sub(mul(da, e.b), mul(e.a, db)), pow_(e.b, 2))
    if isinstance(e, Pow):
        return mul(mul(const(e.exponent), pow_(e.base, e.exponent - 1)), diff(e.base, var))
    if isinstance(e, Neg):
        return neg(diff(e.a, var))
    raise TypeError(type(e))


# ---------------------------------------------------------------------------
# parsing and printing

class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


_IDENT_START = set(string.ascii_letters + "_")
_IDENT_CHARS = _IDENT_START | set(string.digits)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/^()":
            tokens.append(("op", c, i))
            i += 1
        elif c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
        elif c in _IDENT_START:
            j = i
            while j < n and text[j] in _IDENT_CHARS:
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, names: frozenset[str]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.names = names

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val, at = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, found {val!r}", at)

    def parse(self) -> Expr:
        e = self.expr()
        kind, val, at = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", at)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                e = add(e, rhs) if val == "+" else sub(e, rhs)
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            kind, val, at = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.factor()
                try:
                    e = mul(e, rhs) if val == "*" else div(e, rhs)
                except ZeroDivisionError:
                    raise ParseError("division by zero constant", at) from None
            else:
                return e

    def factor(self) -> Expr:
        e = self.base()
        kind, val, at = self.peek()
        if kind == "op" and val == "^":
            self.take()
            sign = 1
            parenthesised = False
            kind, val, at = self.take()
            if kind == "op" and val == "(":
                parenthesised = True
                kind, val, at = self.take()
            if kind == "op" and val == "-":
                sign = -1
                kind, val, at = self.take()
            if kind != "int":
                raise ParseError("exponent must be an integer", at)
            if parenthesised:
                self.expect_op(")")
            try:
                return pow_(e, sign * int(val))
            except ZeroDivisionError:
                raise ParseError("zero raised to a negative power", at) from None
        return e

    def base(self) -> Expr:
        kind, val, at = self.take()
        if kind == "int":
            return const(int(val))
        if kind == "ident":
            if val not in self.names:
                raise ParseError(f"unknown coordinate name {val!r}", at)
            return Var(val)
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if kind == "op" and val == "-":
            return neg(self.base())
        raise ParseError(f"unexpected token {val!r}", at)


def parse_expression(text: str, chart: str) -> Expr:
    """Parse ``text`` over the chart coordinates plus 'sigma'."""
    names = frozenset(chart_coords(chart)) | {"sigma"}
    return _Parser(text, names).parse()


_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, Pow: 4, Const: 5, Var: 5}


def to_text(e: Expr) -> str:
    """Print an expression; output re-parses to an equal tree."""

    def wrap(child: Expr, parent_prec: int, tight: bool = False) -> str:
        text = to_text(child)
        prec = _PREC[type(child)]
        if isinstance(child, Const) and child.value.denominator != 1:
            prec = 2  # rationals print with '/'
        if isinstance(child, Const) and child.value < 0:
            prec = 1
        if prec < parent_prec or (tight and prec == parent_prec):
            return f"({text})"
        return text

    if isinstance(e, Const):
        return str(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Add):
        return f"{wrap(e.a, 1)}+{wrap(e.b, 1, tight=True)}"
    if isinstance(e, Sub):
        return f"{wrap(e.a, 1)}-{wrap(e.b, 1, tight=True)}"
    if isinstance(e, Mul):
        return f"{wrap(e.a, 2)}*{wrap(e.b, 2, tight=True)}"
    if isinstance(e, Div):
        return f"{wrap(e.a, 2)}/{wrap(e.b, 2, tight=True)}"
    if isinstance(e, Pow):
        exp = str(e.exponent) if e.exponent >= 0 else f"(-{-e.exponent})"
        return f"{wrap(e.base, 4, tight=True)}^{exp}"
    if isinstance(e, Neg):
        return f"-{wrap(e.a, 3, tight=True)}"
    raise TypeError(type(e))


# ---------------------------------------------------------------------------
# jets

def _alpha_factorial(alpha: tuple[int, ...]) -> int:
    f = 1
    for a in alpha:
        f *= factorial(a)
    return f


class Jet:
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
    def constant(value: Number, center: Point, order: int) -> "Jet":
        mode = center.mode
        v = float(value) if mode == "float" else Fraction(value)
        return Jet(center, order, {(0,) * len(center.values): v} if v != 0 else {}, mode)

    @staticmethod
    def coordinate(index: int, center: Point, order: int) -> "Jet":
        n = len(center.values)
        coeffs: dict[tuple[int, ...], Number] = {(0,) * n: center.values[index]}
        if order >= 1:
            one = 1.0 if center.mode == "float" else Fraction(1)
            unit = tuple(1 if i == index else 0 for i in range(n))
            coeffs[unit] = one
        return Jet(center, order, coeffs, center.mode)

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

    def shift(self, alpha: tuple[int, ...]) -> "Jet":
        """Jet of d^alpha f, of order ``self.order - |alpha|``."""
        k = sum(alpha)
        if k > self.order:
            raise ValueError("not enough jet order to differentiate")
        out: dict[tuple[int, ...], Number] = {}
        for beta, c in self.coeffs.items():
            gamma = tuple(b - a for b, a in zip(beta, alpha))
            if any(g < 0 for g in gamma):
                continue
            ratio = Fraction(_alpha_factorial(beta), _alpha_factorial(gamma) * _alpha_factorial(alpha))
            scale: Number = float(ratio) if self.mode == "float" else ratio
            out[gamma] = c * scale * _alpha_factorial(alpha)
        # out now holds Taylor coefficients of the derivative field
        return Jet(self.center, self.order - k, out, self.mode)

    # -- arithmetic --------------------------------------------------------
    def _check(self, other: "Jet"):
        if self.center != other.center or self.order != other.order or self.mode != other.mode:
            raise ValueError("jet center/order/mode mismatch")

    def __add__(self, other: "Jet") -> "Jet":
        self._check(other)
        out = dict(self.coeffs)
        for a, c in other.coeffs.items():
            out[a] = out.get(a, 0) + c
        return Jet(self.center, self.order, out, self.mode)

    def __sub__(self, other: "Jet") -> "Jet":
        self._check(other)
        out = dict(self.coeffs)
        for a, c in other.coeffs.items():
            out[a] = out.get(a, 0) - c
        return Jet(self.center, self.order, out, self.mode)

    def __neg__(self) -> "Jet":
        return Jet(self.center, self.order, {a: -c for a, c in self.coeffs.items()}, self.mode)

    def __mul__(self, other: "Jet") -> "Jet":
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
        return Jet(self.center, order, out, self.mode)

    def scale(self, k: Number) -> "Jet":
        return Jet(self.center, self.order, {a: c * k for a, c in self.coeffs.items()}, self.mode)

    def reciprocal(self) -> "Jet":
        v = self.value
        if v == 0:
            raise ZeroDivisionError("division by zero-valued jet")
        inv = 1.0 / v if self.mode == "float" else Fraction(1) / v
        # u = 1 - f/v is nilpotent to order+1; 1/f = (1/v) sum u^k
        u = Jet.constant(1, self.center, self.order) - self.scale(inv)
        acc = Jet.constant(1, self.center, self.order)
        power = Jet.constant(1, self.center, self.order)
        for _ in range(self.order):
            power = power * u
            if not power.coeffs:
                break
            acc = acc + power
        return acc.scale(inv)

    def __truediv__(self, other: "Jet") -> "Jet":
        self._check(other)
        return self * other.reciprocal()

    def __pow__(self, n: int) -> "Jet":
        if n < 0:
            return self.reciprocal() ** (-n)
        acc = Jet.constant(1, self.center, self.order)
        base = self
        k = n
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def __repr__(self):
        return f"Jet(order={self.order}, value={self.value!r}, nterms={len(self.coeffs)})"


def fold(e: Expr, leaf: Callable[[Expr], _Ring]) -> _Ring:
    """Evaluate an expression tree in any ring.

    ``leaf`` maps each ``Const`` and ``Var`` node to a ring element; the
    ring's own ``+ - * / **`` and unary minus combine them.  A divisor is
    evaluated before its dividend, and a ``ZeroDivisionError`` at a ``Div``
    or a negative ``Pow`` becomes a :class:`PoleError` naming the divisor.
    """

    def ev(e: Expr) -> _Ring:
        if isinstance(e, (Const, Var)):
            return leaf(e)
        if isinstance(e, Add):
            return ev(e.a) + ev(e.b)
        if isinstance(e, Sub):
            return ev(e.a) - ev(e.b)
        if isinstance(e, Mul):
            return ev(e.a) * ev(e.b)
        if isinstance(e, Div):
            den = ev(e.b)
            num = ev(e.a)
            try:
                return num / den
            except ZeroDivisionError:
                raise PoleError(to_text(e.b)) from None
        if isinstance(e, Pow):
            base = ev(e.base)
            try:
                return base ** e.exponent
            except ZeroDivisionError:
                raise PoleError(to_text(e.base)) from None
        if isinstance(e, Neg):
            return -ev(e.a)
        raise TypeError(type(e))

    return ev(e)


def jet_of(expr: Expr, p: Point, order: int = DEFAULT_ORDER,
           params: Mapping[str, Number] | None = None) -> Jet:
    """Jet of the expression at ``p`` through the given order.

    ``params`` binds non-coordinate symbols (``sigma``) to values; they enter
    as constants, not as jet variables.
    """
    index = {name: i for i, name in enumerate(chart_coords(p.chart))}
    params = params or {}

    def leaf(e: Expr) -> Jet:
        if isinstance(e, Const):
            return Jet.constant(e.value, p, order)
        if e.name in index:
            return Jet.coordinate(index[e.name], p, order)
        if e.name in params:
            return Jet.constant(params[e.name], p, order)
        raise EvaluationError(f"unbound symbol {e.name!r} (missing parameter?)")

    return fold(expr, leaf)


# ---------------------------------------------------------------------------
# scalar fields

@dataclass(frozen=True)
class ScalarField:
    """A rational-function field attached to a chart."""

    chart: str
    expr: Expr

    def __post_init__(self):
        allowed = set(chart_coords(self.chart)) | {"sigma"}
        extra = free_vars(self.expr) - allowed
        if extra:
            raise ValueError(f"expression uses symbols {sorted(extra)} outside chart {self.chart!r}")

    @staticmethod
    def parse(text: str, chart: str) -> "ScalarField":
        return ScalarField(chart, parse_expression(text, chart))

    @staticmethod
    def constant(v, chart: str) -> "ScalarField":
        return ScalarField(chart, const(v))

    def jet(self, p: Point, order: int = DEFAULT_ORDER,
            params: Mapping[str, Number] | None = None) -> Jet:
        if p.chart != self.chart:
            raise ValueError(f"field on chart {self.chart!r} evaluated at {p.chart!r} point")
        return jet_of(self.expr, p, order, params)

    def value(self, p: Point, params: Mapping[str, Number] | None = None) -> Number:
        return self.jet(p, 0, params).value

    def diff(self, var: str) -> "ScalarField":
        if var not in chart_coords(self.chart):
            raise ValueError(f"{var!r} is not a coordinate of chart {self.chart!r}")
        return ScalarField(self.chart, diff(self.expr, var))

    def is_zero(self) -> bool:
        return self.expr == ZERO

    def __str__(self):
        return to_text(self.expr)


def partial(field: ScalarField, alpha: tuple[int, ...]) -> ScalarField:
    """Symbolic partial derivative d^alpha of the field (the non-jet route)."""
    coords = chart_coords(field.chart)
    if len(alpha) != len(coords):
        raise ValueError("multi-index arity does not match chart")
    e = field.expr
    for var, k in zip(coords, alpha):
        for _ in range(k):
            e = diff(e, var)
    return ScalarField(field.chart, e)
