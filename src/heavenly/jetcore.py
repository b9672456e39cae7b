"""Exact truncated-Taylor (jet) arithmetic over a small rational expression language.

Every geometric check in this package reduces to evaluating scalar fields and
their partial derivatives at rational points.  Fields are rational-function
expression trees over the coordinates of a chart (plus the free parameter
``sigma``); evaluation propagates truncated multivariate Taylor polynomials
("jets") through the tree, so derivatives come out exact when the inputs are
exact rationals.  Trees are compiled once into a :class:`Program` and
replayed at each point in any ring (jets here, rational functions of the
fibre coordinate in the residue transform), each structurally equal subtree
once per point; :func:`fold` and :func:`jets_of` are one program and one
run, :func:`field_program` compiles several fields of one chart, and a
:class:`ScalarField` keeps its program.
Every partial derivative is read off a jet (:meth:`Jet.d_numerators`,
:meth:`Jet.d_jet`); the package differentiates no tree.  Symbolic
differentiation of a tree, the independent route that cross-checks the jets,
is a test oracle (``tests/diff_oracle.py``).

Coefficients live in one of two domains, fixed by the evaluation point: in
:data:`EXACT` they are read out as :class:`fractions.Fraction` and a residual
passes iff it is *exactly* zero; :data:`FLOAT` runs the same algorithms in
double precision, and a residual passes below a tolerance.  The domain owns
every step where the two differ, so :class:`Jet` has one code path.

Expressions, points, fields, programs and jets are immutable after
construction (what one caches on first use, such as a field's program, a
program's text or a jet's reciprocal, is a pure function of it, and no jet is
shared between points) and evaluation is pure, so independent points may be
evaluated concurrently.  What derives from fixed inputs alone, such as a jet
layout or a parsed field with its program, is kept for the process by
:func:`kept`, keyed by everything it reads.
"""

from __future__ import annotations

import operator
import reprlib
import string
from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from math import factorial, gcd, isfinite, lcm
from types import MappingProxyType
from typing import Callable, Mapping, Sequence, TypeVar, Union

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
    # the fibre coordinate alone: a twistor.RatLambda's numerator and denominator
    "lam": ("lam",),
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
    """A chart point with rational coordinates (in :data:`EXACT`) or float ones (:data:`FLOAT`)."""

    chart: str
    values: tuple[Number, ...]

    def __post_init__(self):
        coords = chart_coords(self.chart)
        if len(self.values) != len(coords):
            raise ValueError(
                f"chart {self.chart!r} needs {len(coords)} coordinates, got {len(self.values)}"
            )
        domain = FLOAT if any(isinstance(v, float) for v in self.values) else EXACT
        if domain is FLOAT:
            object.__setattr__(self, "values", tuple(map(float, self.values)))
        object.__setattr__(self, "domain", domain)   # not a field: equality ignores it

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


def _cached_hash(structural: Callable[[Expr], int]) -> Callable[[Expr], int]:
    """A node's structural hash, computed once and kept on the node.

    The generated dataclass hash re-hashes every child on each call, so a
    lookup of a deep tree would walk the whole subtree; here each child's hash
    is itself cached, and a node's costs one tuple hash the first time.
    """

    def __hash__(self) -> int:
        kept = self.__dict__   # the hash is kept beside the fields: equality ignores it
        h = kept.get("_hash")
        if h is None:
            h = kept["_hash"] = hash((type(self).__name__, structural(self)))
        return h

    return __hash__


for _node in (Const, Var, Add, Sub, Mul, Div, Pow, Neg):
    _node.__hash__ = _cached_hash(_node.__hash__)


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
    """The variable names in the tree, walking each distinct node (by identity) once."""
    seen = {id(e): e}
    todo = [e]
    while todo:
        for child in vars(todo.pop()).values():
            if isinstance(child, Expr) and id(child) not in seen:
                seen[id(child)] = child
                todo.append(child)
    return frozenset(node.name for node in seen.values() if isinstance(node, Var))


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


def to_text(e: Expr) -> str:
    """Print an expression; output re-parses to an equal tree (see :meth:`Program.texts`)."""
    return Program([e]).texts()[0]


# ---------------------------------------------------------------------------
# per-process caches

KEPT: list[Callable] = []   # every function :func:`kept` made, in definition order


def kept(limit: int | None = None) -> Callable[[Callable], Callable]:
    """Keep a builder's results for the life of the process, keyed by its arguments.

    The package's one cache rule: a value derived only from fixed inputs may
    live for the whole process, keyed by everything it reads.  So a kept
    builder reads nothing but its (hashable) arguments, and no caller changes
    what it returns.  A call that raises keeps nothing.  With ``limit``, the
    oldest entry makes room for a new one.  The entries are the kept
    function's ``store``, and it calls its ``build`` on a miss, so a test can
    swap in an empty store and count the builds of a fresh process.
    """
    def wrap(build: Callable) -> Callable:
        @wraps(build)
        def cached(*key):
            store = cached.store
            value = store.get(key, store)   # the store itself: no entry
            if value is store:
                value = cached.build(*key)
                if len(store) == limit:
                    del store[next(iter(store))]
                store[key] = value
            return value
        cached.store, cached.build = {}, build
        KEPT.append(cached)
        return cached
    return wrap


# ---------------------------------------------------------------------------
# jets

def _alpha_factorial(alpha: tuple[int, ...]) -> int:
    f = 1
    for a in alpha:
        f *= factorial(a)
    return f


def _of_degree(nvars: int, degree: int):
    """Every multi-index of ``nvars`` entries summing to ``degree``, lexicographically descending."""
    if nvars == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in _of_degree(nvars - 1, degree - first):
            yield (first,) + rest


class _Layout:
    """Where each Taylor coefficient of a jet in ``nvars`` variables through ``order`` lives.

    Monomials are in graded order: position 0 is the constant term, positions
    1..nvars the first partials in chart order, then degree 2, and so on.  A
    lower order's monomials are a prefix of a higher order's, so truncation
    is a slice.  ``rows[i][k]`` is the position of alpha_i + alpha_k for every
    k with |alpha_i| + |alpha_k| <= order, so a product needs no tuple
    arithmetic.
    """

    __slots__ = ("monomials", "index", "degree", "weights", "rows", "named", "shifted", "small",
                 "kernel")

    def __init__(self, nvars: int, order: int):
        monomials: list[tuple[int, ...]] = []
        ends = []
        for k in range(order + 1):
            monomials.extend(_of_degree(nvars, k))
            ends.append(len(monomials))
        index = {alpha: i for i, alpha in enumerate(monomials)}
        self.monomials = monomials
        self.index = index
        self.degree = [sum(alpha) for alpha in monomials]
        self.weights = [_alpha_factorial(alpha) for alpha in monomials]
        self.rows = [[index[tuple(x + y for x, y in zip(a, b))] for b in monomials[:ends[order - k]]]
                     for a, k in zip(monomials, self.degree)]
        # (chart, partials) -> the (position, weight) of each named partial
        self.named: dict[tuple[str, tuple[tuple[str, ...], ...]], list[tuple[int, int]]] = {}
        # (chart, names) -> the (position, multiplier) of each coefficient of that partial's jet
        self.shifted: dict[tuple[str, tuple[str, ...]], list[tuple[int, int]]] = {}
        self.small = sum(map(len, self.rows)) <= 100   # see ``_product_kernel``
        self.kernel: Callable[[list, list, Number], list] | None = None


def _product_kernel(layout: _Layout) -> Callable[[list, list, Number], list]:
    """``product(a, b, zero)``, a times b as straight-line code from ``layout.rows``: position p
    is ``zero`` plus a_i * b_k over rows[i][k] == p in ascending i (the loop's order, ``a`` outer).

    Layouts of at most 100 pairs (i, k) take it.  Loop against kernel per product on the
    benchmark's operands: (4,1), 9 pairs, 3.1/0.8 us; (4,2), 45, 7.7/3.5 us; (4,4), 495, 13/14 us;
    (6,3)-(10,3), 455-1771 with 2 nonzeros a factor, 10-17/11-59 us.  On random operands it won
    at every density to 91 pairs, lost on sparse ones from 165.  Compiles: 0.3-0.8 ms to 91 pairs.
    """
    n = len(layout.monomials)
    sums = [["zero"] for _ in range(n)]
    for i, row in enumerate(layout.rows):
        for k, p in enumerate(row):
            sums[p].append(f"a{i}*b{k}")
    names = [", ".join(f"{x}{i}" for i in range(n)) + "," for x in "ab"]
    scope: dict = {}
    exec(compile(f"def product(a, b, zero):\n {names[0]} = a\n {names[1]} = b\n return ["
                 + ", ".join(" + ".join(s) for s in sums) + "]\n", "<jet product>", "exec"), scope)
    return scope["product"]


@kept()
def _layout(nvars: int, order: int) -> _Layout:
    if order < 0 or order > MAX_ORDER:
        raise ValueError(f"jet order must be in 0..{MAX_ORDER}, got {order}")
    return _Layout(nvars, order)


def _recurrence(h: list, inv, terms: list, rows: list) -> list:
    """The numerators h of 1/f by the recurrence of f * (1/f) = 1, in graded order: h_0 is
    ``inv`` and h_g = -inv sum t_b h_(g-b) over the ``terms`` (b, t_b), b != 0.  Each h_m is
    final once every lower position has been pushed through its row, then pushed on."""
    for m in range(len(h)):
        hm = h[m] = -h[m] * inv if m else inv
        if not hm:
            continue
        row = rows[m]
        end = len(row)
        for k, x in terms:
            if k >= end:
                break
            h[row[k]] += x * hm
    return h


class _Exact:
    """Integer numerators over one positive denominator, coprime after every operation,
    read out as ``Fraction``; the verdict on a residual is True (pass) at exactly 0."""

    exact = True
    zero = 0
    number = Fraction
    error = ValueError   # an exact check that fails means wrong inputs

    def split(self, v) -> tuple[int, int]:
        v = v if isinstance(v, (int, Fraction)) else Fraction(v)
        return v.numerator, v.denominator

    def reduce(self, c: list, den: int) -> tuple[list, int]:
        g = gcd(*c, den)
        if g == 1:
            return c, den
        return [x // g for x in c], den // g

    def scaled(self, x, c: list) -> list:
        return [x * y for y in c]

    def zeros_inert(self, a: list, b: list) -> bool:
        return True

    def invert(self, c: list, den: int, layout: _Layout, order: int) -> tuple[list, int]:
        # with f = c/D, write 1/c as H_g / c0^(|g|+1): then H_0 = 1 and
        # H_g = -sum c_b c0^(|b|-1) H_(g-b) are integers, and 1/f = D/c
        degree = layout.degree
        powers = [c[0] ** k for k in range(order + 2)]
        terms = [(k, x * powers[degree[k] - 1]) for k, x in enumerate(c) if k and x]
        h = _recurrence([0] * len(c), 1, terms, layout.rows)
        top = powers[order + 1]
        scale = den if top > 0 else -den
        return [x * scale * powers[order - degree[m]] for m, x in enumerate(h)], abs(top)

    def divide(self, num: int, den: int) -> Fraction:
        return Fraction(num, den) if num else _FRACTION_ZERO

    def verdict(self, residual, tol) -> bool:
        return residual == 0


class _Float:
    """Floats over denominator 1, read out as ``float``; a residual passes below ``tol``."""

    exact = False
    zero = 0.0
    number = float
    error = EvaluationError   # a float check may fail by rounding: bad input, not a bug
    divide = operator.truediv

    def split(self, v) -> tuple[float, int]:
        return float(v), 1

    def reduce(self, c: list, den: int) -> tuple[list, int]:
        return c, den

    def scaled(self, x, c: list) -> list:
        # the sum over rows would add each x * y to a zero and leave zeros alone,
        # which only turns a -0.0 into 0.0; so does this, without the rows
        return [0.0 + x * y if y else 0.0 for y in c]

    def zeros_inert(self, a: list, b: list) -> bool:
        # whether every x * 0 adds nothing: a +-0.0 leaves a sum's bits, an inf or nan does not
        return isfinite(sum(a) + sum(b))

    def invert(self, c: list, den: int, layout: _Layout, order: int) -> tuple[list, int]:
        terms = [(k, x) for k, x in enumerate(c) if k and x]
        return _recurrence([0.0] * len(c), 1.0 / c[0], terms, layout.rows), 1

    def verdict(self, residual, tol) -> bool | None:
        # None for a nan: neither a pass nor a residual shown to reach tol
        return None if residual != residual else residual < tol


# the coefficient domains; outside this module code asks ``point.domain`` or ``jet.domain``
EXACT, FLOAT = _Exact(), _Float()
_FRACTION_ZERO = Fraction(0)   # every exact zero read-out is this one object


class Jet:
    """Truncated Taylor expansion of a scalar field at a point.

    The Taylor coefficients d^alpha f / alpha! are stored densely in the graded
    order of :class:`_Layout`, as numerators over one denominator in the
    center's ``domain`` (:data:`EXACT` or :data:`FLOAT`), which reduces them
    after every operation.  ``coeffs`` reads them back as a mapping from
    multi-index to the domain's number type (``Fraction`` or ``float``),
    nonzero entries only; a derivative is read by coordinate names
    through :meth:`d_numerators` (or :meth:`d`), and the jet of a derivative
    by :meth:`d_jet`, so no other module knows the layout.  Mixed-partial
    symmetry is structural: there is one slot per multi-index.  A jet keeps
    what it derives from itself, as ``coeffs`` keeps its mapping: its
    reciprocal and its repeated squarings f^2, f^4, ... are computed on first
    use and live as long as it.
    """

    __slots__ = ("center", "order", "domain", "_layout", "_c", "_den", "_map", "_inv", "_squares")

    def __init__(self, center: Point, order: int, coeffs: Mapping[tuple[int, ...], Number]):
        domain = center.domain
        layout = _layout(len(center.values), order)
        where = []
        for alpha, v in coeffs.items():
            i = layout.index.get(tuple(alpha))
            if i is None:
                raise ValueError(f"multi-index {tuple(alpha)} is not in a jet of order {order} "
                                 f"in {len(center.values)} variables")
            where.append((i, *domain.split(v)))
        den = lcm(*(d for _, _, d in where))
        c = [domain.zero] * len(layout.monomials)
        for i, num, d in where:
            c[i] = num * (den // d)
        self._set(center, order, domain, layout, c, den)

    def _set(self, center, order, domain, layout, c, den):
        self.center = center
        self.order = order
        self.domain = domain
        self._layout = layout
        self._c = c
        self._den = den

    def _like(self, c: list, den: int, layout: _Layout | None = None, order: int | None = None
              ) -> "Jet":
        """A jet at the same center, its numerators ``c`` over ``den`` reduced by the domain."""
        c, den = self.domain.reduce(c, den)
        out = object.__new__(Jet)
        out._set(self.center, self.order if order is None else order, self.domain,
                 layout or self._layout, c, den)
        return out

    def _number(self, x) -> Number:
        """A stored numerator as a readout (adding the zero turns a float -0.0 into 0.0)."""
        return self.domain.divide(x + self.domain.zero, self._den)

    # -- constructors ------------------------------------------------------
    @staticmethod
    def constant(value: Number, center: Point, order: int) -> "Jet":
        domain = center.domain
        layout = _layout(len(center.values), order)
        num, den = domain.split(value)
        c = [domain.zero] * len(layout.monomials)
        c[0] = num
        out = object.__new__(Jet)
        out._set(center, order, domain, layout, c, den)
        return out

    @staticmethod
    def coordinate(index: int, center: Point, order: int) -> "Jet":
        out = Jet.constant(center.values[index], center, order)
        if order >= 1:   # x - x0 has the coefficient 1, as den / den
            out._c[1 + index] = out._den + out.domain.zero
        return out

    # -- access ------------------------------------------------------------
    @property
    def nvars(self) -> int:
        return len(self.center.values)

    @property
    def coeffs(self) -> Mapping[tuple[int, ...], Number]:
        """Read-only multi-index -> Taylor coefficient mapping of the nonzero coefficients."""
        try:
            return self._map
        except AttributeError:
            monomials = self._layout.monomials
            self._map = MappingProxyType(
                {monomials[i]: self._number(x) for i, x in enumerate(self._c) if x})
            return self._map

    @property
    def value(self) -> Number:
        return self._number(self._c[0])

    def d(self, *names: str) -> Number:
        """The derivative by coordinate names of the chart: ``d("x", "w")`` is d_x d_w f."""
        (num,), den = self.d_numerators(names)
        return self.domain.divide(num, den)

    def d_numerators(self, *partials: tuple[str, ...]) -> tuple[list, int]:
        """Numerators of several named derivatives over the jet's denominator.

        ``d_numerators(("x", "x"), ("y",), ())`` gives ``([nxx, ny, n], den)``
        with d_x d_x f = nxx/den, d_y f = ny/den and f = n/den: integers in
        :data:`EXACT`, floats over 1 in :data:`FLOAT` (a zero is 0.0, never -0.0).
        Sums of products of them stay integers, and a result is divided once, by
        the domain's ``divide``.  A partial of more names than the order raises
        ``ValueError``.
        """
        layout = self._layout
        key = (self.center.chart, partials)
        plan = layout.named.get(key)
        if plan is None:
            coords = chart_coords(self.center.chart)
            plan = []
            for names in partials:
                if len(names) > self.order:
                    raise ValueError(f"jet of order {self.order} has no |alpha|={len(names)} data")
                alpha = [0] * len(coords)
                for name in names:
                    alpha[coords.index(name)] += 1
                i = layout.index[tuple(alpha)]
                plan.append((i, layout.weights[i]))
            layout.named[key] = plan
        c, zero = self._c, self.domain.zero
        return [c[i] * w + zero for i, w in plan], self._den

    def d_jet(self, *names: str) -> "Jet":
        """The jet of a derivative by coordinate names, through ``order - len(names)``.

        ``f.d_jet("x", "y")`` is the jet of d_x d_y f at the same center: its
        Taylor coefficient at gamma is f's at beta + gamma times
        (beta + gamma)!/gamma!, beta the names' multi-index, over f's
        denominator.  So an order-4 jet of a potential gives its second
        partials as order-2 jets, and no tree is differentiated.  More names
        than the jet's order raise ``ValueError``.
        """
        order = self.order - len(names)
        if order < 0:
            raise ValueError(f"jet of order {self.order} has no |alpha|={len(names)} data")
        layout, low = self._layout, _layout(self.nvars, order)
        key = (self.center.chart, names)
        plan = layout.shifted.get(key)
        if plan is None:
            coords = chart_coords(self.center.chart)
            beta = [0] * len(coords)
            for name in names:
                beta[coords.index(name)] += 1
            plan = []
            for gamma, weight in zip(low.monomials, low.weights):
                i = layout.index[tuple(b + g for b, g in zip(beta, gamma))]
                plan.append((i, layout.weights[i] // weight))
            layout.shifted[key] = plan
        c = self._c
        return self._like([c[i] * m for i, m in plan], self._den, low, order)

    def is_zero(self) -> bool:
        return not any(self._c)

    def truncate(self, order: int) -> "Jet":
        """The same expansion through a lower ``order`` (a prefix of the coefficients)."""
        if order == self.order:
            return self
        if not 0 <= order < self.order:
            raise ValueError(f"cannot truncate a jet of order {self.order} to order {order}")
        low = _layout(self.nvars, order)
        return self._like(self._c[:len(low.monomials)], self._den, low, order)

    # -- arithmetic --------------------------------------------------------
    def _check(self, other: "Jet"):
        if (self.order != other.order or self.domain is not other.domain
                or (self.center is not other.center and self.center != other.center)):
            raise ValueError("jet center/order/domain mismatch")

    def __add__(self, other: "Jet") -> "Jet":
        self._check(other)
        a, b, da, db = self._c, other._c, self._den, other._den
        if da == db:
            return self._like([x + y for x, y in zip(a, b)], da)
        g = gcd(da, db)
        ma, mb = db // g, da // g
        return self._like([x * ma + y * mb for x, y in zip(a, b)], da * ma)

    def __sub__(self, other: "Jet") -> "Jet":
        self._check(other)
        a, b, da, db = self._c, other._c, self._den, other._den
        if da == db:
            return self._like([x - y for x, y in zip(a, b)], da)
        g = gcd(da, db)
        ma, mb = db // g, da // g
        return self._like([x * ma - y * mb for x, y in zip(a, b)], da * ma)

    def __neg__(self) -> "Jet":
        return self._like([-x for x in self._c], self._den)

    def __mul__(self, other: "Jet") -> "Jet":
        self._check(other)
        a, b, domain, layout = self._c, other._c, self.domain, self._layout
        den = self._den * other._den
        na, nb = len(a) - a.count(0), len(b) - b.count(0)
        # a constant factor scales the other's numerators (see the domain's ``scaled``)
        if na == 1 and a[0]:
            return self._like(domain.scaled(a[0], b), den)
        if nb < na:
            if nb == 1 and b[0]:
                return self._like(domain.scaled(b[0], a), den)
            a, b = b, a
        # the sparser factor is the outer one; a small layout's compiled kernel adds the loop's
        # terms in its order, and its zero products where the domain says they add nothing
        if layout.small and domain.zeros_inert(a, b):
            if layout.kernel is None:
                layout.kernel = _product_kernel(layout)
            return self._like(layout.kernel(a, b, domain.zero), den)
        outer = [(i, x) for i, x in enumerate(a) if x]
        inner = [(k, y) for k, y in enumerate(b) if y]
        rows = layout.rows
        out = [domain.zero] * len(a)
        # a row ends where the degrees exceed the order
        for i, x in outer:
            row = rows[i]
            end = len(row)
            for k, y in inner:
                if k >= end:
                    break
                out[row[k]] += x * y
        return self._like(out, den)

    def reciprocal(self) -> "Jet":
        """1/f, inverted once per jet (see :meth:`_invert`) and kept on it."""
        try:
            return self._inv
        except AttributeError:
            self._inv = self._invert()
            return self._inv

    def _invert(self) -> "Jet":
        """1/f by the recurrence of f * (1/f) = 1 (see :func:`_recurrence`), in the domain."""
        if not self._c[0]:
            raise ZeroDivisionError("division by zero-valued jet")
        return self._like(*self.domain.invert(self._c, self._den, self._layout, self.order))

    def __truediv__(self, other: "Jet") -> "Jet":
        self._check(other)
        return self * other.reciprocal()

    def __pow__(self, n: int) -> "Jet":
        """f^n by square-and-multiply, f^-n as (1/f)^n.

        The product combines the squarings f, f^2, f^4, ... in bit order,
        starting from the lowest one used; no squaring past the top bit is
        taken.  The squarings are kept on the jet, so every power of one jet
        shares them.
        """
        if n < 0:
            return self.reciprocal() ** (-n)
        if n == 0:
            return Jet.constant(1, self.center, self.order)
        try:
            higher = self._squares   # f^2, f^4, ...; f itself is not stored (no cycle)
        except AttributeError:
            higher = self._squares = []
        acc = None
        base = self
        i = 0
        while True:
            if n & 1:
                acc = base if acc is None else acc * base
            n >>= 1
            if not n:
                return acc
            if i == len(higher):
                higher.append(base * base)
            base = higher[i]
            i += 1

    def __repr__(self):
        nterms = sum(1 for x in self._c if x)
        return f"Jet(order={self.order}, value={self.value!r}, nterms={nterms})"


def common_denominator(items: Sequence[Union[tuple[list, int], Number]]) -> tuple[list, int]:
    """Read-outs and numbers as numerators over one shared positive denominator D.

    A read-out ``(numerators, den)`` (see :meth:`Jet.d_numerators`) contributes
    its list, a number its numerator; each is scaled to D, the lcm of the
    items' denominators.  Float values come back over 1.  Sums of products of
    such numerators stay integers, and a result is divided once, by the
    domain's ``divide``.
    """
    parts = [x if isinstance(x, tuple)
             else (x, 1) if isinstance(x, float) else (x.numerator, x.denominator)
             for x in items]
    den = lcm(*(d for _, d in parts))
    out = []
    for num, d in parts:
        m = den // d
        if m != 1:
            num = [x * m for x in num] if isinstance(num, list) else num * m
        out.append(num)
    return out, den


def fold(e: Expr, leaf: Callable[[Expr], _Ring]) -> _Ring:
    """Evaluate an expression tree in any ring: ``Program([e]).run(leaf)[0]``.

    ``leaf`` maps each ``Const`` and ``Var`` node to a ring element; the
    ring's own ``+ - * / **`` and unary minus combine them.  A divisor is
    evaluated before its dividend, and a ``ZeroDivisionError`` at a ``Div``
    or a negative ``Pow`` becomes a :class:`PoleError` naming the divisor.
    Structurally equal subtrees are evaluated once (see :class:`Program`).
    """
    return Program([e]).run(leaf)[0]


_BINARY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul}
# how each binary operation prints, and how tightly it binds: a negative constant 1,
# a fraction 2, a negation 3, a power 4, a name or an integer 5
_INFIX = {operator.add: ("+", 1), operator.sub: ("-", 1), operator.mul: ("*", 2),
          operator.truediv: ("/", 2)}


class Program:
    """Trees compiled once into one straight-line list of ring operations, which
    :meth:`run` replays at a point.  Each tree is walked as :func:`fold` evaluates
    it, a divisor before its dividend, with one memo for all of them, so a
    structurally equal subtree gives one instruction: a leaf ``(None, node, None)``
    (a ``Const`` or ``Var``), or a ring operation ``(op, a, b)`` on the results of
    instructions ``a`` and ``b`` (a power's exponent; None for a negation).  Every
    operation keeps its order and operands, so results (float bits included) and
    the first error are those of walking each tree anew; :meth:`texts` and errors
    print from the list.  ``chart``, if given, is the one chart whose points
    :meth:`jets` and :meth:`values` accept."""

    __slots__ = ("chart", "_code", "_outputs", "_texts")

    def __init__(self, outputs: Sequence[Expr], chart: str | None = None):
        self.chart = chart
        self._code: list[tuple] = []
        slots: dict[Expr, int] = {}   # subtree -> its instruction

        def walk(e: Expr) -> int:
            s = slots.get(e)
            if s is None:
                if isinstance(e, (Const, Var)):
                    step = (None, e, None)
                elif isinstance(e, Div):
                    den = walk(e.b)
                    step = (operator.truediv, walk(e.a), den)
                elif isinstance(e, Pow):
                    step = (operator.pow, walk(e.base), e.exponent)
                elif isinstance(e, Neg):
                    step = (operator.neg, walk(e.a), None)
                elif type(e) in _BINARY:
                    step = (_BINARY[type(e)], walk(e.a), walk(e.b))
                else:
                    raise TypeError(f"a Program compiles expression trees, not {type(e).__name__}")
                s = slots[e] = len(self._code)
                self._code.append(step)
            return s

        self._outputs = [walk(o) for o in outputs]
        self._texts: dict[int, tuple[str, int]] = {}   # slot -> printed, on first use

    def texts(self) -> list[str]:
        """The outputs printed; each re-parses to a tree equal to the output's."""
        return [self._printed(s)[0] for s in self._outputs]

    def _printed(self, s: int) -> tuple[str, int]:
        """Slot ``s`` printed, and how tightly it binds (see _INFIX; 5 at most)."""
        got = self._texts.get(s)
        if got is None:
            op, a, b = self._code[s]
            if op is None:
                got = ((a.name, 5) if isinstance(a, Var) else
                       (str(a.value), 1 if a.value < 0 else 2 if a.value.denominator != 1 else 5))
            elif op is operator.pow:
                got = f"{self._operand(a, 4, True)}^{b if b >= 0 else f'(-{-b})'}", 4
            elif op is operator.neg:
                got = f"-{self._operand(a, 3, True)}", 3
            else:
                symbol, binds = _INFIX[op]
                got = f"{self._operand(a, binds)}{symbol}{self._operand(b, binds, True)}", binds
            self._texts[s] = got
        return got

    def _operand(self, s: int, parent: int, right: bool = False) -> str:
        """Slot ``s`` in parentheses if it binds more loosely than its parent, or as loosely
        on the right."""
        text, binds = self._printed(s)
        return f"({text})" if binds < parent or (right and binds == parent) else text

    def run(self, leaf: Callable[[Expr], _Ring]) -> list[_Ring]:
        """The outputs' values at one point, in the given order; ``leaf`` as for :func:`fold`."""
        r: list = []   # r[s] is the result of instruction s
        push = r.append
        op = None
        try:
            for op, a, b in self._code:
                if op is None:
                    push(leaf(a))
                elif op is operator.pow:
                    push(r[a] ** b)
                elif b is None:
                    push(-r[a])
                else:
                    push(op(r[a], r[b]))
        except ZeroDivisionError:
            if op is operator.truediv:
                raise PoleError(self._printed(b)[0]) from None
            if op is operator.pow:
                raise PoleError(self._printed(a)[0]) from None
            raise
        except OverflowError:
            # the failing instruction is the next one to push
            text = reprlib.repr(self._printed(len(r))[0])
            raise EvaluationError(f"{text} is too large for a float at the point") from None
        return [r[s] for s in self._outputs]

    def jets(self, p: Point, order: int = DEFAULT_ORDER,
             params: Mapping[str, Number] | None = None) -> list[Jet]:
        """The trees' jets at ``p`` through one order (see :func:`jets_of`)."""
        self._require_chart(p)
        return self.run(_point_leaf(p, params, lambda v: Jet.constant(v, p, order),
                                    lambda i: Jet.coordinate(i, p, order)))

    def values(self, p: Point, params: Mapping[str, Number] | None = None) -> list[Number]:
        """The trees' values at ``p`` over the point's domain's numbers, ``Fraction``
        or ``float`` (see :meth:`ScalarField.value`)."""
        self._require_chart(p)
        number = p.domain.number
        coords = tuple(map(number, p.values))
        return self.run(_point_leaf(p, params, number, coords.__getitem__))

    def _require_chart(self, p: Point):
        if self.chart is not None and p.chart != self.chart:
            raise ValueError(f"field on chart {self.chart!r} evaluated at {p.chart!r} point")


def jets_of(exprs: Sequence[Expr], p: Point, order: int = DEFAULT_ORDER,
            params: Mapping[str, Number] | None = None) -> list[Jet]:
    """Jets of several expressions at ``p`` through one order, in the given order.

    The trees are compiled into one :class:`Program`, so a subtree that occurs
    in several of them (or several times in one) is folded once.  ``params``
    binds non-coordinate symbols (``sigma``) to values; they enter as
    constants, not as jet variables.  A caller that evaluates the same trees
    at several points compiles them once and calls :meth:`Program.jets`.
    """
    return Program(exprs).jets(p, order, params)


def jet_of(expr: Expr, p: Point, order: int = DEFAULT_ORDER,
           params: Mapping[str, Number] | None = None) -> Jet:
    """Jet of the expression at ``p`` through the given order (see :func:`jets_of`)."""
    return jets_of([expr], p, order, params)[0]


def _point_leaf(p: Point, params: Mapping[str, Number] | None,
                constant: Callable[[Number], _Ring], coordinate: Callable[[int], _Ring]
                ) -> Callable[[Expr], _Ring]:
    """The ``fold`` leaf at ``p``: constants and parameters through ``constant``,
    chart coordinates (which shadow parameters) through ``coordinate`` by index."""
    index = {name: i for i, name in enumerate(chart_coords(p.chart))}
    params = params or {}

    def leaf(e: Expr) -> _Ring:
        if isinstance(e, Const):
            return constant(e.value)
        if e.name in index:
            return coordinate(index[e.name])
        if e.name in params:
            return constant(params[e.name])
        raise EvaluationError(f"unbound symbol {e.name!r} (missing parameter?)")

    return leaf


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
        """The field of ``text`` on ``chart``: one per (text, chart) and process, with the
        program it compiles on first use."""
        return _parsed(text, chart)

    @staticmethod
    def constant(v, chart: str) -> "ScalarField":
        return ScalarField(chart, const(v))

    def program(self) -> Program:
        """The field's tree compiled on first use and kept, as a jet keeps its reciprocal."""
        try:
            return self._program
        except AttributeError:
            program = Program([self.expr], self.chart)
            object.__setattr__(self, "_program", program)   # not a field: equality ignores it
            return program

    def jet(self, p: Point, order: int = DEFAULT_ORDER,
            params: Mapping[str, Number] | None = None) -> Jet:
        return self.program().jets(p, order, params)[0]

    def value(self, p: Point, params: Mapping[str, Number] | None = None) -> Number:
        """The field's value at ``p``, folded over plain numbers (no jets).

        Equal to ``self.jet(p, 0, params).value`` in :data:`EXACT`, and raises the
        same errors; leaves are the point's domain's numbers (``Fraction`` or ``float``).
        """
        return self.program().values(p, params)[0]

    def is_zero(self) -> bool:
        return self.expr == ZERO

    def __str__(self):
        return to_text(self.expr)


@kept(limit=256)
def _parsed(text: str, chart: str) -> ScalarField:
    return ScalarField(chart, parse_expression(text, chart))


def field_program(fields: Sequence[ScalarField]) -> Program:
    """The fields' trees compiled into one :class:`Program` on their one chart, so a
    subtree they share is folded once; its runs refuse a point of another chart."""
    charts = {f.chart for f in fields}
    if len(charts) > 1:
        raise ValueError(f"fields on several charts {sorted(charts)} in one program")
    return Program([f.expr for f in fields], charts.pop() if charts else None)

