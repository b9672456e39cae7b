"""The memo-free tree walk, kept as a test oracle for ``heavenly.jetcore.fold``.

This is the walk the package used before it memoised subtrees: every node is
evaluated once per occurrence, so a subtree that occurs twice is folded twice.
The memoised walk must give the same ring elements (the same float bits in
float mode) and raise the same first error.  Nothing in ``src/`` imports it.
"""

from __future__ import annotations

from typing import Callable, Mapping, TypeVar

from heavenly.jetcore import (
    DEFAULT_ORDER,
    Add,
    Const,
    Div,
    Expr,
    Jet,
    Mul,
    Neg,
    Number,
    Point,
    PoleError,
    Pow,
    Sub,
    Var,
    _point_leaf,
    to_text,
)

_Ring = TypeVar("_Ring")


def fold(e: Expr, leaf: Callable[[Expr], _Ring]) -> _Ring:
    """Evaluate an expression tree in any ring, every occurrence of a subtree anew."""
    if isinstance(e, (Const, Var)):
        return leaf(e)
    if isinstance(e, Add):
        return fold(e.a, leaf) + fold(e.b, leaf)
    if isinstance(e, Sub):
        return fold(e.a, leaf) - fold(e.b, leaf)
    if isinstance(e, Mul):
        return fold(e.a, leaf) * fold(e.b, leaf)
    if isinstance(e, Div):
        den = fold(e.b, leaf)
        num = fold(e.a, leaf)
        try:
            return num / den
        except ZeroDivisionError:
            raise PoleError(to_text(e.b)) from None
    if isinstance(e, Pow):
        base = fold(e.base, leaf)
        try:
            return base ** e.exponent
        except ZeroDivisionError:
            raise PoleError(to_text(e.base)) from None
    if isinstance(e, Neg):
        return -fold(e.a, leaf)
    raise TypeError(type(e))


def jet_of(expr: Expr, p: Point, order: int = DEFAULT_ORDER,
           params: Mapping[str, Number] | None = None) -> Jet:
    """The jet of one tree at ``p`` by the memo-free walk."""
    return fold(expr, _point_leaf(p, params, lambda v: Jet.constant(v, p, order),
                                  lambda i: Jet.coordinate(i, p, order)))
