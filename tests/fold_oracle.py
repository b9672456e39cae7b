"""The memo-free tree walk and the tree printer, kept as test oracles for
``heavenly.jetcore.fold`` and ``heavenly.jetcore.Program.text``.

The walk is the one the package used before it memoised subtrees: every node
is evaluated once per occurrence, so a subtree that occurs twice is folded
twice.  The memoised walk must give the same ring elements (the same float
bits in float mode) and raise the same first error.  The printer walks the
tree as the package did before it printed a program's instructions; the text
must be the same.  Nothing in ``src/`` imports this module.
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
)

_Ring = TypeVar("_Ring")

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
