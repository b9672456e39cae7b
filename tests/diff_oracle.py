"""Symbolic differentiation of expression trees: the independent route that
cross-checks the jets.

The package reads every partial derivative off a jet (``Jet.d_numerators``,
``Jet.d_jet``).  Here a partial is a new tree, built by the sum, product,
quotient and power rules with no expansion, and evaluated like any field.
The tree oracles (``geometry_oracle``, ``hierarchy_oracle``) build their
symbolic tetrads, Lax pairs and flow fields with it.  Nothing in ``src/``
imports it.
"""

from __future__ import annotations

from heavenly.jetcore import (
    ONE,
    ZERO,
    Add,
    Const,
    Div,
    Expr,
    Mul,
    Neg,
    Pow,
    ScalarField,
    Sub,
    Var,
    add,
    chart_coords,
    const,
    div,
    mul,
    neg,
    pow_,
    sub,
)


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


def field_diff(field: ScalarField, var: str) -> ScalarField:
    """The field's symbolic partial along one coordinate of its chart."""
    if var not in chart_coords(field.chart):
        raise ValueError(f"{var!r} is not a coordinate of chart {field.chart!r}")
    return ScalarField(field.chart, diff(field.expr, var))


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
