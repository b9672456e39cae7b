"""The st chain members and curve tails as expression trees, kept as a test oracle.

The package builds the members psi_n and the curve's tails as trees from the
numbers c of tables A and B, each entry the monomial c sigma^j
(``recursion.coeff_A``, ``coeff_B`` and ``table_sum``), and compiles them into
a ``Program`` (``recursion.st_chain_program``, ``twistor.st_curve_program``).
The tables here run the old recurrence on polynomials in sigma
(``sigma_entry``), an independent route, and the trees are built from them:
compiled into a program, each gives the package's instructions, so the same
printed text, jets (float bits included) and first error.  Nothing in
``src/`` imports this module.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from heavenly import jetcore
from heavenly.jetcore import (
    ZERO,
    Expr,
    ScalarField,
    Var,
    add,
    const,
    div,
    field_program,
    mul,
    neg,
    pow_,
)
from heavenly.recursion import st_potential

SECOND = "second"
W, Z, X, Y = Var("w"), Var("z"), Var("x"), Var("y")
Q = add(mul(W, X), mul(Z, Y))

SigmaPoly = tuple[Fraction, ...]  # coefficient of sigma^k at index k; the zero polynomial is ()


def _trimmed(coeffs: list) -> SigmaPoly:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@cache
def sigma_entry(shift: int, n: int, k: int) -> SigmaPoly:
    """Entry (n, k), 0 <= k <= n, of table A (shift 1) or B (shift 2) as a polynomial in
    sigma: row 1 is (1, 0); entry (n + 1, k) is entry (n, k - 1) plus
    -2 (k + 1) sigma / (n - k + shift) times entry (n, k + 1), off the triangle zero."""
    if n == 1:
        return (Fraction(1),) if k == 0 else ()
    m = n - 1
    out = list(sigma_entry(shift, m, k - 1)) if k >= 1 else []
    if k + 1 <= m:
        factor = Fraction(-2 * (k + 1), m - k + shift)
        times_sigma = [Fraction(0)] + [factor * c for c in sigma_entry(shift, m, k + 1)]
        out += [Fraction(0)] * (len(times_sigma) - len(out))
        for i, c in enumerate(times_sigma):
            out[i] += c
    return _trimmed(out)


def _lookup(shift: int, n: int, k: int) -> SigmaPoly:
    if k == -1:
        return ()
    if n < 1 or k < 0 or k > n:
        raise IndexError(f"table entry ({n}, {k}) out of range")
    return sigma_entry(shift, n, k)


def poly_A(n: int, k: int) -> SigmaPoly:
    """Entry (n, k) of table A as a sigma polynomial; k = -1 is zero."""
    return _lookup(1, n, k)


def poly_B(n: int, k: int) -> SigmaPoly:
    """Entry (n, k) of table B as a sigma polynomial; k = -1 is zero."""
    return _lookup(2, n, k)


def uni_expr(a: SigmaPoly, var: str) -> Expr:
    """The polynomial as an expression in the symbol ``var``."""
    e: Expr = ZERO
    for k, c in enumerate(a):
        if c == 0:
            continue
        term: Expr = const(c)
        if k:
            term = mul(term, pow_(Var(var), k))
        e = add(e, term)
    return e


def st_psi(n: int) -> ScalarField:
    """Chain member sum_k A(n,k) (-y/w)^k (wx+zy)^(k-n), sigma symbolic."""
    if n < 1:
        raise IndexError("chain index starts at 1")
    e: Expr = ZERO
    for k in range(n + 1):
        a = poly_A(n, k)
        if not a:
            continue
        term = uni_expr(a, "sigma")
        if k:
            term = mul(term, pow_(div(neg(Y), W), k))
        term = mul(term, pow_(Q, k - n))
        e = add(e, term)
    return ScalarField(SECOND, e)


def st_twistor_curve(order: int) -> tuple[tuple[ScalarField, ...], tuple[ScalarField, ...]]:
    """Curve for the quadratic-pole background, sigma symbolic: mu0's coefficients of
    lam^0..lam^order and mu1's (their ``field_program(mu0 + mu1)`` is the curve's program).

    lam^(n+1) tail coefficients (n >= 1):
      mu0: sigma sum_k B(n,k) w (-y/w)^k Q^(k-n-1)
      mu1: sigma sum_k B(n,k) z (x/z)^k  Q^(k-n-1)
    so the first tails are -lam^2 Theta_x and -lam^2 Theta_y respectively.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    sig = Var("sigma")

    def tail(n: int, base: Expr, ratio: Expr) -> Expr:
        e: Expr = ZERO
        for k in range(n + 1):
            b = poly_B(n, k)
            if not b:
                continue
            term = mul(uni_expr(b, "sigma"), mul(base, pow_(Q, k - n - 1)))
            if k:
                term = mul(term, pow_(ratio, k))
            e = add(e, term)
        return mul(sig, e)

    c0: list[Expr] = [W, Y]
    c1: list[Expr] = [Z, neg(X)]
    for n in range(1, order):
        c0.append(tail(n, W, div(neg(Y), W)))
        c1.append(tail(n, Z, div(X, Z)))
    return (tuple(ScalarField(SECOND, e) for e in c0),
            tuple(ScalarField(SECOND, e) for e in c1))


def chain_program(members, pairs) -> jetcore.Program:
    """The tree program ``chain_residual_maxima`` reads: the st potential, the member
    fields, then both fields of each pair."""
    return field_program([st_potential().field, *members,
                          *(f for pair in pairs.values() for f in pair)])


def bits(jet: jetcore.Jet) -> tuple:
    """A jet's denominator and stored numerators, a float as its hex text (so the
    sign of a zero counts): equal for two jets iff they hold the same bits."""
    return jet._den, [x.hex() if isinstance(x, float) else x for x in jet._c]


def outcome(program: jetcore.Program, run) -> object:
    """``run(program)``, or the text of the EvaluationError it raises."""
    try:
        return run(program)
    except jetcore.EvaluationError as exc:
        return f"{type(exc).__name__}: {exc}"
