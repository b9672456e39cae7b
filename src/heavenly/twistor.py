"""Spectral-parameter series, twistor curves and the residue transform.

A curve is a pair of truncated series in the fibre coordinate lam whose
coefficients are scalar fields on the second-form chart.  The flat curve is
(w + lam y, z - lam x); the curved quadratic-pole curve carries tails built
from the B coefficient table.  Order-by-order annihilation by the background
Lax fields is the verification criterion: orders below the truncation must
vanish identically, the top two orders are truncation debris and reported
separately.

The residue transform maps rational functions of (lam, mu0, mu1) to scalar
fields by taking the residue in lam at a caller-declared pole after
substituting the flat curve.  Normalisation is fixed by
transform(1/(mu0 mu1)) at the pole lam = -w/y being 1/(wx+zy); on twistor
data the recursion operator is multiplication by 1/lam.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from typing import Mapping

from .jetcore import (
    Const,
    EvaluationError,
    Expr,
    Jet,
    Number,
    Point,
    Program,
    ScalarField,
    Var,
    ZERO,
    add,
    div,
    field_program,
    mul,
    neg,
)
from .polynomials import Poly, uni, uni_add, uni_mul, uni_scale, uni_shift
from .recursion import SIGMA, coeff_B, recursion_step_poly, table_sum
from .tetrads import SECOND, SecondPotential, lax_step_from_jets

@dataclass(frozen=True)
class LambdaSeries:
    """Truncated series sum_{i=min_deg}^{max_deg} c_i lam^i with field coefficients."""

    chart: str
    min_deg: int
    coeffs: tuple[ScalarField, ...]

    @property
    def max_deg(self) -> int:
        return self.min_deg + len(self.coeffs) - 1

    def coefficient(self, i: int) -> ScalarField:
        if self.min_deg <= i <= self.max_deg:
            return self.coeffs[i - self.min_deg]
        return ScalarField(self.chart, ZERO)


@dataclass(frozen=True)
class TwistorCurve:
    """Pair (mu0, mu1) of series attached to a background tag."""

    background: str
    mu0: LambdaSeries
    mu1: LambdaSeries

    def program(self) -> Program:
        """The coefficients of mu0 then mu1 (each series from lam^0, of one length) as
        one program (see lax_annihilation_residual)."""
        return field_program(self.mu0.coeffs + self.mu1.coeffs)


def flat_twistor_curve(order: int = 1) -> TwistorCurve:
    pad = tuple(ScalarField(SECOND, ZERO) for _ in range(max(0, order - 1)))
    mu0 = LambdaSeries(SECOND, 0, (ScalarField(SECOND, Var("w")),
                                   ScalarField(SECOND, Var("y"))) + pad)
    mu1 = LambdaSeries(SECOND, 0, (ScalarField(SECOND, Var("z")),
                                   ScalarField(SECOND, neg(Var("x")))) + pad)
    return TwistorCurve("flat", mu0, mu1)


def st_curve_program(order: int) -> Program:
    """The quadratic-pole curve's coefficients of lam^0..lam^order, mu0's then mu1's,
    sigma symbolic, as one program.  Row n of table B gives the lam^(n+1) tails
    (n >= 1), issued with no tree built (see table_sum):
      mu0: sigma sum_k B(n,k) w (-y/w)^k Q^(k-n-1)
      mu1: sigma sum_k B(n,k) z (x/z)^k  Q^(k-n-1)
    so the first tails are -lam^2 Theta_x and -lam^2 Theta_y respectively.
    """
    if order < 1:
        raise ValueError("order must be at least 1")

    def tail(b, n: int, base: Expr, ratio: Expr) -> int:
        def term(k: int, entry: int | None) -> int:
            t = b.times(entry, b.times(b.tree(base), b.power(b.tree(Q), k - n - 1)))
            return b.times(t, b.power(b.tree(ratio), k)) if k else t
        return b.times(b.tree(SIGMA), table_sum(b, coeff_B, n, term))

    w, z, x, y = Var("w"), Var("z"), Var("x"), Var("y")
    Q = add(mul(w, x), mul(z, y))
    mu0 = [w, y, *(partial(tail, n=n, base=w, ratio=div(neg(y), w)) for n in range(1, order))]
    mu1 = [z, neg(x), *(partial(tail, n=n, base=z, ratio=div(x, z)) for n in range(1, order))]
    return Program(mu0 + mu1, SECOND)


def lax_annihilation_residual(curve: Program, theta: SecondPotential, p: Point,
                              params: Mapping[str, Number] | None = None) -> dict:
    """Expand L_A(mu^B) in powers of lam at p.

    ``curve``'s outputs are mu0's coefficients of lam^0..lam^N, then mu1's
    (st_curve_program, TwistorCurve.program).  The lam^r coefficient of
    L_A(mu^B) is recursion relation A of tetrads.lax_step_residual between the
    curve coefficients r-1 and r, computed by tetrads.lax_step_from_jets from one
    jet of the potential and, from one run of ``curve``, one of each coefficient.
    Returns per-order values; 'interior' orders (0..N-1 for a curve truncated
    at lam^N) must vanish, the top two orders are reported separately.
    """
    out: dict[tuple[int, str], dict[int, Number]] = {
        (A, B): {} for A in (0, 1) for B in ("mu0", "mu1")}
    theta_jet = theta.field.jet(p, 2, params)
    zero = Jet.constant(0, p, 1)
    coeff_jets = curve.jets(p, 1, params)
    N = len(coeff_jets) // 2 - 1
    for B, own in (("mu0", coeff_jets[:N + 1]), ("mu1", coeff_jets[N + 1:])):
        # each coefficient's jet serves orders r and r + 1
        jets = [zero, *own, zero]
        for r in range(N + 2):
            out[(0, B)][r], out[(1, B)][r] = lax_step_from_jets(theta_jet, jets[r], jets[r + 1])
    interior = {k: {r: v for r, v in d.items() if r <= N - 1} for k, d in out.items()}
    top = {k: {r: v for r, v in d.items() if r > N - 1} for k, d in out.items()}
    worst = max((abs(v) for d in interior.values() for v in d.values()), default=p.domain.number(0))
    return {"interior": interior, "top": top, "max_abs_interior": worst}


def series_solve_omega(theta_poly: Poly, order: int) -> TwistorCurve:
    """Generate curve coefficients by iterating the curved recursion operator.

    Works for polynomial solutions of the second equation; coefficients are
    fixed by the zero-(w,z)-part convention, seeded with (w, z).
    """
    if theta_poly.chart != SECOND:
        raise ValueError("potential must live on the second-form chart")
    rows = []
    for seed_name in ("w", "z"):
        coeffs = [Poly.coordinate(seed_name, SECOND)]
        for _ in range(order):
            coeffs.append(recursion_step_poly(coeffs[-1], theta_poly))
        rows.append(tuple(c.to_field() for c in coeffs))
    return TwistorCurve("series", LambdaSeries(SECOND, 0, rows[0]),
                        LambdaSeries(SECOND, 0, rows[1]))


# ---------------------------------------------------------------------------
# residue transform

class RatLambda:
    """Univariate rational function in lam over exact rationals."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = uni(num)
        self.den = uni(den)
        if not self.den:
            raise ZeroDivisionError("zero denominator")

    @staticmethod
    def constant(c) -> "RatLambda":
        return RatLambda((c,), (1,))

    @staticmethod
    def lam() -> "RatLambda":
        return RatLambda((0, 1), (1,))

    def __add__(self, o):
        return RatLambda(uni_add(uni_mul(self.num, o.den), uni_mul(o.num, self.den)),
                         uni_mul(self.den, o.den))

    def __sub__(self, o):
        return self + o.scale(-1)

    def __mul__(self, o):
        return RatLambda(uni_mul(self.num, o.num), uni_mul(self.den, o.den))

    def __truediv__(self, o):
        if not o.num:
            raise ZeroDivisionError("division by identically zero rational function")
        return RatLambda(uni_mul(self.num, o.den), uni_mul(self.den, o.num))

    def scale(self, c) -> "RatLambda":
        return RatLambda(uni_scale(self.num, Fraction(c)), self.den)

    def __pow__(self, k: int):
        if k < 0:
            return RatLambda(self.den, self.num) ** (-k)
        out = RatLambda.constant(1)
        for _ in range(k):
            out = out * self
        return out

    def __neg__(self):
        return self.scale(-1)


def residue_at(f: RatLambda, pole: Fraction) -> Fraction:
    """Residue of f dlam at lam = pole (any finite pole order).

    A regular point has residue zero (a small contour around it encloses
    nothing); callers that require an actual pole should check separately.
    """
    num = uni_shift(f.num, pole)
    den = uni_shift(f.den, pole)
    m = 0
    while m < len(den) and den[m] == 0:
        m += 1
    if m == 0:
        return Fraction(0)
    if m >= len(den):
        raise ZeroDivisionError("denominator is identically zero")
    den_red = den[m:]
    k = 0
    while k < len(num) and num[k] == 0:
        k += 1
    if k >= m:
        return Fraction(0)  # removable singularity after cancellation
    # need the coefficient of t^(m-1) in num(t) / den_red(t): series-invert den_red
    order = m - 1
    inv = [Fraction(0)] * (order + 1)
    inv[0] = 1 / den_red[0]
    for i in range(1, order + 1):
        s = Fraction(0)
        for j in range(1, i + 1):
            if j < len(den_red):
                s += den_red[j] * inv[i - j]
        inv[i] = -s / den_red[0]
    res = Fraction(0)
    for i in range(order + 1):
        if i < len(num):
            res += num[i] * inv[order - i]
    return res


class NotAPoleError(EvaluationError):
    """The declared pole is a regular point of f on the curve."""


def on_flat_curve(f: Expr | Program, p: Point, params: Mapping | None = None) -> RatLambda:
    """f(lam, mu0, mu1), a tree or its program, on the flat curve (w + lam y, z - lam x) at p."""
    if p.chart != SECOND:
        raise ValueError("evaluation point must live on the second-form chart")
    wv, zv, xv, yv = (Fraction(v) for v in p.values)
    env = {"lam": RatLambda.lam(), "mu0": RatLambda((wv, yv), (1,)),
           "mu1": RatLambda((zv, -xv), (1,))}
    env.update({k: RatLambda.constant(v) for k, v in (params or {}).items()})

    def leaf(e: Expr) -> RatLambda:
        if isinstance(e, Const):
            return RatLambda.constant(e.value)
        if e.name not in env:
            raise EvaluationError(f"unbound symbol {e.name!r}")
        return env[e.name]

    return (f if isinstance(f, Program) else Program([f])).run(leaf)[0]


def penrose_residue_transform(f: Expr | Program, pole: Expr | ScalarField, p: Point,
                              params: Mapping[str, Number] | None = None) -> Fraction:
    """Residue of f(lam, mu0, mu1) at the declared pole, a tree or field over the
    second-form chart, on the flat curve at p (on_flat_curve; f's program or tree).  A
    pole that cancels at p has residue 0; a regular point raises NotAPoleError (0 is no
    evidence).  A caller at many points passes a program and a field, compiled once."""
    rat = on_flat_curve(f, p, params)
    pole = pole if isinstance(pole, ScalarField) else ScalarField(SECOND, pole)
    pole_value = Fraction(pole.value(p, params))
    value = residue_at(rat, pole_value)   # a nonzero residue needs a pole: check only a 0
    if not value and (den := reduce(lambda acc, c: acc * pole_value + c, reversed(rat.den), 0)):
        raise NotAPoleError(f"f's denominator is {den} at lam = {pole_value}, not 0")
    return value


def recursion_on_twistor(f: Expr) -> Expr:
    """The twistor-side recursion operator: multiplication by 1/lam."""
    return div(f, Var("lam"))
