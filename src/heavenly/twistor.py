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
from typing import Mapping

from .jetcore import (
    Const,
    EvaluationError,
    Expr,
    Number,
    Point,
    ScalarField,
    Var,
    ZERO,
    add,
    div,
    fold,
    mul,
    neg,
    pow_,
)
from .polynomials import Poly, uni, uni_add, uni_expr, uni_mul, uni_scale, uni_shift
from .recursion import coeff_B
from .tetrads import SECOND, SecondPotential, lax_pair_theta

TWISTOR_CHART = "twistor-function"


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

    def map_coeffs(self, fn) -> "LambdaSeries":
        return LambdaSeries(self.chart, self.min_deg, tuple(fn(c) for c in self.coeffs))


@dataclass(frozen=True)
class TwistorCurve:
    """Pair (mu0, mu1) of series attached to a background tag."""

    background: str
    mu0: LambdaSeries
    mu1: LambdaSeries

    @property
    def order(self) -> int:
        return max(self.mu0.max_deg, self.mu1.max_deg)


def flat_twistor_curve(order: int = 1) -> TwistorCurve:
    pad = tuple(ScalarField(SECOND, ZERO) for _ in range(max(0, order - 1)))
    mu0 = LambdaSeries(SECOND, 0, (ScalarField(SECOND, Var("w")),
                                   ScalarField(SECOND, Var("y"))) + pad)
    mu1 = LambdaSeries(SECOND, 0, (ScalarField(SECOND, Var("z")),
                                   ScalarField(SECOND, neg(Var("x")))) + pad)
    return TwistorCurve("flat", mu0, mu1)


def st_twistor_curve(order: int) -> TwistorCurve:
    """Curve for the quadratic-pole background, sigma symbolic.

    lam^(n+1) tail coefficients (n >= 1):
      mu0: sigma sum_k B(n,k) w (-y/w)^k Q^(k-n-1)
      mu1: sigma sum_k B(n,k) z (x/z)^k  Q^(k-n-1)
    so the first tails are -lam^2 Theta_x and -lam^2 Theta_y respectively.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    Q = add(mul(Var("w"), Var("x")), mul(Var("z"), Var("y")))
    sig = Var("sigma")

    def tail(n: int, base: Expr, ratio: Expr) -> Expr:
        e: Expr = ZERO
        for k in range(n + 1):
            b = coeff_B(n, k)
            if not b:
                continue
            term = mul(uni_expr(b, "sigma"), mul(base, pow_(Q, k - n - 1)))
            if k:
                term = mul(term, pow_(ratio, k))
            e = add(e, term)
        return mul(sig, e)

    w_, z_, x_, y_ = Var("w"), Var("z"), Var("x"), Var("y")
    c0: list[Expr] = [w_, y_]
    c1: list[Expr] = [z_, neg(x_)]
    for n in range(1, order):
        c0.append(tail(n, w_, div(neg(y_), w_)))
        c1.append(tail(n, z_, div(x_, z_)))
    mu0 = LambdaSeries(SECOND, 0, tuple(ScalarField(SECOND, e) for e in c0))
    mu1 = LambdaSeries(SECOND, 0, tuple(ScalarField(SECOND, e) for e in c1))
    return TwistorCurve("st", mu0, mu1)


def lax_annihilation_residual(curve: TwistorCurve, theta: SecondPotential, p: Point,
                              params: Mapping[str, Number] | None = None) -> dict:
    """Expand L_A(mu^B) in powers of lam at p.

    Returns per-order values; 'interior' orders (0..N-1 for a curve truncated
    at lam^N) must vanish, the top two orders are reported separately.
    """
    pair = lax_pair_theta(theta, 0)
    # constant and linear parts of L_A as vector-field component tuples
    out = {}
    N = curve.order
    for A in (0, 1):
        cpart = pair.constant[A]
        lpart = pair.linear[A]
        for Bname, series in (("mu0", curve.mu0), ("mu1", curve.mu1)):
            orders: dict[int, Number] = {}
            for r in range(series.min_deg, series.max_deg + 2):
                val = 0
                cr = series.coefficient(r)
                if not cr.is_zero():
                    val = val + _apply_vf(cpart, cr, p, params)
                cr1 = series.coefficient(r - 1)
                if not cr1.is_zero():
                    val = val + _apply_vf(lpart, cr1, p, params)
                orders[r] = val
            out[(A, Bname)] = orders
    interior = {k: {r: v for r, v in d.items() if r <= N - 1} for k, d in out.items()}
    top = {k: {r: v for r, v in d.items() if r > N - 1} for k, d in out.items()}
    worst = max((abs(v) for d in interior.values() for v in d.values()), default=Fraction(0))
    return {"interior": interior, "top": top, "max_abs_interior": worst}


def _apply_vf(components, field: ScalarField, p: Point, params) -> Number:
    grad = field.jet(p, 1, params).grad()
    total = 0
    for comp, d in zip(components, grad):
        cv = comp.value(p, params)
        if cv == 0:
            continue
        total += cv * d
    return total


def series_solve_omega(theta_poly: Poly, order: int) -> TwistorCurve:
    """Generate curve coefficients by iterating the curved recursion operator.

    Works for polynomial solutions of the second equation; coefficients are
    fixed by the zero-(w,z)-part convention, seeded with (w, z).
    """
    if theta_poly.chart != SECOND:
        raise ValueError("potential must live on the second-form chart")
    txx = theta_poly.diff("x").diff("x")
    tyy = theta_poly.diff("y").diff("y")
    txy = theta_poly.diff("x").diff("y")

    def curved_step(phi: Poly) -> Poly:
        rhs_y = phi.diff("w") - txy * phi.diff("y") + tyy * phi.diff("x")
        rhs_x = -(phi.diff("z") + txx * phi.diff("y") - txy * phi.diff("x"))
        if not (rhs_x.diff("y") - rhs_y.diff("x")).is_zero():
            raise ValueError("recursion relations are not integrable for this input")
        return rhs_x.integrate("x") + rhs_y.without("x").integrate("y")

    rows = []
    for seed_name in ("w", "z"):
        coeffs = [Poly.coordinate(seed_name, SECOND)]
        for _ in range(order):
            coeffs.append(curved_step(coeffs[-1]))
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


class PoleNotFoundError(ValueError):
    pass


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


def penrose_residue_transform(f: Expr, pole: Expr, p: Point,
                              params: Mapping[str, Number] | None = None) -> Fraction:
    """Residue of f(lam, mu0, mu1) at the declared pole, on the flat curve at p.

    ``f`` is an expression over the chart (lam, mu0, mu1); ``pole`` is an
    expression over the second-form chart giving the pole location at p.
    """
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

    rat = fold(f, leaf)
    pole_value = Fraction(ScalarField(SECOND, pole).value(p, params))
    return residue_at(rat, pole_value)


def recursion_on_twistor(f: Expr) -> Expr:
    """The twistor-side recursion operator: multiplication by 1/lam."""
    return div(f, Var("lam"))
