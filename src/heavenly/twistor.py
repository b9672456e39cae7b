"""Twistor curves, their annihilation by the Lax pair and the residue transform.

A curve is a pair of truncated series in the fibre coordinate lam, held as
one compiled ``Program`` on the second-form chart whose outputs are mu0's
coefficients of lam^0..lam^N, then mu1's.  The flat curve is
(w + lam y, z - lam x) (``flat_curve_program``); the curved quadratic-pole
curve carries tails built from the B coefficient table
(``st_curve_program``), and ``series_solve_omega`` iterates the polynomial
recursion operator.  Order-by-order annihilation by the background Lax
fields is the verification criterion: orders below the truncation must
vanish identically, the top two orders are truncation debris and reported
separately.

The residue transform maps rational functions of (lam, mu0, mu1) to scalar
fields by taking the residue in lam at a caller-declared pole after
substituting the flat curve.  Normalisation is fixed by
transform(1/(mu0 mu1)) at the pole lam = -w/y being 1/(wx+zy); on twistor
data the recursion operator is multiplication by 1/lam.  A rational
function of lam (``RatLambda``) holds its numerator and denominator as
``polynomials.Poly``s on the one-coordinate chart ``lam``, so each of its
ring operations is one line of ``Poly`` arithmetic: ``Poly`` is the
package's only polynomial type.
"""

from __future__ import annotations

from fractions import Fraction
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
    kept,
    mul,
    neg,
    pow_,
)
from .polynomials import Poly
from .recursion import SIGMA, coeff_B, recursion_step_poly, table_sum
from .tetrads import SECOND, SecondPotential, lax_step_from_jets


@kept(limit=16)
def flat_curve_program(order: int) -> Program:
    """The flat curve's coefficients of lam^0..lam^order, mu0's (w, y, 0, ...) then
    mu1's (z, -x, 0, ...), as one program, one per order and process."""
    pad = [ZERO] * max(0, order - 1)
    return Program([Var("w"), Var("y"), *pad, Var("z"), neg(Var("x")), *pad], SECOND)


@kept(limit=16)
def st_curve_program(order: int) -> Program:
    """The quadratic-pole curve's coefficients of lam^0..lam^order, mu0's then mu1's,
    sigma symbolic, as one program, one per order and process.  Row n of table B gives
    the lam^(n+1) tails (n >= 1) as trees (see table_sum):
      mu0: sigma sum_k B(n,k) w (-y/w)^k Q^(k-n-1)
      mu1: sigma sum_k B(n,k) z (x/z)^k  Q^(k-n-1)
    so the first tails are -lam^2 Theta_x and -lam^2 Theta_y respectively.
    """
    if order < 1:
        raise ValueError("order must be at least 1")

    def tail(n: int, base: Expr, ratio: Expr) -> Expr:
        def term(k: int, entry: Expr) -> Expr:
            return mul(mul(entry, mul(base, pow_(Q, k - n - 1))), pow_(ratio, k))
        return mul(SIGMA, table_sum(coeff_B, n, term))

    w, z, x, y = Var("w"), Var("z"), Var("x"), Var("y")
    Q = add(mul(w, x), mul(z, y))
    mu0 = [w, y, *(tail(n, w, div(neg(y), w)) for n in range(1, order))]
    mu1 = [z, neg(x), *(tail(n, z, div(x, z)) for n in range(1, order))]
    return Program(mu0 + mu1, SECOND)


def lax_annihilation_residual(curve: Program, theta: SecondPotential, p: Point,
                              params: Mapping[str, Number] | None = None) -> dict:
    """Expand L_A(mu^B) in powers of lam at p.

    ``curve``'s outputs are mu0's coefficients of lam^0..lam^N, then mu1's
    (flat_curve_program, st_curve_program, series_solve_omega).  The lam^r
    coefficient of L_A(mu^B) is recursion relation A of tetrads.lax_step_residual
    between the curve coefficients r-1 and r, computed by tetrads.lax_step_from_jets
    from one jet of the potential and, from one run of ``curve``, one of each
    coefficient.
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


def series_solve_omega(theta_poly: Poly, order: int) -> Program:
    """Generate curve coefficients by iterating the curved recursion operator.

    Works for polynomial solutions of the second equation; coefficients are
    fixed by the zero-(w,z)-part convention, seeded with (w, z).  Returns the
    coefficients of lam^0..lam^order, mu0's then mu1's, as one program.
    """
    if theta_poly.chart != SECOND:
        raise ValueError("potential must live on the second-form chart")
    fields = []
    for seed_name in ("w", "z"):
        c = Poly.coordinate(seed_name, SECOND)
        fields.append(c.to_field())
        for _ in range(order):
            c = recursion_step_poly(c, theta_poly)
            fields.append(c.to_field())
    return field_program(fields)


# ---------------------------------------------------------------------------
# residue transform

def _shifted(a: Mapping[tuple[int], int], c: Fraction, m: int | None = None) -> list[Fraction]:
    """The coefficients of a(c + t) in ascending powers of t, a's numerators keyed by
    (power,) as ``Poly.numerators`` gives them (Horner-style Taylor shift), only the
    first m of them if m is given."""
    out: list[Fraction] = []
    for k in range(max(a, default=(-1,))[0], -1, -1):
        # out <- out * (c + t) + a_k, cut after m terms
        new = [c * v for v in out]
        new.append(Fraction(0))
        for i, v in enumerate(out):
            new[i + 1] += v
        new[0] += a.get((k,), 0)
        out = new[:m]
    return out


class RatLambda:
    """Univariate rational function in lam over exact rationals, its numerator and
    denominator ``Poly``s on the chart ``lam``: no factor is cancelled."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.num, self.den = num, den

    @staticmethod
    def constant(c) -> "RatLambda":
        return RatLambda(Poly.constant(c, "lam"), Poly.constant(1, "lam"))

    @staticmethod
    def lam() -> "RatLambda":
        return RatLambda(Poly.coordinate("lam", "lam"), Poly.constant(1, "lam"))

    def __add__(self, o):
        return RatLambda(self.num * o.den + o.num * self.den, self.den * o.den)

    def __sub__(self, o):
        return RatLambda(self.num * o.den - o.num * self.den, self.den * o.den)

    def __mul__(self, o):
        return RatLambda(self.num * o.num, self.den * o.den)

    def __truediv__(self, o):
        if o.num.is_zero():
            raise ZeroDivisionError("division by identically zero rational function")
        return RatLambda(self.num * o.den, self.den * o.num)

    def __pow__(self, k: int):
        """f^k, f^-k as (1/f)^k."""
        if k < 0:
            return RatLambda(self.den, self.num) ** (-k)
        return RatLambda(self.num ** k, self.den ** k)

    def __neg__(self):
        return RatLambda(-self.num, self.den)


def residue_at(f: RatLambda, pole: Fraction) -> Fraction:
    """Residue of f dlam at lam = pole (any finite pole order).

    A regular point has residue zero (a small contour around it encloses
    nothing); callers that require an actual pole should check separately.
    """
    (num_nums, dn), (den_nums, dd) = f.num.numerators(), f.den.numerators()
    den = _shifted(den_nums, pole)
    m = next(i for i, c in enumerate(den) if c)   # the pole order; den is not zero
    if m == 0:
        return Fraction(0)
    # the residue is the coefficient of t^(m-1) in num(t) / den_red(t), t = lam - pole,
    # which reads the first m coefficients of num: series-invert den_red to order m-1.
    # Both are the integer numerators, so the sum is scaled by dd / dn once
    num = _shifted(num_nums, pole, m)
    den_red = den[m:]
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
    for i, c in enumerate(num):
        res += c * inv[order - i]
    return res * dd / dn


class NotAPoleError(EvaluationError):
    """The declared pole is a regular point of f on the curve."""


def on_flat_curve(f: Program, p: Point, params: Mapping | None = None) -> RatLambda:
    """f(lam, mu0, mu1), compiled, on the flat curve (w + lam y, z - lam x) at p."""
    if p.chart != SECOND:
        raise ValueError("evaluation point must live on the second-form chart")
    w, z, x, y = map(RatLambda.constant, p.values)
    lam = RatLambda.lam()
    env = {"lam": lam, "mu0": w + lam * y, "mu1": z - lam * x}
    env.update({k: RatLambda.constant(v) for k, v in (params or {}).items()})

    def leaf(e: Expr) -> RatLambda:
        if isinstance(e, Const):
            return RatLambda.constant(e.value)
        if e.name not in env:
            raise EvaluationError(f"unbound symbol {e.name!r}")
        return env[e.name]

    return f.run(leaf)[0]


class _Degrees:
    """Bounds on the lam-degrees of a :class:`RatLambda`'s numerator and denominator, as
    its operations form them (none cancels a factor).  Each operation forms degrees at
    least its operands', so a fold's result bounds every degree met on the way (x^0,
    which a parsed tree never holds, keeps x's degrees)."""

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int):
        self.num, self.den = num, den

    def __add__(self, o):
        return _Degrees(max(self.num + o.den, o.num + self.den), self.den + o.den)

    __sub__ = __add__

    def __mul__(self, o):
        return _Degrees(self.num + o.num, self.den + o.den)

    def __truediv__(self, o):
        return _Degrees(self.num + o.den, self.den + o.num)

    def __pow__(self, k: int):
        num, den = (self.num, self.den) if k >= 0 else (self.den, self.num)
        n = abs(k) or 1
        return _Degrees(n * num, n * den)

    def __neg__(self):
        return self


def lam_degree(f: Program) -> int:
    """A bound on every lam-degree of a numerator or denominator that
    :func:`on_flat_curve` forms while folding f, from one run of f's program over
    degrees (lam, mu0 and mu1 of degree 1, every other leaf 0): the work a transform
    of f asks for."""
    one, zero = _Degrees(1, 0), _Degrees(0, 0)
    out = f.run(lambda e: one if isinstance(e, Var) and e.name in ("lam", "mu0", "mu1")
                else zero)[0]
    return max(out.num, out.den)


def penrose_residue_transform(f: Program, pole: ScalarField, p: Point,
                              params: Mapping[str, Number] | None = None) -> Fraction:
    """Residue of f(lam, mu0, mu1), compiled, at the declared pole, a field over the
    second-form chart, on the flat curve at p (on_flat_curve).  A pole that cancels at p
    has residue 0; a regular point raises NotAPoleError (0 is no evidence)."""
    rat = on_flat_curve(f, p, params)
    pole_value = Fraction(pole.value(p, params))
    value = residue_at(rat, pole_value)   # a nonzero residue needs a pole: check only a 0
    if not value and (den := rat.den.eval(Point("lam", (pole_value,)))):
        raise NotAPoleError(f"f's denominator is {den} at lam = {pole_value}, not 0")
    return value


def recursion_on_twistor(f: Expr) -> Expr:
    """The twistor-side recursion operator: multiplication by 1/lam."""
    return div(f, Var("lam"))
