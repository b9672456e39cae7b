"""The recursion operator on linearised solutions and its exact consequences.

Flat background: the operator R is defined on polynomials by the relations
(R phi)_y = phi_w, (R phi)_x = -phi_z, with the additive function of (w, z)
set to zero (the inversion is only determined up to such a function; the
zero choice reproduces every closed-form chain in scope).  The spinor frame
used for Killing/neutrino statements is

    N_{00'} = d_x,  N_{01'} = -d_z,  N_{10'} = d_y,  N_{11'} = d_w,

the flat limit of the tetrad frame in :mod:`heavenly.tetrads`, under which
the defining relation N_{A1'} phi = N_{A0'} R phi is exactly the pair above.

Curved background sigma/(wx+zy): the chain psi_n is generated algebraically
by a triangular table of sigma-polynomials and differentially by the
recursion relations with the generic second-form coefficients; both routes
agree and every member is annihilated by the background wave operator

    box = 2 (d_x d_w + d_y d_z + T_xx d_y^2 + T_yy d_x^2 - 2 T_xy d_x d_y),

which is twice the linearisation of the second equation.  Note box is paired
with the displayed Lax/recursion structure, not with metric_from_tetrad's
display convention; see the tetrads module docstring.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .jetcore import (
    Expr,
    Number,
    Point,
    ScalarField,
    Var,
    ZERO,
    add,
    const,
    free_vars,
    mul,
    neg,
    pow_,
    sub,
)
from .polynomials import Poly, UniPoly, uni, uni_add, uni_eval, uni_expr, uni_mul
from .tetrads import SECOND, SecondPotential, linearized_second_residual

W, Z, X, Y = Var("w"), Var("z"), Var("x"), Var("y")


# ---------------------------------------------------------------------------
# wave operator

def wave_residual(theta: SecondPotential, phi: ScalarField, p: Point,
                  params: Mapping[str, Number] | None = None) -> Number:
    """Background wave operator on phi; equals 2x the linearised residual."""
    return 2 * linearized_second_residual(theta, phi, p, params)


# ---------------------------------------------------------------------------
# flat polynomial recursion

class IntegrabilityError(ValueError):
    """The recursion relations are inconsistent for this input (not a wave solution)."""


def flat_wave_poly(phi: Poly) -> Poly:
    return phi.diff("x").diff("w") + phi.diff("y").diff("z")


def recursion_step_poly(phi: Poly) -> Poly:
    """R phi for polynomial phi on the flat background, zero (w,z)-only part."""
    if phi.chart != SECOND:
        raise ValueError("flat recursion acts on the second-form chart")
    rhs_x = -phi.diff("z")
    rhs_y = phi.diff("w")
    if not (rhs_x.diff("y") - rhs_y.diff("x")).is_zero():
        raise IntegrabilityError("input is not in the flat wave space")
    out = rhs_x.integrate("x") + rhs_y.without("x").integrate("y")
    # construction gives d_x out = rhs_x and d_y out = rhs_y exactly
    return out


def recursion_power_poly(phi: Poly, k: int) -> Poly:
    for _ in range(k):
        phi = recursion_step_poly(phi)
    return phi


# ---------------------------------------------------------------------------
# sigma-polynomial coefficient tables

class CoeffTable:
    """Triangular tables for the curved chain and the curve coefficients.

    Entries are polynomials in sigma (``UniPoly`` tuples); one table serves
    every numeric sigma, and the sigma=0 specialisation is exact.  Seeds: row
    1 is (1, 0) for both tables; out-of-range column indices mean zero.  Rows
    are built on demand, so any row n >= 1 can be looked up.
    """

    def __init__(self):
        self.rows = 1
        self._a: dict[tuple[int, int], UniPoly] = {(1, 0): uni((1,)), (1, 1): ()}
        self._b: dict[tuple[int, int], UniPoly] = {(1, 0): uni((1,)), (1, 1): ()}

    def _extend(self, rows: int) -> None:
        for n in range(self.rows, rows):
            for k in range(0, n + 2):
                self._a[(n + 1, k)] = self._step(self._a, n, k, shift=1)
                self._b[(n + 1, k)] = self._step(self._b, n, k, shift=2)
            self.rows = n + 1

    @staticmethod
    def _step(table, n: int, k: int, shift: int) -> UniPoly:
        out = table.get((n, k - 1), ()) if k - 1 >= 0 else ()
        if k + 1 <= n:
            factor = Fraction(-2 * (k + 1), n - k + shift)
            out = uni_add(out, uni_mul(table[(n, k + 1)], (Fraction(0), factor)))
        return out

    def _lookup(self, table, n: int, k: int) -> UniPoly:
        if k == -1:
            return ()
        if n < 1 or k < 0 or k > n:
            raise IndexError(f"table entry ({n}, {k}) out of range")
        self._extend(n)
        return table[(n, k)]

    def coeff_A(self, n: int, k: int) -> UniPoly:
        return self._lookup(self._a, n, k)

    def coeff_B(self, n: int, k: int) -> UniPoly:
        return self._lookup(self._b, n, k)


_TABLE = CoeffTable()


def coeff_A(n: int, k: int) -> UniPoly:
    return _TABLE.coeff_A(n, k)


def coeff_B(n: int, k: int) -> UniPoly:
    return _TABLE.coeff_B(n, k)


def sigma_poly_eval(a: UniPoly, sigma) -> Fraction:
    return uni_eval(a, Fraction(sigma))


# ---------------------------------------------------------------------------
# the curved chain

_Q = add(mul(W, X), mul(Z, Y))
_MYW = neg(Var("y"))


def st_potential() -> SecondPotential:
    """The quadratic-pole potential sigma/(wx+zy) with symbolic sigma."""
    from .jetcore import div
    return SecondPotential(ScalarField(SECOND, div(Var("sigma"), _Q)))


def flat_phi(n: int) -> ScalarField:
    """(-y/w)^n / (wx+zy)."""
    from .jetcore import div
    e = div(pow_(div(neg(Y), W), n), _Q) if n else div(const(1), _Q)
    return ScalarField(SECOND, e)


def st_psi(n: int) -> ScalarField:
    """Chain member sum_k A(n,k) (-y/w)^k (wx+zy)^(k-n), sigma symbolic."""
    from .jetcore import div
    if n < 1:
        raise IndexError("chain index starts at 1")
    e: Expr = ZERO
    for k in range(n + 1):
        a = coeff_A(n, k)
        if not a:
            continue
        term = uni_expr(a, "sigma")
        if k:
            term = mul(term, pow_(div(neg(Y), W), k))
        term = mul(term, pow_(_Q, k - n))
        e = add(e, term)
    return ScalarField(SECOND, e)


def st_recursion_rhs(field: ScalarField) -> tuple[ScalarField, ScalarField]:
    """Right-hand sides (for d_y R psi and -d_x R psi) on the curved background."""
    theta = st_potential().field
    txx = theta.diff("x").diff("x").expr
    tyy = theta.diff("y").diff("y").expr
    txy = theta.diff("x").diff("y").expr
    f = field.expr
    rhs_y = add(sub(_d(f, "w"), mul(txy, _d(f, "y"))), mul(tyy, _d(f, "x")))
    rhs_x = sub(add(_d(f, "z"), mul(txx, _d(f, "y"))), mul(txy, _d(f, "x")))
    return ScalarField(SECOND, rhs_y), ScalarField(SECOND, rhs_x)


def _d(e: Expr, v: str) -> Expr:
    from .jetcore import diff
    return diff(e, v)


def recursion_step_st(n: int, sigma, points: Sequence[Point]) -> dict:
    """Check both curved recursion relations between chain members n and n+1.

    Also checks the closed-form action of R on monomials (-y/w)^k Q^j used to
    generate the table (for the exponents that occur in the chain).
    """
    params = {"sigma": Fraction(sigma)}
    psi_n, psi_n1 = st_psi(n), st_psi(n + 1)
    rhs_y, rhs_x = st_recursion_rhs(psi_n)
    residuals = []
    failures = []
    for p in points:
        r1 = psi_n1.diff("y").value(p, params) - rhs_y.value(p, params)
        r2 = -psi_n1.diff("x").value(p, params) - rhs_x.value(p, params)
        for tag, r in (("d_y relation", r1), ("d_x relation", r2)):
            if r != 0:
                failures.append({"relation": tag, "point": p, "residual": r})
            residuals.append(abs(r))
    mono = _monomial_action_check(sigma, points)
    # the points' own zero when every residual vanishes (0.0 in float mode)
    worst = max(residuals, default=Fraction(0))
    return {"n": n, "max_abs_residual": worst, "failures": failures + mono,
            "verdict": "pass" if not failures and not mono else "fail"}


def monomial_recursion_image(k: int, j: int) -> ScalarField:
    """Formal image of (-y/w)^k Q^j under one recursion step, sigma symbolic.

    The tail coefficient is 2k/(2-j); applied termwise to a chain member's
    expansion this reproduces the table recurrence exactly.  As a pointwise
    operator statement it only makes sense on the wave space, which the
    single monomials enter only for k in {0, 1} at j = -1.
    """
    from .jetcore import div
    if j == 2:
        raise ValueError("tail coefficient undefined at j = 2")
    myw = div(neg(Y), W)
    e = mul(pow_(myw, k + 1), pow_(_Q, j))
    if k:
        correction = mul(mul(const(Fraction(2 * k, 2 - j)), Var("sigma")),
                         mul(pow_(myw, k - 1), pow_(_Q, j - 2)))
        e = sub(e, correction)
    return ScalarField(SECOND, e)


def _monomial_action_check(sigma, points: Sequence[Point]) -> list:
    """Differential check of the formal monomial image on its integrable cases."""
    from .jetcore import div
    params = {"sigma": Fraction(sigma)}
    failures = []
    for (k, j) in ((0, -1), (1, -1)):
        myw = div(neg(Y), W)
        f = mul(pow_(myw, k), pow_(_Q, j)) if k else pow_(_Q, j)
        rhs_y, rhs_x = st_recursion_rhs(ScalarField(SECOND, f))
        Rf_field = monomial_recursion_image(k, j)
        for p in points:
            r1 = Rf_field.diff("y").value(p, params) - rhs_y.value(p, params)
            r2 = -Rf_field.diff("x").value(p, params) - rhs_x.value(p, params)
            if r1 != 0 or r2 != 0:
                failures.append({"relation": f"monomial k={k} j={j}", "point": p,
                                 "residual": max(abs(r1), abs(r2))})
    return failures


def formal_step_consistency(n: int, sigma, points: Sequence[Point]) -> Fraction:
    """Max |termwise formal image of psi_n minus psi_{n+1}| over the points."""
    from .jetcore import div
    params = {"sigma": Fraction(sigma)}
    worst = Fraction(0)
    for p in points:
        total = 0
        for k in range(n + 1):
            a = coeff_A(n, k)
            if not a:
                continue
            img = monomial_recursion_image(k, k - n)
            total += sigma_poly_eval(a, sigma) * img.value(p, params)
        worst = max(worst, abs(total - st_psi(n + 1).value(p, params)))
    return worst


def st_wave_check(n: int, sigma, points: Sequence[Point]) -> Fraction:
    """Max |box psi_n| over the points (exactly zero for every chain member)."""
    params = {"sigma": Fraction(sigma)}
    theta = st_potential()
    psi = st_psi(n)
    return max(abs(wave_residual(theta, psi, p, params)) for p in points)


# ---------------------------------------------------------------------------
# gauge symmetries of the second equation

class DependencyError(ValueError):
    pass


def _require_wz_only(name: str, f: ScalarField):
    extra = free_vars(f.expr) - {"w", "z"}
    if extra:
        raise DependencyError(f"{name} must depend on (w, z) only, found {sorted(extra)}")


def gauge_symmetry_perturbation(F: ScalarField, G0: ScalarField, G1: ScalarField,
                                g: ScalarField, h: ScalarField,
                                theta: SecondPotential) -> ScalarField:
    """Symmetry perturbation generated by area-preserving data (F, G^A, g, h).

    All five inputs are functions of (w, z) only.  The output solves the
    linearised equation around any solution background provided the pair
    (G0, G1) satisfies d_w G0 + d_z G1 = 0 (automatic when it is the
    symplectic gradient (m_z, -m_w) of a single function m).
    """
    for name, f in (("F", F), ("G0", G0), ("G1", G1), ("g", g), ("h", h)):
        _require_wz_only(name, f)
    T = theta.field.expr
    gww, gwz, gzz = _d(_d(g.expr, "w"), "w"), _d(_d(g.expr, "w"), "z"), _d(_d(g.expr, "z"), "z")
    hw, hz = _d(h.expr, "w"), _d(h.expr, "z")
    hww, hwz, hzz = _d(hw, "w"), _d(hw, "z"), _d(hz, "z")
    hwww, hwwz, hwzz, hzzz = _d(hww, "w"), _d(hww, "z"), _d(hwz, "z"), _d(hzz, "z")
    Tx, Ty, Tw, Tz = _d(T, "x"), _d(T, "y"), _d(T, "w"), _d(T, "z")
    half = const(Fraction(1, 2))
    sixth = const(Fraction(1, 6))

    e: Expr = F.expr
    e = add(e, add(mul(X, G0.expr), mul(Y, G1.expr)))
    # quadratic tail and transport of the lower generator
    e = add(e, mul(half, mul(gzz, pow_(X, 2))))
    e = sub(e, mul(gwz, mul(X, Y)))
    e = add(e, mul(half, mul(gww, pow_(Y, 2))))
    e = sub(e, mul(_d(g.expr, "w"), Tx))
    e = sub(e, mul(_d(g.expr, "z"), Ty))
    # cubic tail and transport of the upper generator
    e = sub(e, mul(sixth, mul(hzzz, pow_(X, 3))))
    e = add(e, mul(half, mul(hwzz, mul(pow_(X, 2), Y))))
    e = sub(e, mul(half, mul(hwwz, mul(X, pow_(Y, 2)))))
    e = add(e, mul(sixth, mul(hwww, pow_(Y, 3))))
    e = add(e, sub(mul(hw, Tz), mul(hz, Tw)))
    e = add(e, mul(sub(mul(hwz, X), mul(hww, Y)), Tx))
    e = add(e, mul(sub(mul(hzz, X), mul(hwz, Y)), Ty))
    return ScalarField(SECOND, e)


# ---------------------------------------------------------------------------
# Killing chains on the flat background

# flat spinor frame: N_{00'} = d_x, N_{01'} = -d_z, N_{10'} = d_y, N_{11'} = d_w
def _n_apply(A: int, Ap: int, f: Poly) -> Poly:
    if (A, Ap) == (0, 0):
        return f.diff("x")
    if (A, Ap) == (0, 1):
        return -f.diff("z")
    if (A, Ap) == (1, 0):
        return f.diff("y")
    return f.diff("w")


@dataclass
class KillingChain:
    """Components L_0..L_n of a rank-n symmetric solution of the Killing relation."""

    n: int
    components: tuple[Poly, ...]

    def contracted_relation_residuals(self) -> list[Poly]:
        """i N_{A1'} L_{i-1} + (n-i+1) N_{A0'} L_i for i = 1..n, both A."""
        out = []
        for i in range(1, self.n + 1):
            for A in (0, 1):
                r = (_n_apply(A, 1, self.components[i - 1]).scale(i)
                     + _n_apply(A, 0, self.components[i]).scale(self.n - i + 1))
                out.append(r)
        return out

    def kspinor_residuals(self) -> list[Poly]:
        """Componentwise symmetrised Killing equation for the assembled spinor.

        The chain member L_i is the spinor component with i indices equal to 1'
        (so the component with j zeros is T_j = L_{n-j}); the symmetrised
        gradient component with m zeros among n+1 indices is
        m/(n+1) N^A_{0'} T_{m-1} + (n+1-m)/(n+1) N^A_{1'} T_m.
        """
        n = self.n
        T = [self.components[n - j] for j in range(n + 1)]
        out = []
        # N^A_{B'} = eps^{AC} N_{C B'}:  N^0_{B'} = N_{1B'},  N^1_{B'} = -N_{0B'}
        def nup(A, Bp, f):
            return _n_apply(1, Bp, f) if A == 0 else -_n_apply(0, Bp, f)
        for A in (0, 1):
            for m in range(0, n + 2):
                r = Poly.zero(SECOND)
                if m >= 1:
                    r = r + nup(A, 0, T[m - 1]).scale(Fraction(m, n + 1))
                if m <= n:
                    r = r + nup(A, 1, T[m]).scale(Fraction(n + 1 - m, n + 1))
                out.append(r)
        return out


class TerminationError(ValueError):
    pass


def killing_chain_flat(L0: Poly, n: int) -> KillingChain:
    """Build L_i = (-1)^i C(n,i)^{-1} R^i L_0 from seed data L_0(w, z)."""
    from math import comb
    if L0.depends_on("x") or L0.depends_on("y"):
        raise ValueError("seed must be independent of (x, y)")
    comps = []
    r_power = L0
    for i in range(n + 1):
        comps.append(r_power.scale(Fraction((-1) ** i, comb(n, i))))
        r_power = recursion_step_poly(r_power)
    if not r_power.is_zero():
        raise TerminationError("R^{n+1} L_0 does not vanish under the zero-constant convention")
    return KillingChain(n, tuple(comps))


# ---------------------------------------------------------------------------
# neutrino (charge-free, helicity -1/2) recursion

def zrm_recursion(phi: Poly) -> dict:
    """psi_A = N_{A0'} phi and its recursion image, with divergence checks.

    Returns components for the pair (psi, R psi) and the two divergence
    residuals of each, which vanish exactly on the flat wave space.
    """
    rphi = recursion_step_poly(phi)
    psi = (_n_apply(0, 0, phi), _n_apply(1, 0, phi))
    rpsi = (_n_apply(0, 0, rphi), _n_apply(1, 0, rphi))

    def divergences(pair):
        # div^{A'} psi = eps^{AB} eps^{A'B'} N_{BB'} psi_A, per primed component
        d0 = _n_apply(1, 1, pair[0]) - _n_apply(0, 1, pair[1])
        d1 = -(_n_apply(1, 0, pair[0]) - _n_apply(0, 0, pair[1]))
        return (d0, d1)

    return {"psi": psi, "r_psi": rpsi,
            "psi_divergence": divergences(psi),
            "r_psi_divergence": divergences(rpsi)}
