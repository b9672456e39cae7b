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
by a triangular table of sigma-monomials c sigma^j, stored as the numbers c
(``coeff_A``), and differentially by the recursion relations with the generic
second-form coefficients; both routes agree and every member is annihilated
by the background wave operator

    box = 2 (d_x d_w + d_y d_z + T_xx d_y^2 + T_yy d_x^2 - 2 T_xy d_x d_y),

which is twice the linearisation of the second equation.  Note box is paired
with the displayed Lax/recursion structure, not with the metric's display
convention; see the tetrads module docstring.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from typing import Iterable, Mapping, Sequence

from .jetcore import (
    Jet,
    Number,
    Point,
    Program,
    ScalarField,
    Var,
    add,
    const,
    div,
    free_vars,
    mul,
    neg,
    pow_,
    sub,
)
from .polynomials import Poly
from .tetrads import (
    SECOND,
    SecondPotential,
    lax_step_from_jets,
    linearized_from_jets,
    linearized_second_residual,
)

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


def recursion_step_poly(phi: Poly, theta: Poly | None = None) -> Poly:
    """R phi for polynomial phi: the zero-(w,z)-part solution of tetrads.lax_step_residual = 0.

    The background is flat unless a polynomial potential ``theta`` is given.
    """
    if phi.chart != SECOND:
        raise ValueError("recursion acts on the second-form chart")
    rhs_x = -phi.diff("z")
    rhs_y = phi.diff("w")
    if theta is not None:
        tx, ty = theta.diff("x"), theta.diff("y")
        txx, tyy, txy = tx.diff("x"), ty.diff("y"), tx.diff("y")
        rhs_x = rhs_x - txx * phi.diff("y") + txy * phi.diff("x")
        rhs_y = rhs_y - txy * phi.diff("y") + tyy * phi.diff("x")
    if not (rhs_x.diff("y") - rhs_y.diff("x")).is_zero():
        raise IntegrabilityError("input is not in the wave space of the background")
    out = rhs_x.integrate("x") + rhs_y.without("x").integrate("y")
    # construction gives d_x out = rhs_x and d_y out = rhs_y exactly
    return out


def recursion_power_poly(phi: Poly, k: int) -> Poly:
    for _ in range(k):
        phi = recursion_step_poly(phi)
    return phi


# ---------------------------------------------------------------------------
# sigma-monomial coefficient tables

@cache
def _entry(shift: int, n: int, k: int) -> Fraction:
    """The number c of entry (n, k) = c sigma^((n-1-k)/2), 0 <= k <= n, of the
    triangular table of the curved chain (shift 1) or of the curve coefficients
    (shift 2); c is 0 when n-1-k is odd.

    Row 1 is (1, 0); entry (n + 1, k) is entry (n, k - 1) plus
    -2 (k + 1) sigma / (n - k + shift) times entry (n, k + 1), an entry off
    the triangle being zero.  Both terms carry the same power of sigma, so the
    recurrence runs on the numbers alone; one table serves every numeric sigma,
    and the sigma = 0 specialisation is exact.
    """
    if n == 1:
        return Fraction(1 if k == 0 else 0)
    m = n - 1
    out = _entry(shift, m, k - 1) if k >= 1 else Fraction(0)
    if k + 1 <= m:
        out += Fraction(-2 * (k + 1), m - k + shift) * _entry(shift, m, k + 1)
    return out


def _lookup(shift: int, n: int, k: int) -> tuple[Fraction, int]:
    if k == -1:
        return Fraction(0), n // 2
    if n < 1 or k < 0 or k > n:
        raise IndexError(f"table entry ({n}, {k}) out of range")
    return _entry(shift, n, k), (n - 1 - k) // 2


def coeff_A(n: int, k: int) -> tuple[Fraction, int]:
    """Entry (n, k) of the chain's table as (c, j): the monomial c sigma^j."""
    return _lookup(1, n, k)


def coeff_B(n: int, k: int) -> tuple[Fraction, int]:
    """Entry (n, k) of the curve's table as (c, j): the monomial c sigma^j."""
    return _lookup(2, n, k)


# ---------------------------------------------------------------------------
# the curved chain

_Q = add(mul(W, X), mul(Z, Y))
_MYW = div(neg(Y), W)
SIGMA = Var("sigma")


def st_potential() -> SecondPotential:
    """The quadratic-pole potential sigma/(wx+zy) with symbolic sigma."""
    return SecondPotential(ScalarField(SECOND, div(SIGMA, _Q)))


def flat_phi(n: int) -> ScalarField:
    """(-y/w)^n / (wx+zy)."""
    e = div(pow_(_MYW, n), _Q) if n else div(const(1), _Q)
    return ScalarField(SECOND, e)


def table_sum(b, coeff, n: int, term) -> int:
    """sum_k coeff(n, k) term(k) from row n of table A or B, issued through a Program's
    builder ``b`` as the tree summing the terms left to right compiles: a zero entry
    dropped, an entry c sigma^j as c (unless 1) times sigma^j."""
    total = None
    for k in range(n + 1):
        c, j = coeff(n, k)
        if c:
            entry = b.times(None if c == 1 else b.tree(const(c)),
                            b.power(b.tree(SIGMA), j) if j else None)
            total = b.plus(total, term(k, entry))
    return total


def _psi(b, n: int) -> int:
    """Chain member psi_n = sum_k A(n,k) (-y/w)^k (wx+zy)^(k-n), sigma symbolic."""
    def term(k: int, entry: int | None) -> int:
        if k:
            entry = b.times(entry, b.power(b.tree(_MYW), k))
        return b.times(entry, b.power(b.tree(_Q), k - n)) if k < n else entry
    return table_sum(b, coeff_A, n, term)


def st_chain_program(n: int, pairs: Mapping[str, tuple[ScalarField, ScalarField]]) -> Program:
    """The potential sigma/(wx+zy), psi_1..psi_n, then both fields of each pair, as one
    program (see chain_residual_maxima); the members are issued from table A, no tree built."""
    if n < 1:
        raise IndexError("chain index starts at 1")
    members = [partial(_psi, n=m) for m in range(1, n + 1)]
    return Program([st_potential().field.expr, *members,
                    *(f.expr for pair in pairs.values() for f in pair)], SECOND)


def monomial_recursion_image(k: int, j: int) -> ScalarField:
    """Formal image of (-y/w)^k Q^j under one recursion step, sigma symbolic.

    The tail coefficient is 2k/(2-j); applied termwise to a chain member's
    expansion this reproduces the table recurrence exactly.  As a pointwise
    operator statement it only makes sense on the wave space, which the
    single monomials enter only for k in {0, 1} at j = -1.
    """
    if j == 2:
        raise ValueError("tail coefficient undefined at j = 2")
    e = mul(pow_(_MYW, k + 1), pow_(_Q, j))
    if k:
        correction = mul(mul(const(Fraction(2 * k, 2 - j)), SIGMA),
                         mul(pow_(_MYW, k - 1), pow_(_Q, j - 2)))
        e = sub(e, correction)
    return ScalarField(SECOND, e)


def monomial_action_pairs() -> dict[str, tuple[ScalarField, ScalarField]]:
    """The integrable cases of the formal monomial image, labelled: each maps to
    the pair (f, image of f) that the recursion relations must link.

    Checked by chain_residual_maxima, at the chain's points and in its fold.
    """
    return {f"monomial k={k} j={j}": (
        ScalarField(SECOND, mul(pow_(_MYW, k), pow_(_Q, j)) if k else pow_(_Q, j)),
        monomial_recursion_image(k, j)) for (k, j) in ((0, -1), (1, -1))}


def chain_residual_maxima(program: Program, members: int, points: Sequence[Point],
                          params: Mapping[str, Number] | None = None, pairs: Iterable[str] = ()
                          ) -> tuple[list, list, dict]:
    """Wave maxima of every chain member, link maxima of every consecutive pair,
    and the relation residuals of labelled extra pairs (phi, R phi) at each point.

    ``program``'s outputs are the potential, ``members`` chain members, then both
    fields of each pair labelled in ``pairs`` (st_chain_program, or a field_program).
    The wave residual (wave_residual) and both recursion relations between members
    i and i+1, or between the fields of a pair (lax_step_residual), are read off
    the order-2 jets of one run at each point.  Returns ``(wave, link, paired)``:
    wave[i] is max |box members[i]| and link[i] the max of |relation| over both
    relations for the pair (i, i+1), each over the points (the points' domain's
    zero when there are none); ``paired`` maps ``(label, p)`` to the larger
    |relation| of that pair at p, by label and then point.
    """
    waves: list[list] = [[] for _ in range(members)]
    links: list[list] = [[] for _ in range(members - 1)]
    paired: dict[str, list] = {label: [] for label in pairs}
    for p in points:
        theta_jet, *jets = program.jets(p, 2, params)
        for i, values in enumerate(waves):
            values.append(abs(2 * linearized_from_jets(theta_jet, jets[i])))
        for i, values in enumerate(links):
            values.extend(abs(r) for r in lax_step_from_jets(theta_jet, jets[i], jets[i + 1]))
        pair_jets = jets[members:]
        for values, phi, r_phi in zip(paired.values(), pair_jets[::2], pair_jets[1::2]):
            r1, r2 = lax_step_from_jets(theta_jet, phi, r_phi)
            values.append(max(abs(r1), abs(r2)))
    zero = points[0].domain.number(0) if points else Fraction(0)
    return ([max(v, default=zero) for v in waves], [max(v, default=zero) for v in links],
            {(label, p): r for label, values in paired.items() for p, r in zip(points, values)})


# ---------------------------------------------------------------------------
# gauge symmetries of the second equation

class DependencyError(ValueError):
    pass


def _require_wz_only(name: str, f: ScalarField):
    extra = free_vars(f.expr) - {"w", "z"}
    if extra:
        raise DependencyError(f"{name} must depend on (w, z) only, found {sorted(extra)}")


def gauge_symmetry_perturbation(F: ScalarField, G0: ScalarField, G1: ScalarField,
                                g: ScalarField, h: ScalarField, theta: SecondPotential,
                                p: Point, params: Mapping[str, Number] | None = None) -> Jet:
    """The order-2 jet at p of the symmetry perturbation generated by area-preserving
    data (F, G^A, g, h).

    All five inputs are functions of (w, z) only.  The perturbation solves the
    linearised equation around any solution background provided the pair
    (G0, G1) satisfies d_w G0 + d_z G1 = 0 (automatic when it is the
    symplectic gradient (m_z, -m_w) of a single function m).  It is

        F + x G0 + y G1 + g_zz x^2/2 - g_wz x y + g_ww y^2/2 - g_w T_x - g_z T_y
        - h_zzz x^3/6 + h_wzz x^2 y/2 - h_wwz x y^2/2 + h_www y^3/6 + h_w T_z - h_z T_w
        + (h_wz x - h_ww y) T_x + (h_zz x - h_wz y) T_y,

    built in jets from jets of the inputs (F and G^A of order 2, g of 4, h of
    5 and Theta of 3), each derivative read off one of them with ``Jet.d_jet``.
    """
    for name, f in (("F", F), ("G0", G0), ("G1", G1), ("g", g), ("h", h)):
        _require_wz_only(name, f)
    F, G0, G1 = (f.jet(p, 2, params) for f in (F, G0, G1))
    g, h, T = g.jet(p, 4, params), h.jet(p, 5, params), theta.field.jet(p, 3, params)

    def d(f: Jet, *names: str) -> Jet:
        return f.d_jet(*names).truncate(2)

    x, y = Jet.coordinate(2, p, 2), Jet.coordinate(3, p, 2)
    half, sixth = Jet.constant(Fraction(1, 2), p, 2), Jet.constant(Fraction(1, 6), p, 2)
    hw, hz, hww, hwz, hzz = d(h, "w"), d(h, "z"), d(h, "w", "w"), d(h, "w", "z"), d(h, "z", "z")
    tx, ty = d(T, "x"), d(T, "y")
    # the generator's linear part, then the quadratic tail and transport of the lower
    # generator, then the cubic tail and transport of the upper one
    return (F + x * G0 + y * G1
            + half * (d(g, "z", "z") * x * x + d(g, "w", "w") * y * y) - d(g, "w", "z") * x * y
            - d(g, "w") * tx - d(g, "z") * ty
            + sixth * (d(h, "w", "w", "w") * y * y * y - d(h, "z", "z", "z") * x * x * x)
            + half * (d(h, "w", "z", "z") * x * x * y - d(h, "w", "w", "z") * x * y * y)
            + hw * d(T, "z") - hz * d(T, "w") + (hwz * x - hww * y) * tx + (hzz * x - hwz * y) * ty)


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
