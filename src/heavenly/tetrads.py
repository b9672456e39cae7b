"""Heavenly potentials, null tetrads, metrics, self-dual two-forms and Lax pairs.

Index and sign conventions (the single normative table; every other module
defers to it)
===========================================================================

Spin-space metrics: eps_{01} = eps^{01} = 1 for both unprimed and primed
indices; raising/lowering never introduces extra signs beyond eps itself.

Second-form chart (w, z, x, y), potential Theta.  The null frame is

    V_{00'} = d/dx
    V_{01'} = -d/dz - Theta_xy d/dx + Theta_xx d/dy
    V_{10'} = d/dy
    V_{11'} =  d/dw - Theta_yy d/dx + Theta_xy d/dy

with dual coframe

    e^{00'} = dx + Theta_yy dw - Theta_xy dz
    e^{01'} = -dz
    e^{10'} = dy + Theta_xx dz - Theta_xy dw
    e^{11'} = dw

so that g = eps_{AB} eps_{A'B'} e^{AA'} e^{BB'} comes out as

    g = 2 dw dx + 2 dz dy + 2 Theta_yy dw^2 + 2 Theta_xx dz^2 - 4 Theta_xy dw dz

and the volume form e^{01'} ^ e^{10'} ^ e^{11'} ^ e^{00'} equals
dw ^ dz ^ dx ^ dy for every Theta.  This is the convention in which the
quadratic-pole potential sigma/(wx+zy) reproduces the metric
2dwdx + 2dzdy + 4 sigma (wx+zy)^-3 (w dz - z dw)^2 componentwise, and in
which the four-dimensional slice metric of the extended hierarchy agrees
with metric_from_tetrad.

The displayed Lax pair for the second equation,

    L_0 = d/dy - lam (d/dw - Theta_xy d/dy + Theta_yy d/dx)
    L_1 = d/dx + lam (d/dz + Theta_xx d/dy - Theta_xy d/dx),

is returned literally by lax_pair_theta.  Its span equals the span of the
frame-contracted fields V_{A0'} - lam V_{A1'} of the tetrad built from
-Theta: the metric display above and the displayed Lax/wave operators sit on
opposite sides of the involution Theta -> -Theta, which is invisible on the
quadratic-pole family (sigma -> -sigma maps solutions to solutions) but not
in general.  Consequently the wave operator paired with the displayed Lax
pair and recursion relations is

    box_Theta = 2 (d_x d_w + d_y d_z
                   + Theta_xx d_y^2 + Theta_yy d_x^2 - 2 Theta_xy d_x d_y)

(see recursion.wave_residual), while Sigma(lam)-annihilation statements hold
for the tetrad's own frame fields (Tetrad.lax_fields).

First-form chart (w, z, wt, zt), potential Omega.  Frame:

    V_{00'} = Omega_{w zt} d/dwt - Omega_{w wt} d/dzt
    V_{10'} = Omega_{z zt} d/dwt - Omega_{z wt} d/dzt
    V_{01'} = d/dw,   V_{11'} = d/dz

whose coframe 0'-legs are the inverse of the mixed Hessian block; on
solutions the metric is 2 Omega_{w^A wt^B} dw^A dwt^B.

Self-dual two-form triple, normalised so that omega ^ omega = -2 nu:

    alpha_tilde = -e^{00'} ^ e^{10'}
    omega       =  e^{00'} ^ e^{11'} + e^{01'} ^ e^{10'}
    alpha       =  e^{01'} ^ e^{11'}
    Sigma(lam)  =  alpha + lam omega - lam^2 alpha_tilde.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .jetcore import (
    Expr,
    Number,
    Point,
    ScalarField,
    ZERO,
    add,
    chart_coords,
    const,
    diff,
    mul,
    neg,
    sub,
)

SECOND = "second"
FIRST = "first"
PLANE_WAVE = "plane-wave"

SPIN_INDICES = ((0, 0), (0, 1), (1, 0), (1, 1))

EPS = {(0, 0): 0, (0, 1): 1, (1, 0): -1, (1, 1): 0}


# ---------------------------------------------------------------------------
# potentials and residuals

@dataclass(frozen=True)
class SecondPotential:
    field: ScalarField

    def __post_init__(self):
        if self.field.chart != SECOND:
            raise ValueError("second potential lives on chart (w, z, x, y)")


@dataclass(frozen=True)
class FirstPotential:
    field: ScalarField

    def __post_init__(self):
        if self.field.chart != FIRST:
            raise ValueError("first potential lives on chart (w, z, wt, zt)")


def second_heavenly_residual(theta: SecondPotential, p: Point,
                             params: Mapping[str, Number] | None = None) -> Number:
    """Theta_xw + Theta_yz + Theta_xx Theta_yy - Theta_xy^2 at p."""
    d = theta.field.jet(p, 2, params).d
    return d("x", "w") + d("y", "z") + d("x", "x") * d("y", "y") - d("x", "y") ** 2


def first_heavenly_residual(omega: FirstPotential, p: Point,
                            params: Mapping[str, Number] | None = None) -> Number:
    """Omega_{w zt} Omega_{z wt} - Omega_{w wt} Omega_{z zt} - 1 at p."""
    d = omega.field.jet(p, 2, params).d
    return d("w", "zt") * d("z", "wt") - d("w", "wt") * d("z", "zt") - 1


def linearized_second_residual(theta: SecondPotential, delta: ScalarField, p: Point,
                               params: Mapping[str, Number] | None = None) -> Number:
    """Background wave operator of the second equation applied to a perturbation."""
    dT = theta.field.jet(p, 2, params).d
    dD = delta.jet(p, 2, params).d
    return (dD("x", "w") + dD("y", "z")
            + dT("y", "y") * dD("x", "x") + dT("x", "x") * dD("y", "y")
            - 2 * dT("x", "y") * dD("x", "y"))


# ---------------------------------------------------------------------------
# tetrads

@dataclass(frozen=True)
class Tetrad:
    """Null frame/coframe pair; rows are indexed by (A, A'), columns by chart coords."""

    chart: str
    frame: dict[tuple[int, int], tuple[ScalarField, ...]]
    coframe: dict[tuple[int, int], tuple[ScalarField, ...]]

    def frame_values(self, p: Point, params=None) -> dict[tuple[int, int], tuple[Number, ...]]:
        return {k: tuple(f.value(p, params) for f in v) for k, v in self.frame.items()}

    def coframe_values(self, p: Point, params=None) -> dict[tuple[int, int], tuple[Number, ...]]:
        return {k: tuple(f.value(p, params) for f in v) for k, v in self.coframe.items()}

    def volume_component(self) -> ScalarField:
        """Coefficient of the coordinate volume form in e^{01'}^e^{10'}^e^{11'}^e^{00'}."""
        order = [(0, 1), (1, 0), (1, 1), (0, 0)]
        e = ZERO
        for perm, sign in _PERMUTATIONS4:
            t: Expr = const(sign)
            for row, col in zip(order, perm):
                t = mul(t, self.coframe[row][col].expr)
            e = add(e, t)
        return ScalarField(self.chart, e)

    def lax_fields(self, lam) -> tuple[tuple[ScalarField, ...], tuple[ScalarField, ...]]:
        """Frame-contracted fields V_{A0'} - lam V_{A1'}; they annihilate Sigma(lam)."""
        out = []
        for A in (0, 1):
            comps = []
            for i in range(len(chart_coords(self.chart))):
                e = sub(self.frame[(A, 0)][i].expr,
                        mul(const(Fraction(lam)), self.frame[(A, 1)][i].expr))
                comps.append(ScalarField(self.chart, e))
            out.append(tuple(comps))
        return tuple(out)  # type: ignore[return-value]


_PERMUTATIONS4 = []


def _init_permutations():
    import itertools
    for perm in itertools.permutations(range(4)):
        sign = 1
        seen = [False] * 4
        for i in range(4):
            if seen[i]:
                continue
            j = i
            length = 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        _PERMUTATIONS4.append((perm, sign))


_init_permutations()


def _sf(chart: str, e: Expr) -> ScalarField:
    return ScalarField(chart, e)


def tetrad_from_theta(theta: SecondPotential) -> Tetrad:
    """Null tetrad of the second-form metric (conventions in the module docstring)."""
    T = theta.field.expr
    txx = diff(diff(T, "x"), "x")
    tyy = diff(diff(T, "y"), "y")
    txy = diff(diff(T, "x"), "y")
    c, zero, one = SECOND, ZERO, const(1)
    m_one = const(-1)
    frame = {
        (0, 0): (zero, zero, one, zero),
        (0, 1): (zero, m_one, neg(txy), txx),
        (1, 0): (zero, zero, zero, one),
        (1, 1): (one, zero, neg(tyy), txy),
    }
    coframe = {
        (0, 0): (tyy, neg(txy), one, zero),
        (0, 1): (zero, m_one, zero, zero),
        (1, 0): (neg(txy), txx, zero, one),
        (1, 1): (one, zero, zero, zero),
    }
    return Tetrad(c,
                  {k: tuple(_sf(c, e) for e in v) for k, v in frame.items()},
                  {k: tuple(_sf(c, e) for e in v) for k, v in coframe.items()})


class DegenerateHessianError(ValueError):
    """The mixed second-derivative block of the first potential is singular."""


def tetrad_from_omega(omega: FirstPotential) -> Tetrad:
    """Null tetrad of the first-form metric; needs the mixed Hessian invertible.

    An identically singular block fails here; a pointwise-singular one fails
    with a pole error when the coframe is evaluated.
    """
    O = omega.field.expr
    h = {(a, b): diff(diff(O, a), b) for a in ("w", "z") for b in ("wt", "zt")}
    c = FIRST
    zero, one = ZERO, const(1)
    # frame 0'-legs: V_{A0'} = Omega_{w^A zt} d/dwt - Omega_{w^A wt} d/dzt
    frame = {
        (0, 0): (zero, zero, h[("w", "zt")], neg(h[("w", "wt")])),
        (1, 0): (zero, zero, h[("z", "zt")], neg(h[("z", "wt")])),
        (0, 1): (one, zero, zero, zero),
        (1, 1): (zero, one, zero, zero),
    }
    # coframe 0'-legs: inverse transpose of the 2x2 block [[O_wzt, -O_wwt], [O_zzt, -O_zwt]]
    b11, b12 = h[("w", "zt")], neg(h[("w", "wt")])
    b21, b22 = h[("z", "zt")], neg(h[("z", "wt")])
    blockdet = sub(mul(b11, b22), mul(b12, b21))  # = -det(Hessian block) up to sign
    from .jetcore import div as ediv
    try:
        inv = {
            (0, 0): ediv(b22, blockdet), (0, 1): ediv(neg(b21), blockdet),
            (1, 0): ediv(neg(b12), blockdet), (1, 1): ediv(b11, blockdet),
        }
    except ZeroDivisionError:
        raise DegenerateHessianError("mixed Hessian block is identically singular") from None
    coframe = {
        (0, 0): (zero, zero, inv[(0, 0)], inv[(0, 1)]),
        (1, 0): (zero, zero, inv[(1, 0)], inv[(1, 1)]),
        (0, 1): (one, zero, zero, zero),
        (1, 1): (zero, one, zero, zero),
    }
    return Tetrad(c,
                  {k: tuple(_sf(c, e) for e in v) for k, v in frame.items()},
                  {k: tuple(_sf(c, e) for e in v) for k, v in coframe.items()})


def plane_wave_tetrad(f: ScalarField) -> Tetrad:
    """Tetrad for 2 dw dq + 2 dz dp + f(q, z) dz^2 on the chart (w, z, q, p)."""
    if f.chart != PLANE_WAVE:
        raise ValueError("profile must live on the plane-wave chart")
    extra = {v for v in _free(f) if v not in ("q", "z")}
    if extra:
        raise ValueError(f"profile must depend on (q, z) only, found {sorted(extra)}")
    c = PLANE_WAVE
    zero, one, m_one = ZERO, const(1), const(-1)
    half_f = mul(const(Fraction(1, 2)), f.expr)
    frame = {
        (0, 0): (zero, zero, one, zero),
        (0, 1): (zero, m_one, zero, half_f),
        (1, 0): (zero, zero, zero, one),
        (1, 1): (one, zero, zero, zero),
    }
    coframe = {
        (0, 0): (zero, zero, one, zero),
        (0, 1): (zero, m_one, zero, zero),
        (1, 0): (zero, half_f, zero, one),
        (1, 1): (one, zero, zero, zero),
    }
    return Tetrad(c,
                  {k: tuple(_sf(c, e) for e in v) for k, v in frame.items()},
                  {k: tuple(_sf(c, e) for e in v) for k, v in coframe.items()})


def _free(f: ScalarField):
    from .jetcore import free_vars
    return free_vars(f.expr)


# ---------------------------------------------------------------------------
# metric

@dataclass(frozen=True)
class MetricField:
    """Symmetric metric components g_ab as scalar fields."""

    chart: str
    components: tuple[tuple[ScalarField, ...], ...]

    def matrix_values(self, p: Point, params=None) -> list[list[Number]]:
        return [[f.value(p, params) for f in row] for row in self.components]


def metric_from_tetrad(t: Tetrad) -> MetricField:
    """g_ab = eps_AB eps_A'B' e^AA'_a e^BB'_b, expanded on the coordinate basis."""
    n = len(chart_coords(t.chart))
    comps = [[ZERO for _ in range(n)] for _ in range(n)]
    pairs = (((0, 0), (1, 1), 1), ((0, 1), (1, 0), -1))
    for (r1, r2, sgn) in pairs:
        e1, e2 = t.coframe[r1], t.coframe[r2]
        for a in range(n):
            for b in range(n):
                term = mul(e1[a].expr, e2[b].expr)
                term2 = mul(e1[b].expr, e2[a].expr)
                s = add(term, term2)
                if sgn < 0:
                    s = neg(s)
                comps[a][b] = add(comps[a][b], s)
    return MetricField(t.chart, tuple(tuple(_sf(t.chart, e) for e in row) for row in comps))


# ---------------------------------------------------------------------------
# two-forms and the self-dual triple

@dataclass(frozen=True)
class TwoForm:
    """Antisymmetric components on the coordinate basis; keys (a, b) with a < b."""

    chart: str
    components: dict[tuple[int, int], ScalarField]

    def value(self, a: int, b: int, p: Point, params=None) -> Number:
        if a == b:
            return Fraction(0) if p.mode == "exact" else 0.0
        if a < b:
            return self.components[(a, b)].value(p, params)
        return -self.components[(b, a)].value(p, params)

    def contract_vector(self, comps: tuple[Number, ...], p: Point, params=None) -> tuple[Number, ...]:
        """Interior product with a vector given by component values at p."""
        n = len(chart_coords(self.chart))
        out = []
        for b in range(n):
            s = 0
            for a in range(n):
                s += comps[a] * self.value(a, b, p, params)
            out.append(s)
        return tuple(out)

    def wedge_volume_coefficient(self, other: "TwoForm") -> ScalarField:
        """Coefficient of the coordinate volume form in self ^ other (4 coords only)."""
        n = len(chart_coords(self.chart))
        if n != 4:
            raise ValueError("wedge to a volume form needs a 4-coordinate chart")
        e = ZERO
        import itertools
        for (a, b) in itertools.combinations(range(4), 2):
            c, d = tuple(i for i in range(4) if i not in (a, b))
            sign = _perm_sign((a, b, c, d))
            term = mul(self.components[(a, b)].expr, other.components[(c, d)].expr)
            e = add(e, mul(const(sign), term))
        return ScalarField(self.chart, e)

    def exterior_derivative_values(self, p: Point, params=None) -> dict[tuple[int, int, int], Number]:
        """(d self)_{abc} for a<b<c, evaluated at p from component jets."""
        import itertools
        n = len(chart_coords(self.chart))
        grads = {k: f.jet(p, 1, params).grad() for k, f in self.components.items()}

        def dcomp(i: int, a: int, b: int) -> Number:
            if a == b:
                return 0
            key = (a, b) if a < b else (b, a)
            sgn = 1 if a < b else -1
            return sgn * grads[key][i]

        out = {}
        for (a, b, c) in itertools.combinations(range(n), 3):
            out[(a, b, c)] = dcomp(a, b, c) - dcomp(b, a, c) + dcomp(c, a, b)
        return out


def _perm_sign(perm: tuple[int, ...]) -> int:
    sign = 1
    p = list(perm)
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


def _wedge(chart: str, u: tuple[Expr, ...], v: tuple[Expr, ...]) -> TwoForm:
    n = len(chart_coords(chart))
    comps = {}
    for a in range(n):
        for b in range(a + 1, n):
            comps[(a, b)] = _sf(chart, sub(mul(u[a], v[b]), mul(u[b], v[a])))
    return TwoForm(chart, comps)


@dataclass(frozen=True)
class SigmaForms:
    """The triple (alpha_tilde, omega, alpha) normalised by omega^omega = -2 nu."""

    chart: str
    alpha_tilde: TwoForm
    omega: TwoForm
    alpha: TwoForm

    def pencil(self, lam) -> TwoForm:
        """Sigma(lam) = alpha + lam omega - lam^2 alpha_tilde."""
        lam = Fraction(lam)
        comps = {}
        for key in self.alpha.components:
            e = add(self.alpha.components[key].expr,
                    mul(const(lam), self.omega.components[key].expr))
            e = sub(e, mul(const(lam * lam), self.alpha_tilde.components[key].expr))
            comps[key] = _sf(self.chart, e)
        return TwoForm(self.chart, comps)


def sigma_forms(t: Tetrad) -> SigmaForms:
    e = {k: tuple(f.expr for f in v) for k, v in t.coframe.items()}
    alpha_tilde_neg = _wedge(t.chart, e[(0, 0)], e[(1, 0)])  # Sigma^{0'0'}
    alpha = _wedge(t.chart, e[(0, 1)], e[(1, 1)])            # Sigma^{1'1'}
    w1 = _wedge(t.chart, e[(0, 0)], e[(1, 1)])
    w2 = _wedge(t.chart, e[(0, 1)], e[(1, 0)])
    omega = TwoForm(t.chart, {k: _sf(t.chart, add(w1.components[k].expr, w2.components[k].expr))
                              for k in w1.components})
    alpha_tilde = TwoForm(t.chart, {k: _sf(t.chart, neg(f.expr))
                                    for k, f in alpha_tilde_neg.components.items()})
    return SigmaForms(t.chart, alpha_tilde, omega, alpha)


# ---------------------------------------------------------------------------
# Lax pairs

@dataclass(frozen=True)
class LaxPair:
    """Two vector fields affine in the spectral parameter, at a fixed value of it."""

    chart: str
    lam: Fraction
    constant: tuple[tuple[ScalarField, ...], tuple[ScalarField, ...]]
    linear: tuple[tuple[ScalarField, ...], tuple[ScalarField, ...]]

    def components(self, A: int) -> tuple[ScalarField, ...]:
        out = []
        for c, l in zip(self.constant[A], self.linear[A]):
            out.append(_sf(self.chart, add(c.expr, mul(const(self.lam), l.expr))))
        return tuple(out)


def lax_pair_theta(theta: SecondPotential, lam) -> LaxPair:
    """L_0 = d_y - lam(d_w - T_xy d_y + T_yy d_x), L_1 = d_x + lam(d_z + T_xx d_y - T_xy d_x)."""
    T = theta.field.expr
    txx = diff(diff(T, "x"), "x")
    tyy = diff(diff(T, "y"), "y")
    txy = diff(diff(T, "x"), "y")
    zero, one = ZERO, const(1)
    c = SECOND
    const0 = (zero, zero, zero, one)           # d_y
    lin0 = (const(-1), zero, neg(tyy), txy)    # -(d_w - T_xy d_y + T_yy d_x)
    const1 = (zero, zero, one, zero)           # d_x
    lin1 = (zero, one, neg(txy), txx)          # +(d_z + T_xx d_y - T_xy d_x)
    return LaxPair(c, Fraction(lam),
                   (tuple(_sf(c, e) for e in const0), tuple(_sf(c, e) for e in const1)),
                   (tuple(_sf(c, e) for e in lin0), tuple(_sf(c, e) for e in lin1)))


def lax_pair_omega(omega: FirstPotential, lam) -> LaxPair:
    """L_0 = O_wwt d_zt - O_wzt d_wt - lam d_w, L_1 = O_zwt d_zt - O_zzt d_wt - lam d_z."""
    O = omega.field.expr
    h = {(a, b): diff(diff(O, a), b) for a in ("w", "z") for b in ("wt", "zt")}
    zero = ZERO
    c = FIRST
    const0 = (zero, zero, neg(h[("w", "zt")]), h[("w", "wt")])
    lin0 = (const(-1), zero, zero, zero)
    const1 = (zero, zero, neg(h[("z", "zt")]), h[("z", "wt")])
    lin1 = (zero, const(-1), zero, zero)
    return LaxPair(c, Fraction(lam),
                   (tuple(_sf(c, e) for e in const0), tuple(_sf(c, e) for e in const1)),
                   (tuple(_sf(c, e) for e in lin0), tuple(_sf(c, e) for e in lin1)))


def vector_commutator_values(u: tuple[ScalarField, ...], v: tuple[ScalarField, ...],
                             p: Point, params=None) -> tuple[Number, ...]:
    """[U, V]^a = U^b d_b V^a - V^b d_b U^a evaluated at p (order-1 jets)."""
    ju = [f.jet(p, 1, params) for f in u]
    jv = [f.jet(p, 1, params) for f in v]
    uval = [j.value for j in ju]
    vval = [j.value for j in jv]
    du = [j.grad() for j in ju]
    dv = [j.grad() for j in jv]
    n = len(ju)
    out = []
    for a in range(n):
        s = 0
        for b in range(n):
            s += uval[b] * dv[a][b] - vval[b] * du[a][b]
        out.append(s)
    return tuple(out)


def lax_commutator_residual(lp: LaxPair, p: Point,
                            params: Mapping[str, Number] | None = None) -> tuple[Number, ...]:
    """The four components of [L_0, L_1] at p for the pair's fixed parameter value."""
    return vector_commutator_values(lp.components(0), lp.components(1), p, params)
