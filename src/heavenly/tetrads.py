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

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple

from .jetcore import (
    Expr,
    Jet,
    Number,
    Point,
    PoleError,
    ScalarField,
    ZERO,
    add,
    chart_coords,
    common_denominator,
    const,
    diff,
    div,
    divider,
    field_values,
    free_vars,
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


# the named partials the Lax and wave read-outs take (see Jet.d_numerators)
_W, _Z, _X, _Y = ("w",), ("z",), ("x",), ("y",)
_XX, _YY, _XY, _XW, _YZ = ("x", "x"), ("y", "y"), ("x", "y"), ("x", "w"), ("y", "z")


def linearized_second_residual(theta: SecondPotential, delta: ScalarField, p: Point,
                               params: Mapping[str, Number] | None = None) -> Number:
    """Background wave operator of the second equation applied to a perturbation."""
    return linearized_from_jets(theta.field.jet(p, 2, params), delta.jet(p, 2, params))


def linearized_from_jets(theta_jet: Jet, delta_jet: Jet) -> Number:
    """linearized_second_residual from order-2 jets of the potential and the perturbation.

    Callers that apply the operator to many perturbations at one point share
    the potential's jet.
    """
    (tyy, txx, txy), dt = theta_jet.d_numerators(_YY, _XX, _XY)
    (dxw, dyz, dxx, dyy, dxy), dd = delta_jet.d_numerators(_XW, _YZ, _XX, _YY, _XY)
    return divider(theta_jet.mode)(
        dxw * dt + dyz * dt + tyy * dxx + txx * dyy - 2 * txy * dxy, dt * dd)


# ---------------------------------------------------------------------------
# tetrads

@dataclass(frozen=True)
class Tetrad:
    """Null frame/coframe pair; rows are indexed by (A, A'), columns by chart coords."""

    chart: str
    frame: dict[tuple[int, int], tuple[ScalarField, ...]]
    coframe: dict[tuple[int, int], tuple[ScalarField, ...]]

    def frame_values(self, p: Point, params=None) -> dict[tuple[int, int], tuple[Number, ...]]:
        return dict(zip(self.frame, _row_values(self.frame.values(), p, params)))

    def coframe_values(self, p: Point, params=None) -> dict[tuple[int, int], tuple[Number, ...]]:
        return dict(zip(self.coframe, _row_values(self.coframe.values(), p, params)))

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


def _row_values(rows, p: Point, params) -> list[tuple[Number, ...]]:
    """The values at p of every row of fields, folded through one memo."""
    values = iter(field_values([f for row in rows for f in row], p, params))
    return [tuple(next(values) for _ in row) for row in rows]


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
    try:
        inv = {
            (0, 0): div(b22, blockdet), (0, 1): div(neg(b21), blockdet),
            (1, 0): div(neg(b12), blockdet), (1, 1): div(b11, blockdet),
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


def _require_profile(f: ScalarField) -> None:
    """A plane-wave profile lives on the plane-wave chart and depends on (q, z) only."""
    if f.chart != PLANE_WAVE:
        raise ValueError("profile must live on the plane-wave chart")
    extra = {v for v in free_vars(f.expr) if v not in ("q", "z")}
    if extra:
        raise ValueError(f"profile must depend on (q, z) only, found {sorted(extra)}")


def plane_wave_tetrad(f: ScalarField) -> Tetrad:
    """Tetrad for 2 dw dq + 2 dz dp + f(q, z) dz^2 on the chart (w, z, q, p)."""
    _require_profile(f)
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


# ---------------------------------------------------------------------------
# metric

@dataclass(frozen=True)
class MetricField:
    """Symmetric metric components g_ab as scalar fields."""

    chart: str
    components: tuple[tuple[ScalarField, ...], ...]

    def matrix_values(self, p: Point, params=None) -> list[list[Number]]:
        return [list(row) for row in _row_values(self.components, p, params)]


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
# metric jets and frame values from one jet of the primary field

FrameValues = dict[tuple[int, int], tuple[Number, ...]]
JetMatrix = list[list[Jet]]


class FieldGeometry(NamedTuple):
    """A metric and its null frame, read off one jet of one scalar field per point.

    ``field`` is the primary field (Theta, Omega or a plane-wave profile) and
    ``order`` the order of its jet that holds the metric's order-2 jets: 4
    for a potential, whose metric and frame components are its second
    partials, 2 for a profile, which is a metric component itself.  ``read``
    maps that jet to the order-2 metric jets g_ab (nested lists, a symmetric
    pair sharing one jet), their inverse through order 1 in closed form, and
    the frame values as ``Tetrad.frame_values`` gives them.  All three equal
    those of the entry's tetrad, ``metric_from_tetrad`` and a matrix inverse
    exactly, with no symbolic derivative and no elimination.
    """

    field: ScalarField
    order: int
    read: Callable[[Jet], tuple[JetMatrix, JetMatrix, FrameValues]]

    def at(self, p: Point, params=None) -> tuple[JetMatrix, JetMatrix, FrameValues]:
        return self.read(self.field.jet(p, self.order, params))


def _numbers(jet: Jet):
    """The mode's 0, 1 and -1 as frame values, and the constant order-2 jets 0 and 1."""
    number = float if jet.mode == "float" else Fraction
    zero, one = (Jet.constant(v, jet.center, 2) for v in (0, 1))
    return number(0), number(1), number(-1), zero, one


def _paired_form(ww: Jet, wz: Jet, zz: Jet, zero: Jet, one: Jet) -> tuple[JetMatrix, JetMatrix]:
    """g = [[P, I], [I, 0]] in (w, z | x, y) with P = [[ww, wz], [wz, zz]], and its
    inverse [[0, I], [I, -P]] through order 1: linear in P, with no product."""
    g = [[ww, wz, one, zero], [wz, zz, zero, one], [one, zero, zero, zero], [zero, one, zero, zero]]
    o, i = zero.truncate(1), one.truncate(1)
    mww, mwz, mzz = (-x.truncate(1) for x in (ww, wz, zz))
    return g, [[o, o, i, o], [o, o, o, i], [i, o, mww, mwz], [o, i, mwz, mzz]]


def _second_form_geometry(theta_jet: Jet) -> tuple[JetMatrix, JetMatrix, FrameValues]:
    """g = 2 dw dx + 2 dz dy + 2 Theta_yy dw^2 + 2 Theta_xx dz^2 - 4 Theta_xy dw dz,
    its inverse and the frame of tetrad_from_theta, from an order-4 jet of Theta."""
    txx, txy, tyy = (theta_jet.d_jet(*names) for names in (_XX, _XY, _YY))
    n0, n1, m1, zero, one = _numbers(theta_jet)
    g, ginv = _paired_form(tyy + tyy, -(txy + txy), txx + txx, zero, one)
    xx, xy, yy = txx.value, txy.value, tyy.value
    frame = {(0, 0): (n0, n0, n1, n0), (0, 1): (n0, m1, -xy, xx),
             (1, 0): (n0, n0, n0, n1), (1, 1): (n1, n0, -yy, xy)}
    return g, ginv, frame


def _first_form_geometry(omega_jet: Jet) -> tuple[JetMatrix, JetMatrix, FrameValues]:
    """The metric, its inverse and the frame of tetrad_from_omega from an order-4
    jet of Omega.

    With H the mixed Hessian block Omega_{w^A wt^B} and s = -1/det H (one
    inversion), g = [[0, M], [M^T, 0]] with M = s H; on a solution det H = -1,
    so g = H.  Its inverse is [[0, M^-T], [M^-1, 0]] with M^-1 = -adj H.
    """
    h = {(a, b): omega_jet.d_jet(a, b) for a in ("w", "z") for b in ("wt", "zt")}
    det = h[("w", "wt")] * h[("z", "zt")] - h[("w", "zt")] * h[("z", "wt")]
    if not det.value:
        raise PoleError("det of the mixed Hessian block")
    s = -det.reciprocal()
    n0, n1, _, zero, _ = _numbers(omega_jet)
    w_wt, w_zt, z_wt, z_zt = (x * s for x in h.values())
    g = [[zero, zero, w_wt, w_zt],
         [zero, zero, z_wt, z_zt],
         [w_wt, z_wt, zero, zero],
         [w_zt, z_zt, zero, zero]]
    o = zero.truncate(1)
    h00, h01, h10, h11 = (x.truncate(1) for x in h.values())
    ginv = [[o, o, -h11, h10], [o, o, h01, -h00], [-h11, h01, o, o], [h10, -h00, o, o]]
    v = {k: x.value for k, x in h.items()}
    frame = {(0, 0): (n0, n0, v[("w", "zt")], -v[("w", "wt")]),
             (1, 0): (n0, n0, v[("z", "zt")], -v[("z", "wt")]),
             (0, 1): (n1, n0, n0, n0), (1, 1): (n0, n1, n0, n0)}
    return g, ginv, frame


def _plane_wave_geometry(f_jet: Jet) -> tuple[JetMatrix, JetMatrix, FrameValues]:
    """2 dw dq + 2 dz dp + f dz^2, its inverse and the frame of plane_wave_tetrad,
    from an order-2 jet of f."""
    n0, n1, m1, zero, one = _numbers(f_jet)
    g, ginv = _paired_form(zero, zero, f_jet, zero, one)
    frame = {(0, 0): (n0, n0, n1, n0), (0, 1): (n0, m1, n0, f_jet.value / 2),
             (1, 0): (n0, n0, n0, n1), (1, 1): (n1, n0, n0, n0)}
    return g, ginv, frame


def geometry_from_theta(theta: SecondPotential) -> FieldGeometry:
    """The second-form metric and frame (as tetrad_from_theta) off Theta's order-4 jet."""
    return FieldGeometry(theta.field, 4, _second_form_geometry)


def geometry_from_omega(omega: FirstPotential) -> FieldGeometry:
    """The first-form metric and frame (as tetrad_from_omega) off Omega's order-4 jet.

    A point where the mixed Hessian block is singular raises ``PoleError``.
    """
    return FieldGeometry(omega.field, 4, _first_form_geometry)


def plane_wave_geometry(f: ScalarField) -> FieldGeometry:
    """The plane-wave metric and frame (as plane_wave_tetrad) off f's order-2 jet."""
    _require_profile(f)
    return FieldGeometry(f, 2, _plane_wave_geometry)


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
        for (a, b) in itertools.combinations(range(4), 2):
            c, d = tuple(i for i in range(4) if i not in (a, b))
            sign = _perm_sign((a, b, c, d))
            term = mul(self.components[(a, b)].expr, other.components[(c, d)].expr)
            e = add(e, mul(const(sign), term))
        return ScalarField(self.chart, e)

    def exterior_derivative_values(self, p: Point, params=None) -> dict[tuple[int, int, int], Number]:
        """(d self)_{abc} for a<b<c, evaluated at p from component jets."""
        coords = chart_coords(self.chart)
        n = len(coords)
        grads = {k: [*map(f.jet(p, 1, params).d, coords)] for k, f in self.components.items()}

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


_PERMUTATIONS4 = [(perm, _perm_sign(perm)) for perm in itertools.permutations(range(4))]


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


def lax_step_residual(theta: SecondPotential, phi: ScalarField, r_phi: ScalarField, p: Point,
                      params: Mapping[str, Number] | None = None) -> tuple[Number, Number]:
    """The recursion relation between phi and R phi at p, read off jets.

    Returns (d_y Rphi - (d_w - T_xy d_y + T_yy d_x) phi,
             d_x Rphi + (d_z + T_xx d_y - T_xy d_x) phi), the lam^1 coefficients
    of L_0 and L_1 of lax_pair_theta applied to phi + lam R phi.
    """
    return lax_step_from_jets(theta.field.jet(p, 2, params), phi.jet(p, 1, params),
                              r_phi.jet(p, 1, params))


def lax_step_from_jets(theta_jet: Jet, phi_jet: Jet, r_phi_jet: Jet) -> tuple[Number, Number]:
    """lax_step_residual from an order-2 jet of the potential and jets of phi and R phi.

    The jets of phi and R phi need order 1 or more; only their first partials
    are read.  Callers that relate many pairs at one point evaluate each jet
    once and share it.
    """
    (txx, tyy, txy), dt = theta_jet.d_numerators(_XX, _YY, _XY)
    (fw, fz, fx, fy), df = phi_jet.d_numerators(_W, _Z, _X, _Y)
    (rx, ry), dr = r_phi_jet.d_numerators(_X, _Y)
    q, tf = divider(theta_jet.mode), dt * df
    return (q(ry * tf - dr * (fw * dt - txy * fy + tyy * fx), dr * tf),
            q(rx * tf + dr * (fz * dt + txx * fy - txy * fx), dr * tf))


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
    """[U, V]^a = U^b d_b V^a - V^b d_b U^a evaluated at p (order-1 jets).

    U's values and gradients go over one common denominator Du and V's over
    Dv, so each component is an integer sum over Du Dv, divided once.
    """
    n = len(u)
    first = [(c,) for c in chart_coords(p.chart)]
    U, du = common_denominator([f.jet(p, 1, params).d_numerators((), *first) for f in u])
    V, dv = common_denominator([f.jet(p, 1, params).d_numerators((), *first) for f in v])
    q = divider(p.mode)
    return tuple(q(sum(U[b][0] * V[a][1 + b] - V[b][0] * U[a][1 + b] for b in range(n)), du * dv)
                 for a in range(n))


def lax_commutator_residual(lp: LaxPair, p: Point,
                            params: Mapping[str, Number] | None = None) -> tuple[Number, ...]:
    """The four components of [L_0, L_1] at p for the pair's fixed parameter value."""
    return vector_commutator_values(lp.components(0), lp.components(1), p, params)
