"""Heavenly potentials, their metrics and null frames, and Lax pairs.

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
with it.  :class:`FieldGeometry` reads this metric and frame off one jet of
the potential; the symbolic trees of the tetrad, of g expanded from its
coframe (``metric_from_tetrad``) and of the two-forms below live in
``tests/geometry_oracle.py`` as the test reference.

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
for the tetrad's own frame fields V_{A0'} - lam V_{A1'} (checked on the tree
reference in ``tests/geometry_oracle.py``).

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
from typing import Callable, Mapping, NamedTuple

from .jetcore import (
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
    free_vars,
    mul,
    neg,
)

SECOND = "second"
FIRST = "first"
PLANE_WAVE = "plane-wave"

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
    return theta_jet.domain.divide(
        dxw * dt + dyz * dt + tyy * dxx + txx * dyy - 2 * txy * dxy, dt * dd)


def _require_profile(f: ScalarField) -> None:
    """A plane-wave profile lives on the plane-wave chart and depends on (q, z) only."""
    if f.chart != PLANE_WAVE:
        raise ValueError("profile must live on the plane-wave chart")
    extra = {v for v in free_vars(f.expr) if v not in ("q", "z")}
    if extra:
        raise ValueError(f"profile must depend on (q, z) only, found {sorted(extra)}")


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
    the frame values keyed by (A, A').  All three equal exactly those of the
    symbolic tetrad and metric trees and their Gauss-Jordan inverse, the test
    reference in ``tests/geometry_oracle.py``, with no symbolic derivative
    and no elimination.
    """

    field: ScalarField
    order: int
    read: Callable[[Jet], tuple[JetMatrix, JetMatrix, FrameValues]]

    def at(self, p: Point, params=None) -> tuple[JetMatrix, JetMatrix, FrameValues]:
        return self.read(self.field.jet(p, self.order, params))


def _numbers(jet: Jet):
    """The domain's 0, 1 and -1 as frame values, and the constant order-2 jets 0 and 1."""
    number = jet.domain.number
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
    its inverse and the frame of the module docstring, from an order-4 jet of Theta."""
    txx, txy, tyy = (theta_jet.d_jet(*names) for names in (_XX, _XY, _YY))
    n0, n1, m1, zero, one = _numbers(theta_jet)
    g, ginv = _paired_form(tyy + tyy, -(txy + txy), txx + txx, zero, one)
    xx, xy, yy = txx.value, txy.value, tyy.value
    frame = {(0, 0): (n0, n0, n1, n0), (0, 1): (n0, m1, -xy, xx),
             (1, 0): (n0, n0, n0, n1), (1, 1): (n1, n0, -yy, xy)}
    return g, ginv, frame


def _first_form_geometry(omega_jet: Jet) -> tuple[JetMatrix, JetMatrix, FrameValues]:
    """The metric, its inverse and the frame of the module docstring from an
    order-4 jet of Omega.

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
    """2 dw dq + 2 dz dp + f dz^2, its inverse and the frame V_{00'} = d/dq,
    V_{01'} = -d/dz + (f/2) d/dp, V_{10'} = d/dp, V_{11'} = d/dw, from an
    order-2 jet of f."""
    n0, n1, m1, zero, one = _numbers(f_jet)
    g, ginv = _paired_form(zero, zero, f_jet, zero, one)
    frame = {(0, 0): (n0, n0, n1, n0), (0, 1): (n0, m1, n0, f_jet.value / 2),
             (1, 0): (n0, n0, n0, n1), (1, 1): (n1, n0, n0, n0)}
    return g, ginv, frame


def geometry_from_theta(theta: SecondPotential) -> FieldGeometry:
    """The second-form metric and frame of the module docstring off Theta's order-4 jet."""
    return FieldGeometry(theta.field, 4, _second_form_geometry)


def geometry_from_omega(omega: FirstPotential) -> FieldGeometry:
    """The first-form metric and frame of the module docstring off Omega's order-4 jet.

    A point where the mixed Hessian block is singular raises ``PoleError``.
    """
    return FieldGeometry(omega.field, 4, _first_form_geometry)


def plane_wave_geometry(f: ScalarField) -> FieldGeometry:
    """The plane-wave metric and frame off f's order-2 jet."""
    _require_profile(f)
    return FieldGeometry(f, 2, _plane_wave_geometry)


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
            out.append(ScalarField(self.chart, add(c.expr, mul(const(self.lam), l.expr))))
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
    const0, const1, lin0, lin1 = (tuple(ScalarField(c, e) for e in comps)
                                  for comps in (const0, const1, lin0, lin1))
    return LaxPair(c, Fraction(lam), (const0, const1), (lin0, lin1))


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
    q, tf = theta_jet.domain.divide, dt * df
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
    const0, const1, lin0, lin1 = (tuple(ScalarField(c, e) for e in comps)
                                  for comps in (const0, const1, lin0, lin1))
    return LaxPair(c, Fraction(lam), (const0, const1), (lin0, lin1))


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
    q = p.domain.divide
    return tuple(q(sum(U[b][0] * V[a][1 + b] - V[b][0] * U[a][1 + b] for b in range(n)), du * dv)
                 for a in range(n))


def lax_commutator_residual(lp: LaxPair, p: Point,
                            params: Mapping[str, Number] | None = None) -> tuple[Number, ...]:
    """The four components of [L_0, L_1] at p for the pair's fixed parameter value."""
    return vector_commutator_values(lp.components(0), lp.components(1), p, params)
