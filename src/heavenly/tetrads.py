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

is what lax_pair_theta reads off Theta's jet at a point.  Its span equals
the span of the frame-contracted fields V_{A0'} - lam V_{A1'} of the tetrad
built from -Theta: the metric display above and the displayed Lax/wave
operators sit on opposite sides of the involution Theta -> -Theta, which is
invisible on the quadratic-pole family (sigma -> -sigma maps solutions to
solutions) but not in general.  Consequently the wave operator paired with
the displayed Lax pair and recursion relations is

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
from typing import Callable, Mapping, NamedTuple

from .jetcore import (
    Jet,
    Number,
    Point,
    PoleError,
    ScalarField,
    chart_coords,
    common_denominator,
    free_vars,
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
# metric tables and frame values from one jet of the primary field

# a metric table (rows, Dg): the row of g_ab, a <= b in UPPER order, holds over Dg the numerators
# of g_ab's value, its first partials and its second partials d_c d_e, c <= e in UPPER order
MetricTable = tuple[list[list[Number]], int]
# the inverse's values g^ab as a 4x4 matrix of numerators over one Di
InverseTable = tuple[list[list[Number]], int]
# the null frame's components V_AA'^a, keyed by (A, A'), as numerators over one Df
FrameTable = tuple[dict[tuple[int, int], tuple[Number, ...]], int]
UPPER = [(a, b) for a in range(4) for b in range(a, 4)]
_COLUMNS = {chart: [(), *((c,) for c in x), *((x[c], x[e]) for c, e in UPPER)]
            for chart in (SECOND, FIRST, PLANE_WAVE) for x in [chart_coords(chart)]}
# the rows of Theta_yy, Theta_xy and Theta_xx, read off Theta in one read-out
_THETA_ROWS = tuple(n + d for n in (_YY, _XY, _XX) for d in _COLUMNS[SECOND])
# Omega's mixed Hessian block Omega_{w^A wt^B}: _{w wt}, _{w zt}, _{z wt}, _{z zt}
_MIXED = tuple((a, b) for a in ("w", "z") for b in ("wt", "zt"))
# each geometry kind's sparsity (see FieldGeometry)
_SECOND_SPARSITY = ("vvc0v0c000", "0010000110110111", "0010011100011011")
_FIRST_SPARSITY = ("00vv0vv000", "0011001111001100", "0011001110000100")
_PLANE_WAVE_SPARSITY = ("00c0v0c000", "0010000110000101", "0010010100011000")


class FieldGeometry(NamedTuple):
    """A metric and its null frame, read off one jet of one scalar field per point.

    ``field`` is the primary field (Theta, Omega or a plane-wave profile) and
    ``order`` the order of its jet that holds the metric through its second
    partials: 4 for a potential, whose metric and frame components are its
    second partials, 2 for a profile, which is a metric component itself.
    ``read`` maps that jet to the metric's ``MetricTable`` (each row read off
    the jet by name with ``Jet.d_numerators``, or a constant Dg or 0), its
    inverse's ``InverseTable`` in closed form and the frame's ``FrameTable``,
    all numerators of the jet's read-outs with nothing divided.  Their values
    equal exactly those of the symbolic tetrad and metric trees and their
    Gauss-Jordan inverse, the test reference in ``tests/geometry_oracle.py``,
    with no symbolic derivative, no elimination and no jet product but the
    first form's det H and s H.  ``sparsity`` is the zeros ``read`` puts in them at every
    point: a letter per table row, 0 (all zero), c (a constant) or v, and a digit per
    inverse entry, row by row, and frame component, in the frame's order, 0 or 1.
    """

    field: ScalarField
    order: int
    read: Callable[[Jet], tuple[MetricTable, InverseTable, FrameTable]]
    sparsity: tuple[str, str, str]

    def at(self, p: Point, params=None) -> tuple[MetricTable, InverseTable, FrameTable]:
        return self.read(self.field.jet(p, self.order, params))


def _paired_form(ww: list, wz: list, zz: list, dg: int, domain) -> tuple[MetricTable, InverseTable]:
    """The table of g = [[P, I], [I, 0]] in (w, z | x, y), P = [[ww, wz], [wz, zz]] as rows
    over dg, and its inverse [[0, I], [I, -P]] over dg: linear in P, with no product."""
    o, i = domain.zero, dg + domain.zero
    nil, one = [o] * 15, [i, *[o] * 14]
    return (([ww, wz, one, nil, zz, nil, one, nil, nil, nil], dg),
            ([[o, o, i, o], [o, o, o, i], [i, o, -ww[0], -wz[0]], [o, i, -wz[0], -zz[0]]], dg))


def _second_form_geometry(theta_jet: Jet) -> tuple[MetricTable, InverseTable, FrameTable]:
    """g = 2 dw dx + 2 dz dy + 2 Theta_yy dw^2 + 2 Theta_xx dz^2 - 4 Theta_xy dw dz,
    its inverse and the frame of the module docstring, from an order-4 jet of Theta."""
    nums, dg = theta_jet.d_numerators(*_THETA_ROWS)
    domain, tyy, txy, txx = theta_jet.domain, nums[:15], nums[15:30], nums[30:]
    table, ginv = _paired_form([2 * x for x in tyy], [-2 * x + domain.zero for x in txy],
                               [2 * x for x in txx], dg, domain)
    o, i, xx, xy, yy = domain.zero, dg + domain.zero, txx[0], txy[0], tyy[0]
    frame = {(0, 0): (o, o, i, o), (0, 1): (o, -i, -xy, xx),
             (1, 0): (o, o, o, i), (1, 1): (i, o, -yy, xy)}
    return table, ginv, (frame, dg)


def _first_form_geometry(omega_jet: Jet) -> tuple[MetricTable, InverseTable, FrameTable]:
    """The metric's table, its inverse and the frame of the module docstring from an
    order-4 jet of Omega.

    With H the mixed Hessian block Omega_{w^A wt^B} and s = -1/det H (one
    inversion), g = [[0, M], [M^T, 0]] with M = s H; on a solution det H = -1,
    so g = H.  Its inverse is [[0, M^-T], [M^-1, 0]] with M^-1 = -adj H, and it
    and the frame are H's values over Omega's denominator.
    """
    h = [omega_jet.d_jet(*names) for names in _MIXED]
    det = h[0] * h[3] - h[1] * h[2]
    if not det.value:
        raise PoleError("det of the mixed Hessian block")
    s = -det.reciprocal()
    (w_wt, w_zt, z_wt, z_zt), dg = common_denominator(
        [(x * s).d_numerators(*_COLUMNS[FIRST]) for x in h])
    o = omega_jet.domain.zero
    nil = [o] * 15
    table = ([nil, nil, w_wt, w_zt, nil, z_wt, z_zt, nil, nil, nil], dg)
    (h00, h01, h10, h11), dh = omega_jet.d_numerators(*_MIXED)
    i = dh + o
    ginv = [[o, o, -h11, h10], [o, o, h01, -h00], [-h11, h01, o, o], [h10, -h00, o, o]]
    frame = {(0, 0): (o, o, h01, -h00), (1, 0): (o, o, h11, -h10),
             (0, 1): (i, o, o, o), (1, 1): (o, i, o, o)}
    return table, (ginv, dh), (frame, dh)


def _plane_wave_geometry(f_jet: Jet) -> tuple[MetricTable, InverseTable, FrameTable]:
    """2 dw dq + 2 dz dp + f dz^2, its inverse and the frame V_{00'} = d/dq,
    V_{01'} = -d/dz + (f/2) d/dp, V_{10'} = d/dp, V_{11'} = d/dw (over 2 Dg), from
    an order-2 jet of f."""
    (f, dg), domain = f_jet.d_numerators(*_COLUMNS[PLANE_WAVE]), f_jet.domain
    o, nil = domain.zero, [domain.zero] * 15
    table, ginv = _paired_form(nil, nil, f, dg, domain)
    i = 2 * dg + o
    frame = {(0, 0): (o, o, i, o), (0, 1): (o, -i, o, f[0]),
             (1, 0): (o, o, o, i), (1, 1): (i, o, o, o)}
    return table, ginv, (frame, 2 * dg)


def geometry_from_theta(theta: SecondPotential) -> FieldGeometry:
    """The second-form metric and frame of the module docstring off Theta's order-4 jet."""
    return FieldGeometry(theta.field, 4, _second_form_geometry, _SECOND_SPARSITY)


def geometry_from_omega(omega: FirstPotential) -> FieldGeometry:
    """The first-form metric and frame of the module docstring off Omega's order-4 jet.

    A point where the mixed Hessian block is singular raises ``PoleError``.
    """
    return FieldGeometry(omega.field, 4, _first_form_geometry, _FIRST_SPARSITY)


def plane_wave_geometry(f: ScalarField) -> FieldGeometry:
    """The plane-wave metric and frame off f's order-2 jet."""
    _require_profile(f)
    return FieldGeometry(f, 2, _plane_wave_geometry, _PLANE_WAVE_SPARSITY)


# ---------------------------------------------------------------------------
# Lax pairs

def _bracket(u: dict, v: dict, nvars: int) -> list:
    """[U, V]^a = U^b d_b V^a - V^b d_b U^a as numerators over D^2.

    A field maps an axis to its component's numerators [value, d_0, d_1, ...]
    over one denominator D; absent components are zero.
    """
    out = [0] * nvars
    for a in {**u, **v}:
        s = 0
        if a in v:
            s += sum(ub[0] * v[a][1 + b] for b, ub in u.items())
        if a in u:
            s -= sum(vb[0] * u[a][1 + b] for b, vb in v.items())
        out[a] = s
    return out


class LaxFields(NamedTuple):
    """A Lax pair at one point and one value of the spectral parameter: L_0 and L_1 as
    vector fields of numerators (see :func:`_bracket`) over ``den``."""

    l0: dict
    l1: dict
    den: int
    domain: object


def _lax_fields(jet: Jet, lam, rows: tuple[tuple[str, str], ...], shape) -> LaxFields:
    """L_0 and L_1 from the values and gradients of the named second partials of ``jet``
    (order 3 or more).  ``shape(unit, nil, *rows)`` gives each field's components as
    (constant part, part linear in lam) pairs of rows over the jet's denominator."""
    first = [(c,) for c in chart_coords(jet.center.chart)]
    nums, dt = jet.d_numerators(*(r + c for r in rows for c in ((), *first)))
    k = 1 + len(first)
    ln, ld = jet.domain.split(lam)
    unit, nil = [dt, *[0] * len(first)], [0] * k
    fields = [{a: [ld * c + ln * x for c, x in zip(const, linear)]
               for a, (const, linear) in field.items()}
              for field in shape(unit, nil, *(nums[i:i + k] for i in range(0, len(nums), k)))]
    return LaxFields(*fields, ld * dt, jet.domain)


def _neg(row: list) -> list:
    return [-x for x in row]


def lax_pair_theta(theta: SecondPotential, lam, p: Point,
                   params: Mapping[str, Number] | None = None) -> LaxFields:
    """L_0 = d_y - lam(d_w - T_xy d_y + T_yy d_x), L_1 = d_x + lam(d_z + T_xx d_y - T_xy d_x)
    at p, read off an order-3 jet of Theta."""
    return _lax_fields(theta.field.jet(p, 3, params), lam, (_XX, _YY, _XY),
                       lambda unit, nil, txx, tyy, txy: (
                           {0: (nil, _neg(unit)), 2: (nil, _neg(tyy)), 3: (unit, txy)},
                           {1: (nil, unit), 2: (unit, _neg(txy)), 3: (nil, txx)}))


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


def lax_pair_omega(omega: FirstPotential, lam, p: Point,
                   params: Mapping[str, Number] | None = None) -> LaxFields:
    """L_0 = O_wwt d_zt - O_wzt d_wt - lam d_w, L_1 = O_zwt d_zt - O_zzt d_wt - lam d_z at p,
    read off an order-3 jet of Omega."""
    return _lax_fields(omega.field.jet(p, 3, params), lam, _MIXED,
                       lambda unit, nil, w_wt, w_zt, z_wt, z_zt: (
                           {0: (nil, _neg(unit)), 2: (_neg(w_zt), nil), 3: (w_wt, nil)},
                           {1: (nil, _neg(unit)), 2: (_neg(z_zt), nil), 3: (z_wt, nil)}))


def lax_commutator_residual(pair: LaxFields) -> tuple[Number, ...]:
    """The four components of [L_0, L_1] at the pair's point and parameter value: one
    bracket of the numerator fields, each component divided once."""
    q, den2 = pair.domain.divide, pair.den * pair.den
    return tuple(q(x, den2) for x in _bracket(pair.l0, pair.l1, 4))
