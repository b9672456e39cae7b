"""Lagrangian densities and the boundary symplectic pairing, by exact integration.

The pairing on wave-space perturbations is

    pair(d1, d2) = (2/3) * integral over the box boundary of
                   d1 * star d(d2) - d2 * star d(d1),

evaluated on the flat second-form background with polynomial inputs so every
face integral is an exact rational.  Three-forms are stored by the component
convention eta = sum_k eta_k (coordinate volume with dx^k removed, factors in
increasing coordinate order); with that convention d eta = sum_k (-1)^k
(d_k eta_k) vol, and the outward-oriented boundary integral over [a, b]^4 is
sum_k (-1)^k (top_k - bottom_k).

On a curved second-form background the star operator uses the inverse metric
paired with the displayed wave operator (see the tetrads module docstring on
the two display conventions), which makes d(star d phi) = box phi * vol an
exact identity, not just an on-shell one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .jetcore import (
    Number,
    Point,
    ScalarField,
    add,
    const,
    diff,
    mul,
    neg,
    sub,
)
from .polynomials import Poly
from .recursion import recursion_power_poly
from .tetrads import SECOND, FirstPotential, SecondPotential

COORDS = ("w", "z", "x", "y")


@dataclass(frozen=True)
class BoundaryBox:
    """The cube [a, b]^4 in the second-form chart with its 8 oriented faces."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError("box needs a < b")

    @staticmethod
    def unit() -> "BoundaryBox":
        return BoundaryBox(Fraction(0), Fraction(1))


@dataclass(frozen=True)
class ThreeForm:
    """Components eta_k against (volume with coordinate k removed), k = 0..3."""

    components: tuple[Poly, Poly, Poly, Poly]

    def exterior_derivative_coefficient(self) -> Poly:
        """d eta = (coefficient) * coordinate volume form."""
        total = Poly.zero(SECOND)
        for k, comp in enumerate(self.components):
            term = comp.diff(COORDS[k])
            total = total + (term if k % 2 == 0 else -term)
        return total


def _integrate_over_cube(poly: Poly, axes: Sequence[str], a: Fraction, b: Fraction) -> Poly:
    out = poly
    for name in axes:
        out = out.definite_integral(name, a, b)
    return out


def boundary_integral(eta: ThreeForm, box: BoundaryBox) -> Fraction:
    """Exact integral of the 3-form over the outward-oriented boundary of the box."""
    total = Fraction(0)
    for k in range(4):
        others = [c for i, c in enumerate(COORDS) if i != k]
        comp = eta.components[k]
        sign = 1 if k % 2 == 0 else -1
        top = _integrate_over_cube(comp.substitute_value(COORDS[k], box.b), others, box.a, box.b)
        bottom = _integrate_over_cube(comp.substitute_value(COORDS[k], box.a), others, box.a, box.b)
        total += sign * (top.constant_value() - bottom.constant_value())
    return total


def volume_integral(poly: Poly, box: BoundaryBox) -> Fraction:
    """Exact integral of a density over the solid box."""
    return _integrate_over_cube(poly, COORDS, box.a, box.b).constant_value()


def boundary_of_boundary_residual(tf_components: dict[tuple[int, int], Poly],
                                  box: BoundaryBox) -> Fraction:
    """Integral of d(two-form) over the box boundary; zero by exact face cancellation."""
    deta = [Poly.zero(SECOND) for _ in range(4)]
    # (d tf) 3-form components against (vol without k): for k missing, sum over pairs
    for k in range(4):
        rest = [i for i in range(4) if i != k]
        a, b, c = rest
        # component of d tf on dx^a ^ dx^b ^ dx^c (increasing): standard antisymmetrised sum
        def get(i, j):
            if i == j:
                return Poly.zero(SECOND)
            return tf_components[(i, j)] if i < j else -tf_components[(j, i)]
        deta[k] = (get(b, c).diff(COORDS[a]) - get(a, c).diff(COORDS[b])
                   + get(a, b).diff(COORDS[c]))
    return boundary_integral(ThreeForm(tuple(deta)), box)


# ---------------------------------------------------------------------------
# star of d(phi)

def star_d_flat(phi: Poly) -> ThreeForm:
    """star d phi for the flat second-form metric; components per the module convention."""
    return ThreeForm((phi.diff("x"), -phi.diff("y"), phi.diff("w"), -phi.diff("z")))


@dataclass(frozen=True)
class ThreeFormField:
    """Three-form with scalar-field components (curved backgrounds)."""

    components: tuple[ScalarField, ScalarField, ScalarField, ScalarField]

    def exterior_derivative_value(self, p: Point, params=None) -> Number:
        total = 0
        for k, comp in enumerate(self.components):
            term = comp.jet(p, 1, params).d(COORDS[k])
            total += term if k % 2 == 0 else -term
        return total


def hodge_star_d(theta: SecondPotential, phi: ScalarField,
                 params: Mapping[str, Number] | None = None) -> ThreeFormField:
    """star d phi on the background, with the wave-operator-compatible inverse metric.

    Inverse metric components: g^{wx} = g^{zy} = 1, g^{xx} = 2 T_yy,
    g^{yy} = 2 T_xx, g^{xy} = -2 T_xy; volume dw^dz^dx^dy.
    """
    T = theta.field.expr
    txx = diff(diff(T, "x"), "x")
    tyy = diff(diff(T, "y"), "y")
    txy = diff(diff(T, "x"), "y")
    f = phi.expr
    fw, fz, fx, fy = (diff(f, v) for v in COORDS)
    two = const(2)
    # raised gradient components (d phi)^a
    vw = fx
    vz = fy
    vx = add(fw, sub(mul(mul(two, tyy), fx), mul(mul(two, txy), fy)))
    vy = add(fz, sub(mul(mul(two, txx), fy), mul(mul(two, txy), fx)))
    # interior product with dw^dz^dx^dy
    comps = (vw, neg(vz), vx, neg(vy))
    return ThreeFormField(tuple(ScalarField(SECOND, e) for e in comps))


# ---------------------------------------------------------------------------
# the boundary pairing and its powers

def symplectic_pair(d1: Poly, d2: Poly, box: BoundaryBox) -> Fraction:
    """(2/3) * boundary integral of d1 star d(d2) - d2 star d(d1), flat background."""
    s1 = star_d_flat(d2)
    s2 = star_d_flat(d1)
    eta = ThreeForm(tuple(d1 * c1 - d2 * c2 for c1, c2 in zip(s1.components, s2.components)))
    return Fraction(2, 3) * boundary_integral(eta, box)


# 8-point Gauss-Legendre rule on [-1, 1]
_GL8 = (
    (-0.9602898564975363, 0.1012285362903763),
    (-0.7966664774136267, 0.2223810344533745),
    (-0.5255324099163290, 0.3137066458778873),
    (-0.1834346424956498, 0.3626837833783620),
    (0.1834346424956498, 0.3626837833783620),
    (0.5255324099163290, 0.3137066458778873),
    (0.7966664774136267, 0.2223810344533745),
    (0.9602898564975363, 0.1012285362903763),
)


def symplectic_pair_curved(theta: SecondPotential, d1: ScalarField, d2: ScalarField,
                           box: BoundaryBox, params: Mapping[str, Number] | None = None
                           ) -> float:
    """Float-quadrature boundary pairing on a curved background.

    Gauss quadrature (8 nodes per axis, exact for polynomial integrands of
    degree <= 15 per axis) of the same boundary 3-form with the curved star
    operator.  No exactness guarantee: intended for rational-function
    backgrounds where face integrals have no closed polynomial form.  The
    box must avoid the background's singular locus.
    """
    s1 = hodge_star_d(theta, d2, params)
    s2 = hodge_star_d(theta, d1, params)
    a, b = float(box.a), float(box.b)
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    nodes = [(mid + half * x, half * w) for x, w in _GL8]
    fparams = {k: float(v) for k, v in (params or {}).items()}
    total = 0.0
    for k in range(4):
        sign = 1.0 if k % 2 == 0 else -1.0
        others = [i for i in range(4) if i != k]
        c1k, c2k = s1.components[k], s2.components[k]
        for side, ssign in ((b, 1.0), (a, -1.0)):
            acc = 0.0
            for x1, w1 in nodes:
                for x2, w2 in nodes:
                    for x3, w3 in nodes:
                        vals = [0.0] * 4
                        vals[k] = side
                        vals[others[0]] = x1
                        vals[others[1]] = x2
                        vals[others[2]] = x3
                        p = Point("second", tuple(vals))
                        eta = (d1.value(p, fparams) * c1k.value(p, fparams)
                               - d2.value(p, fparams) * c2k.value(p, fparams))
                        acc += w1 * w2 * w3 * eta
            total += sign * ssign * acc
    return 2.0 / 3.0 * total


def omega_k(phi: Poly, phi_prime: Poly, k: int, box: BoundaryBox) -> Fraction:
    """pair(R^k phi, phi')."""
    return symplectic_pair(recursion_power_poly(phi, k), phi_prime, box)


# ---------------------------------------------------------------------------
# Lagrangian densities

def lagrangian_density_second(theta: SecondPotential, p: Point,
                              params: Mapping[str, Number] | None = None) -> Number:
    """(1/3) T {T_x, T_y}_xy - (1/2)(T_x T_w + T_y T_z) evaluated at p."""
    jet = theta.field.jet(p, 2, params)
    d = jet.d
    t = jet.value
    bracket = d("x", "x") * d("y", "y") - d("x", "y") ** 2
    return (t * bracket) / 3 - (d("x") * d("w") + d("y") * d("z")) / 2


def lagrangian_density_first(omega: FirstPotential, p: Point,
                             params: Mapping[str, Number] | None = None) -> Number:
    """Omega (1 - (1/3){Omega_zt, Omega_wt}_wz) evaluated at p."""
    jet = omega.field.jet(p, 2, params)
    d = jet.d
    o = jet.value
    bracket = d("zt", "w") * d("wt", "z") - d("zt", "z") * d("wt", "w")
    return o * (1 - bracket / 3)


def second_lagrangian_variation(theta: Poly, delta: Poly, box: BoundaryBox) -> Fraction:
    """Exact integral of the first variation of the second-form Lagrangian density.

    For delta vanishing to second order on the box boundary this equals
    + integral of (flow residual) * delta; the sign is pinned by this exact
    integration oracle.
    """
    tw, tz, tx, ty = (theta.diff(v) for v in COORDS)
    txx, tyy, txy = tx.diff("x"), ty.diff("y"), tx.diff("y")
    dw, dz, dx, dy = (delta.diff(v) for v in COORDS)
    dxx, dyy, dxy = dx.diff("x"), dy.diff("y"), dx.diff("y")
    third = Fraction(1, 3)
    half = Fraction(1, 2)
    bracket = txx * tyy - txy * txy
    dbracket = dxx * tyy + txx * dyy - txy * dxy.scale(2)
    variation = (delta * bracket + theta * dbracket).scale(third) \
        - (dx * tw + tx * dw + dy * tz + ty * dz).scale(half)
    return volume_integral(variation, box)


def second_residual_pairing(theta: Poly, delta: Poly, box: BoundaryBox) -> Fraction:
    """Exact integral of (second-equation residual of theta) * delta over the box."""
    tw, tz, tx, ty = (theta.diff(v) for v in COORDS)
    residual = tx.diff("w") + ty.diff("z") + tx.diff("x") * ty.diff("y") - tx.diff("y") ** 2
    return volume_integral(residual * delta, box)


# ---------------------------------------------------------------------------
# first-order flow form

def first_order_flow_residual(theta: Poly) -> Poly:
    """phi_w + (d_z + {phi, .}_yx) dx^{-1} phi_y with phi = -T_x; equals minus the residual.

    The x-antiderivative uses the zero-constant convention; exactness of
    dx^{-1} d_y phi requires every monomial of T_y to carry an x factor.
    """
    phi = -theta.diff("x")
    inv = phi.diff("y").integrate("x")
    bracket = phi.diff("y") * inv.diff("x") - phi.diff("x") * inv.diff("y")
    return phi.diff("w") + inv.diff("z") + bracket
