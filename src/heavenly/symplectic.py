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

No subcommand pairs on a curved background.  The curved star operator, on
symbolic trees, is the test reference ``hodge_star_d`` in
``tests/geometry_oracle.py``: it uses the inverse metric paired with the
displayed wave operator (see the tetrads module docstring on the two display
conventions), which makes d(star d phi) = box phi * vol an exact identity,
not just an on-shell one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping

from .jetcore import Number, Point
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


def _box_moments(numerators: list[Mapping[tuple[int, ...], int]], box: BoundaryBox
                 ) -> tuple[list[int], list[int], int]:
    """Integers over one denominator D for the top exponent in the numerators' monomials:
    the integral of t^k over [a, b] for k <= top, and b^k - a^k for k <= top + 1, each times D.

    With a = lo/q and b = hi/q, the moment is (hi^(k+1) - lo^(k+1)) / ((k+1) q^(k+1)) and
    the end difference (hi^k - lo^k) / q^k, so D = lcm(1..top+1) q^(top+1) clears both.
    """
    top = max((e for nums in numerators for m in nums for e in m), default=0)
    a, b = Fraction(box.a), Fraction(box.b)
    q = lcm(a.denominator, b.denominator)
    lo, hi = a.numerator * (q // a.denominator), b.numerator * (q // b.denominator)
    n = lcm(*range(1, top + 2))
    ends = [(hi ** k - lo ** k) * n * q ** (top + 1 - k) for k in range(top + 2)]
    return [ends[k + 1] // (k + 1) for k in range(top + 1)], ends, n * q ** (top + 1)


def boundary_integral(eta: ThreeForm, box: BoundaryBox) -> Fraction:
    """Exact integral of the 3-form over the outward-oriented boundary of the box.

    A monomial c x^m of eta_k integrates over the faces x_k = b minus x_k = a
    to c (b^m_k - a^m_k) times the moments of its other exponents over [a, b].
    Every face sums integer numerators over one denominator, divided once.
    """
    reads = [comp.numerators() for comp in eta.components]
    moments, ends, scale = _box_moments([nums for nums, _ in reads], box)
    den = lcm(*(d for _, d in reads))
    total = 0
    for k, (nums, d) in enumerate(reads):
        i1, i2, i3 = (i for i in range(4) if i != k)
        face = sum(c * ends[m[k]] * moments[m[i1]] * moments[m[i2]] * moments[m[i3]]
                   for m, c in nums.items())
        total += (face if k % 2 == 0 else -face) * (den // d)
    return Fraction(total, den * scale ** 4)


def volume_integral(poly: Poly, box: BoundaryBox) -> Fraction:
    """Exact integral of a density over the solid box: each monomial c x^m gives
    c times the moments of its exponents over [a, b], summed in integers."""
    nums, den = poly.numerators()
    moments, _, scale = _box_moments([nums], box)
    return Fraction(sum(c * moments[w] * moments[z] * moments[x] * moments[y]
                        for (w, z, x, y), c in nums.items()), den * scale ** 4)


# ---------------------------------------------------------------------------
# star of d(phi)

def star_d_flat(phi: Poly) -> ThreeForm:
    """star d phi for the flat second-form metric; components per the module convention."""
    return ThreeForm((phi.diff("x"), -phi.diff("y"), phi.diff("w"), -phi.diff("z")))


# ---------------------------------------------------------------------------
# the boundary pairing and its powers

def symplectic_pair(d1: Poly, d2: Poly, box: BoundaryBox) -> Fraction:
    """(2/3) * boundary integral of d1 star d(d2) - d2 star d(d1), flat background."""
    s1 = star_d_flat(d2)
    s2 = star_d_flat(d1)
    eta = ThreeForm(tuple(d1 * c1 - d2 * c2 for c1, c2 in zip(s1.components, s2.components)))
    return Fraction(2, 3) * boundary_integral(eta, box)


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
