"""The ``Jet.d`` read-outs of the recursion relation and the wave operator, kept as
a test oracle for ``heavenly.tetrads.lax_step_from_jets`` and
``heavenly.tetrads.linearized_from_jets``.

Each partial derivative is read as its own ``Fraction`` (a float in float
mode) and the relations are combined in that arithmetic.  The package reads
integer numerators instead and divides once; the results must be equal, and
in float mode have the same bits, the sign of zero included.  Nothing in
``src/`` imports it.
"""

from __future__ import annotations

from heavenly.jetcore import Jet, Number


def lax_step_from_jets(theta_jet: Jet, phi_jet: Jet, r_phi_jet: Jet) -> tuple[Number, Number]:
    """(d_y Rphi - (d_w - T_xy d_y + T_yy d_x) phi, d_x Rphi + (d_z + T_xx d_y - T_xy d_x) phi)."""
    dT = theta_jet.d
    txx, tyy, txy = dT("x", "x"), dT("y", "y"), dT("x", "y")
    f = phi_jet.d
    r = r_phi_jet.d
    return (r("y") - (f("w") - txy * f("y") + tyy * f("x")),
            r("x") + (f("z") + txx * f("y") - txy * f("x")))


def linearized_from_jets(theta_jet: Jet, delta_jet: Jet) -> Number:
    """D_xw + D_yz + T_yy D_xx + T_xx D_yy - 2 T_xy D_xy."""
    dT = theta_jet.d
    dD = delta_jet.d
    return (dD("x", "w") + dD("y", "z")
            + dT("y", "y") * dD("x", "x") + dT("x", "x") * dD("y", "y")
            - 2 * dT("x", "y") * dD("x", "y"))
