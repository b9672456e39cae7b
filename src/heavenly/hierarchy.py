"""Truncated flows on extended space: residuals, Lax distribution, paraconformal pairing.

Coordinates are x^{Ai} (A = 0,1; i = 0..n) on the chart ``extended-n``; the
coordinate ordering is i-major, (x00, x10, x01, x11, ...).  The level-1 chart
identifies with the second-form chart by

    x00 = y,  x10 = x,  x01 = w,  x11 = -z,

under which the level-1 flow residual equals the second-equation residual
with coefficient one, and the level-1 Lax fields reduce literally to the
displayed second-form pair.  The bracket in the x^{A0} plane is

    {f, g} = d00 f d10 g - d10 f d00 g,

so {x00, x10} = 1 ({y, x} = 1 after identification).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Mapping, Sequence

from .jetcore import (
    Expr,
    Jet,
    Number,
    Point,
    ScalarField,
    Var,
    ZERO,
    add,
    chart_coords,
    common_denominator,
    const,
    diff,
    divider,
    extended_chart,
    field_jets,
    mul,
    neg,
    substitute,
)
from .tetrads import EPS
from .twistor import LambdaSeries


@dataclass(frozen=True)
class ExtendedPotential:
    """A scalar field on the 2n+2 dimensional extended chart."""

    n: int
    field: ScalarField

    def __post_init__(self):
        if self.field.chart != extended_chart(self.n):
            raise ValueError(f"field must live on {extended_chart(self.n)!r}")

    @property
    def chart(self) -> str:
        return self.field.chart


def coord_name(A: int, i: int) -> str:
    return f"x{A}{i}"


SECOND_TO_EXTENDED1 = {
    "w": Var(coord_name(0, 1)),
    "z": neg(Var(coord_name(1, 1))),
    "x": Var(coord_name(1, 0)),
    "y": Var(coord_name(0, 0)),
}


def embed_second_form(field: ScalarField, n: int = 1) -> ExtendedPotential:
    """View a second-form potential as a level-n potential constant in the new flows."""
    chart = extended_chart(n)
    e = substitute(field.expr, SECOND_TO_EXTENDED1)
    return ExtendedPotential(n, ScalarField(chart, e))


def extended1_point_of_second(p: Point) -> Point:
    """Map a second-form point (w,z,x,y) to the level-1 chart (x00,x10,x01,x11)."""
    w, z, x, y = p.values
    return Point(extended_chart(1), (y, x, w, -z))


@dataclass(frozen=True)
class ExtendedVectorField:
    """Vector field on the extended chart, affine in the spectral parameter."""

    chart: str
    constant: tuple[ScalarField, ...]
    linear: tuple[ScalarField, ...]

    def at_lambda(self, lam) -> tuple[ScalarField, ...]:
        lam = Fraction(lam)
        return tuple(ScalarField(self.chart, add(c.expr, mul(const(lam), l.expr)))
                     for c, l in zip(self.constant, self.linear))


def _zero_fields(chart: str) -> list[Expr]:
    return [ZERO for _ in chart_coords(chart)]


def poisson_yx(f: ScalarField, g: ScalarField, p: Point,
               params: Mapping[str, Number] | None = None) -> Number:
    """{f, g} = d00 f d10 g - d10 f d00 g at p."""
    if f.chart != g.chart or f.chart != p.chart:
        raise ValueError("bracket arguments must share the point's chart")
    jf, jg = f.jet(p, 1, params), g.jet(p, 1, params)
    return jf.d("x00") * jg.d("x10") - jf.d("x10") * jg.d("x00")


def hierarchy_residual(E: ExtendedPotential, A: int, i: int, B: int, j: int,
                       p: Point, params: Mapping[str, Number] | None = None) -> Number:
    """d_{Ai} d_{Bj-1} Theta - d_{Bj} d_{Ai-1} Theta + {d_{Ai-1} Theta, d_{Bj-1} Theta}.

    Read off one order-2 jet of the potential at p.
    """
    if not (1 <= i <= E.n and 1 <= j <= E.n):
        raise IndexError("flow indices must lie in 1..n")
    d = E.field.jet(p, 2, params).d
    a, b = coord_name(A, i - 1), coord_name(B, j - 1)
    return (d(coord_name(A, i), b) - d(coord_name(B, j), a)
            + d(a, "x00") * d(b, "x10") - d(a, "x10") * d(b, "x00"))


def _hamiltonian_vf(E: ExtendedPotential, f: Expr) -> list[Expr]:
    """{f, .} as a vector field: components -d10 f along x00 and d00 f along x10."""
    comps = _zero_fields(E.chart)
    coords = chart_coords(E.chart)
    comps[coords.index("x00")] = neg(diff(f, coord_name(1, 0)))
    comps[coords.index("x10")] = diff(f, coord_name(0, 0))
    return comps


def d_flow_field(E: ExtendedPotential, A: int, i: int) -> tuple[ScalarField, ...]:
    """D_{Ai+1} = d_{Ai+1} + [d_{Ai}, V] with V the Hamiltonian field of d-potential data.

    [d_{Ai}, V] is the Hamiltonian vector field of d_{Ai} Theta.
    """
    if not (0 <= i <= E.n - 1):
        raise IndexError("flow index out of range")
    coords = chart_coords(E.chart)
    comps = _hamiltonian_vf(E, diff(E.field.expr, coord_name(A, i)))
    comps[coords.index(coord_name(A, i + 1))] = add(comps[coords.index(coord_name(A, i + 1))], const(1))
    return tuple(ScalarField(E.chart, e) for e in comps)


def delta_flow_field(E: ExtendedPotential, A: int, i: int) -> tuple[ScalarField, ...]:
    coords = chart_coords(E.chart)
    comps = _zero_fields(E.chart)
    comps[coords.index(coord_name(A, i))] = const(1)
    return tuple(ScalarField(E.chart, e) for e in comps)


def lax_field(E: ExtendedPotential, A: int, i: int) -> ExtendedVectorField:
    """L_{Ai} = delta_{Ai} - lam D_{Ai+1}, affine in the spectral parameter."""
    dpart = d_flow_field(E, A, i)
    deltapart = delta_flow_field(E, A, i)
    linear = tuple(ScalarField(E.chart, neg(f.expr)) for f in dpart)
    return ExtendedVectorField(E.chart, deltapart, linear)


def _axes(chart: str) -> dict[str, int]:
    return {name: k for k, name in enumerate(chart_coords(chart))}


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


class FlowFields:
    """The Lax distribution's vector fields at the center of one jet of the potential.

    A field maps an axis to its component's numerators over ``den``: the
    value, then its partials along each axis ([value, d_0, d_1, ...]) where a
    bracket reads them; absent components are zero.  Every field is built
    from the values and gradients of Theta_{Ai,00} and Theta_{Ai,10} for the
    flows (A, i), i < n, which are read off the jet (order 3 or more) by name
    once, over one denominator.
    """

    def __init__(self, theta_jet: Jet):
        self.axes = ax = _axes(theta_jet.center.chart)
        self.n, self.mode = len(ax) // 2 - 1, theta_jet.mode
        flows = [(A, i) for A in (0, 1) for i in range(self.n)]
        nums, self.den = common_denominator(
            [theta_jet.d_numerators((f, c), *((f, c, e) for e in ax))
             for f in (coord_name(*k) for k in flows) for c in ("x00", "x10")])
        self.t00 = dict(zip(flows, nums[0::2]))   # Theta_{Ai,00}
        self.t10 = dict(zip(flows, nums[1::2]))   # Theta_{Ai,10}
        self.one = [self.den] + [0] * len(ax)

    def hamiltonian(self, f00: list, f10: list) -> dict:
        """X_f = {f, .}: components -f_10 along x00 and f_00 along x10."""
        return {self.axes["x00"]: [-x for x in f10], self.axes["x10"]: f00}

    def delta(self, A: int, i: int) -> dict:
        """delta_{Ai}, the unit field along x_{Ai}."""
        return {self.axes[coord_name(A, i)]: self.one}

    def D(self, A: int, i: int) -> dict:
        """D_{Ai+1} = d_{Ai+1} + {Theta_{Ai}, .}."""
        return {**self.hamiltonian(self.t00[A, i], self.t10[A, i]), **self.delta(A, i + 1)}

    def omega(self, A: int, j: int) -> list[dict]:
        """X_c for the lam^m coefficient c of omega_{Aj}, m = 0..j (values only).

        omega_{Aj} = eps_{BA} omega^B_j lowers omega^B_j = -x^{B0} + sum_{m=1..j}
        lam^m d^{Bm-1} Theta, where d^{Bi} = eps^{BC} d_{Ci}.
        """
        # c = -eps_{BA} x^{B0} at m = 0, then eps_{BA} eps^{BC} Theta_{Cm-1}
        out = [self.hamiltonian([-EPS[0, A] * self.den], [-EPS[1, A] * self.den])]
        w = {C: sum(EPS[B, A] * EPS[B, C] for B in (0, 1)) for C in (0, 1)}
        for m in range(1, j + 1):
            out.append(self.hamiltonian([sum(w[C] * self.t00[C, m - 1][0] for C in (0, 1))],
                                        [sum(w[C] * self.t10[C, m - 1][0] for C in (0, 1))]))
        return out


def lax_compat_from_jet(fields: FlowFields,
                        pairs: Sequence[tuple[int, int, int, int]]) -> dict[tuple, Number]:
    """Labelled compatibility residuals of the listed flow pairs (A, i, B, j).

    Per pair and axis c: [delta_{Ai}, delta_{Bj}]^c, the mixed combination
    ([D_{Ai+1}, delta_{Bj}] - [D_{Bj+1}, delta_{Ai}])^c, and
    [D_{Ai+1}, D_{Bj+1}]^c minus the Hamiltonian field of the flow residual
    of (A, i+1, B, j+1); each vanishes identically.  Each is an integer sum
    over den^2, divided once.
    """
    ax, nvars, den = fields.axes, len(fields.axes), fields.den
    if any(not 0 <= i < fields.n for pair in pairs for i in pair[1::2]):
        raise IndexError("flow index out of range")
    P, Q = fields.t00, fields.t10

    def up(k):
        A, i = k
        return ax[coord_name(A, i + 1)]

    def d_residual(k, l, c, G):
        """d_c of the flow residual R = Theta_{k+,l} - Theta_{l+,k} + {Theta_k, Theta_l}, where
        k+ = (A, i+1) for k = (A, i); d_c Theta_{k+,l} is the x_{k+} partial of Theta_{l,c}."""
        return (den * (G[l][1 + up(k)] - G[k][1 + up(l)])
                + P[k][1 + c] * Q[l][0] + P[k][0] * Q[l][1 + c]
                - Q[k][1 + c] * P[l][0] - Q[k][0] * P[l][1 + c])

    q, den2 = divider(fields.mode), den * den
    out = {}
    for (A, i, B, j) in pairs:
        k, l = (A, i), (B, j)
        Dk, Dl, dk, dl = fields.D(*k), fields.D(*l), fields.delta(*k), fields.delta(*l)
        equiv = _bracket(Dk, Dl, nvars)
        ham = fields.hamiltonian([d_residual(k, l, ax["x00"], P)], [d_residual(k, l, ax["x10"], Q)])
        for a, (x,) in ham.items():
            equiv[a] -= x
        mixed = [a - b for a, b in zip(_bracket(Dk, dl, nvars), _bracket(Dl, dk, nvars))]
        for name, nums in ((f"[delta_{A}{i}, delta_{B}{j}]", _bracket(dk, dl, nvars)),
                           (f"mixed ({A}{i}, {B}{j})", mixed),
                           (f"[D_{A}{i}, D_{B}{j}] - X_H", equiv)):
            out.update({(f"{name}^{c}",): q(x, den2) for c, x in zip(ax, nums)})
    return out


# ---------------------------------------------------------------------------
# Sato form

def dual_partial(A: int, i: int, e: Expr) -> Expr:
    """d^{Ai} = eps^{AB} d_{Bi}: d^{0i} = d_{1i}, d^{1i} = -d_{0i}."""
    if A == 0:
        return diff(e, coord_name(1, i))
    return neg(diff(e, coord_name(0, i)))


def truncated_omega(E: ExtendedPotential, j: int) -> tuple[LambdaSeries, LambdaSeries]:
    """omega^A_j = -x^{A0} + sum_{m=1..j} lam^m d^{A m-1} Theta, for A = 0, 1."""
    if not (1 <= j <= E.n):
        raise IndexError("truncation level out of range")
    T = E.field.expr
    series = []
    for A in (0, 1):
        coeffs = [ScalarField(E.chart, neg(Var(coord_name(A, 0))))]
        for m in range(1, j + 1):
            coeffs.append(ScalarField(E.chart, dual_partial(A, m - 1, T)))
        series.append(LambdaSeries(E.chart, 0, tuple(coeffs)))
    return series[0], series[1]


def summed_lax_from_jet(fields: FlowFields) -> dict[tuple, Number]:
    """Labelled residuals of  -sum_{i<j} lam^i L_{Ai}  ==  lam^j d_{Aj} + {omega_{Aj}, .}
    for A = 0, 1 and j = 1..n, with L_{Ai} = delta_{Ai} - lam D_{Ai+1}.

    An operator identity, zero for every potential.  Both sides are vector
    fields polynomial in lam, compared order by order and axis by axis: a
    test field enters the identity only through its gradient, so these
    components are the whole identity at the point.  The label of order m
    along axis c is ("Sato A={A} j={j}^{c}", m); each value is an integer sum
    over den, divided once.
    """
    q = divider(fields.mode)
    out = {}
    for A in (0, 1):
        for j in range(1, fields.n + 1):
            for m, X in enumerate(fields.omega(A, j)):
                lhs = ([(1, fields.D(A, m - 1))] if m else []) \
                    + ([(-1, fields.delta(A, m))] if m < j else [])
                rhs = [(1, X)] + ([(1, fields.delta(A, j))] if m == j else [])
                nums = [0] * len(fields.axes)
                for sign, V in lhs + [(-s, V) for s, V in rhs]:
                    for a, comp in V.items():
                        nums[a] += sign * comp[0]
                out.update({(f"Sato A={A} j={j}^{c}", m): q(x, fields.den)
                            for c, x in zip(fields.axes, nums)})
    return out


def sato_flow_residual(E: ExtendedPotential, B: int, j: int, p: Point,
                       params: Mapping[str, Number] | None = None) -> dict:
    """Flow-form residual per lam-order, for both curve components.

    Computes  lam^j d_{Bj} omega^A(lam) + {omega_{Bj}(lam), omega^A(lam)}
    order by order, minus the potential-independent constant delta_AB at
    order zero contributed by the bracket of the two leading coordinate
    terms (the inessential lower-end truncation).  By the summed-Lax
    identity this equals -sum_i lam^i L_{Bi} omega^A up to the same
    constant; interior orders (below the truncation-sensing top order)
    vanish exactly on solutions of the truncated flows.
    """
    om = truncated_omega(E, E.n)
    if B == 0:
        src = truncated_omega(E, j)[1]
        lowered_coeffs = [ScalarField(E.chart, neg(c.expr)) for c in src.coeffs]
    else:
        lowered_coeffs = list(truncated_omega(E, j)[0].coeffs)
    flow = coord_name(B, j)
    # d_00, d_10 and d_{Bj} of every coefficient at p, all folded in one call
    n0, n1 = len(om[0].coeffs), len(om[0].coeffs) + len(om[1].coeffs)
    jets = field_jets([*om[0].coeffs, *om[1].coeffs, *lowered_coeffs], p, 1, params)
    all_grads = [(x.d("x00"), x.d("x10"), x.d(flow)) for x in jets]
    low_grads = all_grads[n1:]

    out = {}
    for Aname, grads in (("omega0", all_grads[:n0]), ("omega1", all_grads[n0:n1])):
        orders: dict[int, Number] = {}
        # term lam^j d_{Bj} omega^A: order r+j from coefficient r
        for r, g in enumerate(grads):
            orders[r + j] = orders.get(r + j, 0) + g[2]
        # term {omega_{Bj}, omega^A}: order r+m from (m, r)
        for m, lg in enumerate(low_grads):
            for r, g in enumerate(grads):
                val = lg[0] * g[1] - lg[1] * g[0]
                orders[m + r] = orders.get(m + r, 0) + val
        # remove the inessential constant {-x_{B0}, -x^{A0}} at order zero
        A = 0 if Aname == "omega0" else 1
        orders[0] = orders.get(0, 0) - (1 if A == B else 0)
        out[Aname] = orders
    return out


# ---------------------------------------------------------------------------
# the paraconformal pairing

@dataclass(frozen=True)
class SpinorVector:
    """Rank (1, n)-symmetric spinor components: key (A, k) with k = number of 1' indices."""

    n: int
    components: dict[tuple[int, int], Number]


def paraconformal_eval(U: SpinorVector, W: SpinorVector) -> Number:
    """Full eps contraction eps_AB eps_{A1'B1'} ... eps_{An'Bn'} U W.

    Each eps_{a'b'} pairs a primed 0 with a 1 (eps_{0'1'} = 1, eps_{1'0'} =
    -1), so the C(n, k) index strings of U with k ones meet W's complements,
    n - k ones, with the factor (-1)^k.  Symmetric for odd n, antisymmetric
    for even n.
    """
    if U.n != W.n:
        raise ValueError("rank mismatch")
    n = U.n
    return sum(EPS[A, B] * comb(n, k) * (-1) ** k * U.components.get((A, k), 0)
               * W.components.get((B, n - k), 0)
               for A, B in ((0, 1), (1, 0)) for k in range(n + 1))
