"""Truncated flows on extended space: residuals, Lax distribution, slice metrics.

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
from typing import Mapping, Sequence

from .jetcore import (
    Expr,
    Number,
    Point,
    ScalarField,
    Var,
    ZERO,
    add,
    chart_coords,
    const,
    diff,
    extended_chart,
    mul,
    neg,
    substitute,
)
from .tetrads import MetricField, vector_commutator_values
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


def _pb_expr(f: Expr, g: Expr) -> Expr:
    a00, a10 = coord_name(0, 0), coord_name(1, 0)
    return add(mul(diff(f, a00), diff(g, a10)), neg(mul(diff(f, a10), diff(g, a00))))


def hierarchy_residual(E: ExtendedPotential, A: int, i: int, B: int, j: int,
                       p: Point, params: Mapping[str, Number] | None = None) -> Number:
    """d_{Ai} d_{Bj-1} Theta - d_{Bj} d_{Ai-1} Theta + {d_{Ai-1} Theta, d_{Bj-1} Theta}."""
    if not (1 <= i <= E.n and 1 <= j <= E.n):
        raise IndexError("flow indices must lie in 1..n")
    return hierarchy_residual_field(E, A, i, B, j).value(p, params)


def hierarchy_residual_field(E: ExtendedPotential, A: int, i: int, B: int, j: int) -> ScalarField:
    T = E.field.expr
    d = lambda AA, ii, e: diff(e, coord_name(AA, ii))
    first = d(A, i, d(B, j - 1, T))
    second = d(B, j, d(A, i - 1, T))
    bracket = _pb_expr(d(A, i - 1, T), d(B, j - 1, T))
    return ScalarField(E.chart, add(add(first, neg(second)), bracket))


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


def lax_compat_residual(E: ExtendedPotential, pairs: Sequence[tuple[int, int, int, int]],
                        p: Point, params: Mapping[str, Number] | None = None) -> dict:
    """Compatibility commutators for the listed flow pairs (A, i, B, j).

    Returns, per pair: the [D, D] commutator components next to the matched
    Hamiltonian field of the corresponding flow residual, the [delta, delta]
    components, and the mixed-bracket combination (identically zero).
    """
    out = []
    for (A, i, B, j) in pairs:
        DA, DB = d_flow_field(E, A, i), d_flow_field(E, B, j)
        dA, dB = delta_flow_field(E, A, i), delta_flow_field(E, B, j)
        one = vector_commutator_values(DA, DB, p, params)
        res_field = hierarchy_residual_field(E, A, i + 1, B, j + 1)
        ham = _hamiltonian_vf(E, res_field.expr)
        ham_vals = tuple(ScalarField(E.chart, e).value(p, params) for e in ham)
        two = vector_commutator_values(dA, dB, p, params)
        three_a = vector_commutator_values(DA, dB, p, params)
        three_b = vector_commutator_values(DB, dA, p, params)
        three = tuple(a - b for a, b in zip(three_a, three_b))
        out.append({
            "pair": (A, i, B, j),
            "dd_commutator": one,
            "residual_hamiltonian_field": ham_vals,
            "dd_matches_residual": all(a == b for a, b in zip(one, ham_vals)),
            "delta_delta": two,
            "mixed": three,
        })
    return {"pairs": out}


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


def summed_lax_identity_residual(E: ExtendedPotential, A: int, j: int, test: ScalarField,
                                 p: Point, params: Mapping[str, Number] | None = None
                                 ) -> dict[int, Number]:
    """Per-lam-order residual of  -sum_i lam^i L_{Ai}  ==  lam^j d_{Aj} + {omega_{Aj}, .}.

    Applied to an arbitrary test field; an operator identity, zero for every
    potential.  omega_{Aj} is the eps-lowered series (omega_{0j} = -omega^1_j,
    omega_{1j} = omega^0_j).
    """
    if not (1 <= j <= E.n):
        raise IndexError("truncation level out of range")
    coords = chart_coords(E.chart)
    dtest = test.jet(p, 1, params).grad()
    # LHS per order: -sum_{i=0..j-1} lam^i (delta_{Ai} - lam D_{Ai+1}) (test)
    lhs: dict[int, Number] = {}
    for i in range(j):
        dval = sum(c.value(p, params) * dtest[ax]
                   for ax, c in enumerate(d_flow_field(E, A, i)) if not c.is_zero())
        delv = dtest[coords.index(coord_name(A, i))]
        lhs[i] = lhs.get(i, 0) - delv
        lhs[i + 1] = lhs.get(i + 1, 0) + dval
    # RHS per order
    om0, om1 = truncated_omega(E, j)
    lowered = om1.map_coeffs(lambda f: ScalarField(E.chart, neg(f.expr))) if A == 0 else om0
    rhs: dict[int, Number] = {}
    i00, i10 = coords.index("x00"), coords.index("x10")
    for m in range(0, j + 1):
        cj = lowered.coefficient(m).jet(p, 1, params)
        rhs[m] = rhs.get(m, 0) + cj.d("x00") * dtest[i10] - cj.d("x10") * dtest[i00]
    rhs[j] = rhs.get(j, 0) + dtest[coords.index(coord_name(A, j))]
    return {m: lhs.get(m, 0) - rhs.get(m, 0) for m in range(0, j + 1)}


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
    out = {}
    coords = chart_coords(E.chart)
    for Aname, series in (("omega0", om[0]), ("omega1", om[1])):
        orders: dict[int, Number] = {}
        grads = [c.jet(p, 1, params).grad() for c in series.coeffs]
        low_grads = [c.jet(p, 1, params).grad() for c in lowered_coeffs]
        i00, i10 = coords.index("x00"), coords.index("x10")
        iBj = coords.index(coord_name(B, j))
        # term lam^j d_{Bj} omega^A: order r+j from coefficient r
        for r, g in enumerate(grads):
            orders[r + j] = orders.get(r + j, 0) + g[iBj]
        # term {omega_{Bj}, omega^A}: order r+m from (m, r)
        for m, lg in enumerate(low_grads):
            for r, g in enumerate(grads):
                val = lg[i00] * g[i10] - lg[i10] * g[i00]
                orders[m + r] = orders.get(m + r, 0) + val
        # remove the inessential constant {-x_{B0}, -x^{A0}} at order zero
        A = 0 if Aname == "omega0" else 1
        orders[0] = orders.get(0, 0) - (1 if A == B else 0)
        out[Aname] = orders
    return out


# ---------------------------------------------------------------------------
# slice metric and the paraconformal pairing

def slice_metric(E: ExtendedPotential) -> MetricField:
    """2 eps_AB dx^{A1} dx^{B0} + 2 Theta_{A0 B0} dx^{A1} dx^{B1} on the full chart.

    Only the four slice coordinates x^{A0}, x^{A1} carry nonzero components;
    remaining flow coordinates are spectators, so evaluating at a point fixes
    the slice.
    """
    coords = chart_coords(E.chart)
    n = len(coords)
    T = E.field.expr
    comps: list[list[Expr]] = [[ZERO] * n for _ in range(n)]

    def idx(A, i):
        return coords.index(coord_name(A, i))

    # 2 eps_AB dx^{A1} dx^{B0}: eps_{01} = 1
    for (A, B, sgn) in ((0, 1, 1), (1, 0, -1)):
        a, b = idx(A, 1), idx(B, 0)
        comps[a][b] = add(comps[a][b], const(sgn))
        comps[b][a] = add(comps[b][a], const(sgn))
    # 2 Theta_{A0 B0} dx^{A1} dx^{B1}: entry 2 Theta at (A1, B1) for each ordered pair
    for A in (0, 1):
        for B in (0, 1):
            second = diff(diff(T, coord_name(A, 0)), coord_name(B, 0))
            a, b = idx(A, 1), idx(B, 1)
            comps[a][b] = add(comps[a][b], mul(const(2), second))
    chart = E.chart
    return MetricField(chart, tuple(tuple(ScalarField(chart, e) for e in row) for row in comps))


@dataclass(frozen=True)
class SpinorVector:
    """Rank (1, n)-symmetric spinor components: key (A, k) with k = number of 1' indices."""

    n: int
    components: dict[tuple[int, int], Number]

    def component(self, A: int, primed: tuple[int, ...]) -> Number:
        return self.components.get((A, sum(primed)), 0)


def paraconformal_eval(U: SpinorVector, W: SpinorVector) -> Number:
    """Full eps contraction eps_AB eps_{A1'B1'} ... eps_{An'Bn'} U W.

    Symmetric for odd n, antisymmetric for even n.
    """
    if U.n != W.n:
        raise ValueError("rank mismatch")
    n = U.n
    from itertools import product
    eps = {(0, 1): 1, (1, 0): -1, (0, 0): 0, (1, 1): 0}
    total = 0
    for A in (0, 1):
        for B in (0, 1):
            eab = eps[(A, B)]
            if eab == 0:
                continue
            for primedU in product((0, 1), repeat=n):
                uval = U.component(A, primedU)
                if uval == 0:
                    continue
                for primedW in product((0, 1), repeat=n):
                    factor = eab
                    for a, b in zip(primedU, primedW):
                        factor *= eps[(a, b)]
                        if factor == 0:
                            break
                    if factor == 0:
                        continue
                    wval = W.component(B, primedW)
                    if wval == 0:
                        continue
                    total += factor * uval * wval
    return total


def vector_to_spinor_level1(t, vec: tuple[Number, ...], p: Point, params=None) -> SpinorVector:
    """Spinor components of a level-1 tangent vector via a tetrad's coframe.

    U^{AA'} = e^{AA'}(U); with the rank-1 key convention k = A' index.
    """
    cov = t.coframe_values(p, params)
    comps = {}
    for (A, Ap), row in cov.items():
        comps[(A, Ap)] = sum(r * v for r, v in zip(row, vec))
    return SpinorVector(1, comps)
