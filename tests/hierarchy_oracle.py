"""The symbolic route through the flow hierarchy, kept as a test oracle for ``heavenly.hierarchy``.

This is how the package evaluated the compatibility commutators, the
summed-Lax identity and the Sato flow form before it read them off one jet
of the potential: every vector field component and every flow residual is a
symbolically differentiated expression tree (``diff_oracle.diff``), folded
into its own jet at the point.  It is slow and obviously correct, which is
what an oracle should be.  The tree builders the package once kept public
live here: the Lax fields L_{Ai} (``lax_field``), D_{Ai+1}
(``d_flow_field``), delta_{Ai} and the truncated series omega^A_j
(``truncated_omega``); so do the tree Lax pairs' bracket
(``geometry_oracle.vector_commutator_values``) and the paraconformal
pairing's sum over every primed index string, which the package replaced by
its closed form.  Nothing in ``src/`` imports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from heavenly.hierarchy import ExtendedPotential, coord_name
from heavenly.jetcore import ZERO, Expr, ScalarField, Var, add, chart_coords, const, mul, neg
from heavenly.tetrads import EPS
from heavenly.twistor import LambdaSeries

from diff_oracle import diff
from geometry_oracle import vector_commutator_values


# ---------------------------------------------------------------------------
# the tree Lax fields and truncated series

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


def flow_lax_values(fields, A: int, i: int, lam) -> list:
    """The values of L_{Ai} = delta_{Ai} - lam D_{Ai+1} off the package's ``FlowFields``
    (exact), to compare with :func:`lax_field`'s."""
    out = [Fraction(0)] * len(fields.axes)
    for sign, V in ((1, fields.delta(A, i)), (-lam, fields.D(A, i))):
        for a, comp in V.items():
            out[a] += sign * Fraction(comp[0], fields.den)
    return out


# ---------------------------------------------------------------------------
# residuals on the trees

def _pb_expr(f, g):
    a00, a10 = coord_name(0, 0), coord_name(1, 0)
    return add(mul(diff(f, a00), diff(g, a10)), neg(mul(diff(f, a10), diff(g, a00))))


def hierarchy_residual_field(E, A, i, B, j) -> ScalarField:
    """d_{Ai} d_{Bj-1} Theta - d_{Bj} d_{Ai-1} Theta + {d_{Ai-1} Theta, d_{Bj-1} Theta} as a tree."""
    T = E.field.expr
    d = lambda AA, ii, e: diff(e, coord_name(AA, ii))
    first = d(A, i, d(B, j - 1, T))
    second = d(B, j, d(A, i - 1, T))
    bracket = _pb_expr(d(A, i - 1, T), d(B, j - 1, T))
    return ScalarField(E.chart, add(add(first, neg(second)), bracket))


def hierarchy_residual(E, A, i, B, j, p, params=None):
    if not (1 <= i <= E.n and 1 <= j <= E.n):
        raise IndexError("flow indices must lie in 1..n")
    return hierarchy_residual_field(E, A, i, B, j).value(p, params)


def lax_compat_residual(E, pairs, p, params=None) -> dict:
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
            "delta_delta": two,
            "mixed": three,
        })
    return {"pairs": out}


def summed_lax_identity_residual(E, A, j, test, p, params=None) -> dict:
    if not (1 <= j <= E.n):
        raise IndexError("truncation level out of range")
    coords = chart_coords(E.chart)
    dtest = [*map(test.jet(p, 1, params).d, coords)]
    lhs = {}
    for i in range(j):
        dval = sum(c.value(p, params) * dtest[ax]
                   for ax, c in enumerate(d_flow_field(E, A, i)) if not c.is_zero())
        delv = dtest[coords.index(coord_name(A, i))]
        lhs[i] = lhs.get(i, 0) - delv
        lhs[i + 1] = lhs.get(i + 1, 0) + dval
    om0, om1 = truncated_omega(E, j)
    lowered = (LambdaSeries(om1.chart, om1.min_deg,
                            tuple(ScalarField(E.chart, neg(f.expr)) for f in om1.coeffs))
               if A == 0 else om0)
    rhs = {}
    i00, i10 = coords.index("x00"), coords.index("x10")
    for m in range(0, j + 1):
        cj = lowered.coefficient(m).jet(p, 1, params)
        rhs[m] = rhs.get(m, 0) + cj.d("x00") * dtest[i10] - cj.d("x10") * dtest[i00]
    rhs[j] = rhs.get(j, 0) + dtest[coords.index(coord_name(A, j))]
    return {m: lhs.get(m, 0) - rhs.get(m, 0) for m in range(0, j + 1)}


def sato_flow_residual(E, B, j, p, params=None):
    """``hierarchy.sato_flow_residual`` with each coefficient folded into its own jet,
    the lowered coefficients once per curve component."""
    om = truncated_omega(E, E.n)
    if B == 0:
        lowered = [ScalarField(E.chart, neg(c.expr)) for c in truncated_omega(E, j)[1].coeffs]
    else:
        lowered = list(truncated_omega(E, j)[0].coeffs)
    flow = coord_name(B, j)

    def grad(c):
        d = c.jet(p, 1, params).d
        return d("x00"), d("x10"), d(flow)

    out = {}
    for A, series in enumerate(om):
        grads = [grad(c) for c in series.coeffs]
        orders = {}
        for r, g in enumerate(grads):
            orders[r + j] = orders.get(r + j, 0) + g[2]
        for m, lg in enumerate([grad(c) for c in lowered]):
            for r, g in enumerate(grads):
                orders[m + r] = orders.get(m + r, 0) + (lg[0] * g[1] - lg[1] * g[0])
        orders[0] = orders.get(0, 0) - (1 if A == B else 0)
        out[f"omega{A}"] = orders
    return out


def paraconformal_eval(U, W):
    """``hierarchy.paraconformal_eval`` as the sum over every primed index string of U
    and of W, O(4^n)."""
    if U.n != W.n:
        raise ValueError("rank mismatch")
    n = U.n
    total = 0
    for A in (0, 1):
        for B in (0, 1):
            eab = EPS[(A, B)]
            if eab == 0:
                continue
            for primedU in product((0, 1), repeat=n):
                uval = U.components.get((A, sum(primedU)), 0)
                if uval == 0:
                    continue
                for primedW in product((0, 1), repeat=n):
                    factor = eab
                    for a, b in zip(primedU, primedW):
                        factor *= EPS[(a, b)]
                        if factor == 0:
                            break
                    if factor == 0:
                        continue
                    wval = W.components.get((B, sum(primedW)), 0)
                    if wval == 0:
                        continue
                    total += factor * uval * wval
    return total
