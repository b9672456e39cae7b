"""The symbolic tetrad and metric trees: the test oracle for ``heavenly.tetrads.FieldGeometry``.

This is how the package built a metric and its frame before it read them off
one jet of the primary field: the null tetrad as trees of the potential's
symbolic second derivatives, g_ab = eps_AB eps_A'B' e^AA'_a e^BB'_b expanded
from the coframe, the self-dual two-forms wedged from it, and the inverse by
Gauss-Jordan elimination on jets (conventions: the ``heavenly.tetrads``
docstring).  :func:`tree_inputs` hands the curvature core what
``FieldGeometry.at`` hands it, from these trees: the metric table read off
the trees' jets (:func:`table_of_jets`, the read-out the package made of its
own metric jets before it read the table off the primary field's jet by
name) and the inverse's values, put over one denominator here
(:func:`numerator_matrix`; :func:`frame_table` does the same for a tetrad's
frame values), as the package's geometry hands them.  The Christoffel route to
Riemann, which the package used before it lowered Riemann straight from the
metric's second partials, is kept here as the curvature core's independent
reference (:func:`curvature_at`).  The displayed Lax pairs as trees of the
potential's symbolic second derivatives, with the bracket of tree vector
fields (:func:`lax_commutator_residual`), and the gauge perturbation as one
tree are the references of the jet-read ``tetrads.lax_pair_theta``,
``lax_pair_omega`` and ``recursion.gauge_symmetry_perturbation``.  The
test-only helpers of ``hierarchy``, ``recursion`` and ``symplectic`` live here
too; every symbolic derivative is ``diff_oracle.diff``.  Nothing in ``src/``
imports it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from heavenly.catalog import CatalogEntry
from heavenly.curvature import asd_vacuum_verdict, spinors_at
from heavenly.hierarchy import ExtendedPotential, SpinorVector, coord_name
from heavenly.jetcore import (
    EXACT,
    Expr,
    Jet,
    Number,
    Point,
    ScalarField,
    ZERO,
    add,
    chart_coords,
    common_denominator,
    const,
    div,
    field_program,
    mul,
    neg,
    pow_,
    sub,
)
from heavenly.polynomials import Poly
from heavenly.recursion import (
    X,
    Y,
    _require_wz_only,
    coeff_A,
    monomial_recursion_image,
    st_chain_program,
)
from heavenly.symplectic import COORDS, ThreeForm, boundary_integral
from heavenly.tetrads import (
    FIRST,
    SECOND,
    UPPER,
    FieldGeometry,
    FirstPotential,
    FrameTable,
    InverseTable,
    MetricTable,
    SecondPotential,
    _require_profile,
)

from diff_oracle import diff


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
        lam = const(Fraction(lam))
        return tuple(tuple(ScalarField(self.chart, sub(u.expr, mul(lam, v.expr)))
                           for u, v in zip(self.frame[(A, 0)], self.frame[(A, 1)]))
                     for A in (0, 1))  # type: ignore[return-value]


def _row_values(rows, p: Point, params) -> list[tuple[Number, ...]]:
    """The values at p of every row of fields, folded by one program run."""
    values = iter(field_program([f for row in rows for f in row]).values(p, params))
    return [tuple(next(values) for _ in row) for row in rows]


def _tetrad(chart: str, frame: dict, coframe: dict) -> Tetrad:
    return Tetrad(chart,
                  {k: tuple(ScalarField(chart, e) for e in v) for k, v in frame.items()},
                  {k: tuple(ScalarField(chart, e) for e in v) for k, v in coframe.items()})


def tetrad_from_theta(theta: SecondPotential) -> Tetrad:
    """Null tetrad of the second-form metric."""
    T = theta.field.expr
    txx = diff(diff(T, "x"), "x")
    tyy = diff(diff(T, "y"), "y")
    txy = diff(diff(T, "x"), "y")
    zero, one, m_one = ZERO, const(1), const(-1)
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
    return _tetrad("second", frame, coframe)


class DegenerateHessianError(ValueError):
    """The mixed second-derivative block of the first potential is singular."""


def tetrad_from_omega(omega: FirstPotential) -> Tetrad:
    """Null tetrad of the first-form metric; needs the mixed Hessian invertible.

    An identically singular block fails here; a pointwise-singular one fails
    with a pole error when the coframe is evaluated.
    """
    O = omega.field.expr
    h = {(a, b): diff(diff(O, a), b) for a in ("w", "z") for b in ("wt", "zt")}
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
    return _tetrad("first", frame, coframe)


def plane_wave_tetrad(f: ScalarField) -> Tetrad:
    """Tetrad for 2 dw dq + 2 dz dp + f(q, z) dz^2 on the chart (w, z, q, p)."""
    _require_profile(f)
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
    return _tetrad("plane-wave", frame, coframe)


def catalog_tetrad(entry: CatalogEntry, profile: str | None = None) -> Tetrad:
    """The tetrad of a catalog entry whose metric ``entry.geometry(profile)`` reads off its jet."""
    if entry.kind == "potential-second":
        return tetrad_from_theta(entry.second_potential())
    if entry.kind == "potential-first":
        return tetrad_from_omega(entry.first_potential())
    return plane_wave_tetrad(ScalarField.parse(profile or entry.expression, "plane-wave"))


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
    for r1, r2, sgn in (((0, 0), (1, 1), 1), ((0, 1), (1, 0), -1)):
        e1, e2 = t.coframe[r1], t.coframe[r2]
        for a, b in itertools.product(range(n), repeat=2):
            s = add(mul(e1[a].expr, e2[b].expr), mul(e1[b].expr, e2[a].expr))
            comps[a][b] = add(comps[a][b], s if sgn > 0 else neg(s))
    return MetricField(t.chart, tuple(tuple(ScalarField(t.chart, e) for e in row) for row in comps))


# ---------------------------------------------------------------------------
# two-forms and the self-dual triple

@dataclass(frozen=True)
class TwoForm:
    """Antisymmetric components on the coordinate basis; keys (a, b) with a < b."""

    chart: str
    components: dict[tuple[int, int], ScalarField]

    def value(self, a: int, b: int, p: Point, params=None) -> Number:
        if a == b:
            return p.domain.number(0)
        if a < b:
            return self.components[(a, b)].value(p, params)
        return -self.components[(b, a)].value(p, params)

    def contract_vector(self, comps: tuple[Number, ...], p: Point, params=None) -> tuple[Number, ...]:
        """Interior product with a vector given by component values at p."""
        n = len(chart_coords(self.chart))
        return tuple(sum(comps[a] * self.value(a, b, p, params) for a in range(n))
                     for b in range(n))

    def wedge_volume_coefficient(self, other: "TwoForm") -> ScalarField:
        """Coefficient of the coordinate volume form in self ^ other (4 coords only)."""
        n = len(chart_coords(self.chart))
        if n != 4:
            raise ValueError("wedge to a volume form needs a 4-coordinate chart")
        e = ZERO
        for (a, b) in itertools.combinations(range(4), 2):
            c, d = tuple(i for i in range(4) if i not in (a, b))
            sign = perm_sign((a, b, c, d))
            term = mul(self.components[(a, b)].expr, other.components[(c, d)].expr)
            e = add(e, mul(const(sign), term))
        return ScalarField(self.chart, e)

    def exterior_derivative_values(self, p: Point, params=None) -> dict[tuple[int, int, int], Number]:
        """(d self)_{abc} for a<b<c, evaluated at p from component jets."""
        coords = chart_coords(self.chart)
        n = len(coords)
        grads = {k: [*map(f.jet(p, 1, params).d, coords)] for k, f in self.components.items()}
        # a < b < c, so each component read is (d_i self)_{jk} with j < k
        return {(a, b, c): grads[(b, c)][a] - grads[(a, c)][b] + grads[(a, b)][c]
                for a, b, c in itertools.combinations(range(n), 3)}


def perm_sign(perm: tuple[int, ...]) -> int:
    """(-1) to the number of inversions of ``perm``."""
    return (-1) ** sum(x > y for i, x in enumerate(perm) for y in perm[i + 1:])


_PERMUTATIONS4 = [(perm, perm_sign(perm)) for perm in itertools.permutations(range(4))]


def _wedge(chart: str, u: tuple[Expr, ...], v: tuple[Expr, ...]) -> TwoForm:
    n = len(chart_coords(chart))
    comps = {}
    for a in range(n):
        for b in range(a + 1, n):
            comps[(a, b)] = ScalarField(chart, sub(mul(u[a], v[b]), mul(u[b], v[a])))
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
            comps[key] = ScalarField(self.chart, e)
        return TwoForm(self.chart, comps)


def sigma_forms(t: Tetrad) -> SigmaForms:
    e = {k: tuple(f.expr for f in v) for k, v in t.coframe.items()}
    alpha_tilde_neg = _wedge(t.chart, e[(0, 0)], e[(1, 0)])  # Sigma^{0'0'}
    alpha = _wedge(t.chart, e[(0, 1)], e[(1, 1)])            # Sigma^{1'1'}
    w1 = _wedge(t.chart, e[(0, 0)], e[(1, 1)])
    w2 = _wedge(t.chart, e[(0, 1)], e[(1, 0)])
    omega = TwoForm(t.chart, {k: ScalarField(t.chart, add(w1.components[k].expr,
                                                          w2.components[k].expr))
                              for k in w1.components})
    alpha_tilde = TwoForm(t.chart, {k: ScalarField(t.chart, neg(f.expr))
                                    for k, f in alpha_tilde_neg.components.items()})
    return SigmaForms(t.chart, alpha_tilde, omega, alpha)


# ---------------------------------------------------------------------------
# the displayed Lax pairs as trees, and the bracket of tree vector fields

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


def lax_components(pair) -> list[list[list[Number]]]:
    """The value and the gradient of each component of L_0 and of L_1 in a pair read off
    a jet (``tetrads.LaxFields``), divided; a component the pair omits is zeros."""
    return [[[pair.domain.divide(x, pair.den) for x in field[a]] if a in field else [0] * 5
             for a in range(4)] for field in (pair.l0, pair.l1)]


# ---------------------------------------------------------------------------
# metric jets, their Gauss-Jordan inverse, and the curvature core fed from them

class SingularMetricError(ValueError):
    pass


def metric_jets(g: MetricField, p: Point, order: int, params) -> list[list[Jet]]:
    """Jets of g_ab for a <= b, mirrored onto g_ba (the metric is symmetric).

    The components are folded in one program run, so subtrees they share
    (the potential's derivatives, a common denominator) are evaluated once.
    """
    rows = g.components
    n = len(rows)
    upper = [(a, b) for a in range(n) for b in range(a, n)]
    out = [[None] * n for _ in range(n)]
    jets = field_program([rows[a][b] for a, b in upper]).jets(p, order, params)
    for (a, b), jet in zip(upper, jets):
        out[a][b] = out[b][a] = jet
    return out


def invert_jet_matrix(m: list[list[Jet]]) -> list[list[Jet]]:
    """Gauss-Jordan inverse of a matrix of jets (pivot by nonzero value part).

    A product with a zero jet is zero, so it is not taken: a zero entry stays
    as it is when its row is scaled, and an entry minus a zero is kept.  Only
    the sign of a float zero can differ from taking them, and a read-out
    (``Jet.d_numerators``) gives every zero as 0.0.
    """
    n = len(m)
    center, order, domain = m[0][0].center, m[0][0].order, m[0][0].domain
    a = [row[:] for row in m]
    inv = [[Jet.constant(1 if i == j else 0, center, order) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = best = None
        for r in range(col, n):
            v = a[r][col].value
            if v != 0:
                if domain is EXACT:
                    pivot = r
                    break
                if best is None or abs(v) > best:
                    best, pivot = abs(v), r
        if pivot is None:
            raise SingularMetricError("metric is singular at the evaluation point")
        a[col], a[pivot] = a[pivot], a[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        piv = a[col][col].reciprocal()
        a[col] = [x if x.is_zero() else x * piv for x in a[col]]
        inv[col] = [x if x.is_zero() else x * piv for x in inv[col]]
        for r in range(n):
            if r == col:
                continue
            factor = a[r][col]
            if factor.is_zero():
                continue
            a[r] = [x if y.is_zero() else x - factor * y for x, y in zip(a[r], a[col])]
            inv[r] = [x if y.is_zero() else x - factor * y for x, y in zip(inv[r], inv[col])]
    return inv


def tree_jets(g: MetricField, p: Point, params=None) -> tuple[list[list[Jet]], list[list[Jet]]]:
    """g's order-2 jets at p and their Gauss-Jordan inverse through order 1: the
    inputs of the Christoffel route below."""
    gj = metric_jets(g, p, 2, params)
    return gj, invert_jet_matrix([[x.truncate(1) for x in row] for row in gj])


def table_of_jets(gj: list[list[Jet]]) -> MetricTable:
    """The metric table (``heavenly.tetrads.MetricTable``) read off order-2 metric jets:
    each g_ab, a <= b, read out with its first and second partials, all over their lcm."""
    coords = chart_coords(gj[0][0].center.chart)
    partials = [(), *((c,) for c in coords), *((coords[c], coords[e]) for c, e in UPPER)]
    return common_denominator([gj[a][b].d_numerators(*partials) for a, b in UPPER])


def derived_metric_jets(geometry: FieldGeometry, p: Point, params=None) -> list[list[Jet]]:
    """g's order-2 jets formed from one jet of the geometry's field by ``Jet.d_jet`` and
    jet sums and products, as the package formed them before it read its table off that
    jet by name.  Their table (:func:`table_of_jets`) is the float reference for the
    geometry's table bit for bit: the tree jets round differently on a rational field."""
    jet = geometry.field.jet(p, geometry.order, params)
    zero, one = (Jet.constant(v, p, 2) for v in (0, 1))
    if geometry.field.chart == FIRST:
        h = [jet.d_jet(a, b) for a in ("w", "z") for b in ("wt", "zt")]
        s = -(h[0] * h[3] - h[1] * h[2]).reciprocal()
        w_wt, w_zt, z_wt, z_zt = (x * s for x in h)
        return [[zero, zero, w_wt, w_zt], [zero, zero, z_wt, z_zt],
                [w_wt, z_wt, zero, zero], [w_zt, z_zt, zero, zero]]
    if geometry.field.chart == SECOND:
        txx, txy, tyy = (jet.d_jet(*names) for names in (("x", "x"), ("x", "y"), ("y", "y")))
        ww, wz, zz = tyy + tyy, -(txy + txy), txx + txx
    else:   # a plane-wave profile is g_zz itself
        ww, wz, zz = zero, zero, jet
    return [[ww, wz, one, zero], [wz, zz, zero, one], [one, zero, zero, zero], [zero, one, zero, zero]]


def numerator_matrix(values: list[list[Number]]) -> InverseTable:
    """A matrix of values as numerators over one denominator (``InverseTable``)."""
    flat, den = common_denominator([x for row in values for x in row])
    n = len(values)
    return [flat[n * a:n * (a + 1)] for a in range(n)], den


def frame_table(frame: Mapping[tuple[int, int], tuple[Number, ...]]) -> FrameTable:
    """Frame values keyed by (A, A') as numerators over one denominator (``FrameTable``)."""
    flat, den = common_denominator([x for u in frame.values() for x in u])
    return {k: tuple(flat[4 * i:4 * i + 4]) for i, k in enumerate(frame)}, den


def tree_inputs(g: MetricField, p: Point, params=None) -> tuple[MetricTable, InverseTable]:
    """The table of g's order-2 tree jets at p and their Gauss-Jordan inverse's
    values over one denominator: the pair ``FieldGeometry.at`` gives with the
    inverse in closed form."""
    gj = metric_jets(g, p, 2, params)
    return table_of_jets(gj), numerator_matrix(
        [[x.value for x in row] for row in invert_jet_matrix([[x.truncate(0) for x in row]
                                                              for row in gj])])


# the Christoffel route: Gamma^a_bc with its gradients, R^a_bcd from them, and Ricci.
# The package lowers Riemann straight from the metric's second partials instead
# (``curvature._riemann_block``); this route stays as its independent reference

def christoffel_numerators(gj: list[list[Jet]], ginv: list[list[Jet]]):
    """Gamma^a_{bc} and its first partials as numerators over one common D, and
    the metric's and the inverse's values, ``(G, D, (gv, Dg), (giv, Di))``.

    ``gj`` are the order-2 metric jets and ``ginv`` their inverse through
    order 1.  The metric's values and first and second partials go over one
    denominator Dg, the inverse's values and gradients over one Di, and
    D = 2 Di Dg.
    ``G[a][b][c]`` is one list, the value numerator then the n gradient
    numerators; it is built for b <= c (the metric jets are symmetric: g_ab and
    g_ba are one jet) and mirrored onto ``G[a][c][b]``.

    In the float domain D is 2 and each operation is the one the order-1 jet
    product g^ad * (2 Gamma_dbc) does, in the same order, a zero g^ad
    skipped as the product skips a zero factor, so the symbols, once divided
    by D, are bit for bit the jet route's.  This is the package's connection
    before it lowered Riemann from the metric's second partials; it checks its
    inverse through order 1 (g ginv = 1 and d(g ginv) = 0).
    """
    n = len(gj)
    upper = [(b, c) for b in range(n) for c in range(b, n)]
    coords = chart_coords(gj[0][0].center.chart)
    first = [(c,) for c in coords]
    second = [(coords[c], coords[e]) for c, e in upper]   # d_c d_e = d_e d_c: read once
    at = {}   # (c, e) -> where d_c d_e sits in a component's read-out
    for k, (c, e) in enumerate(upper):
        at[(c, e)] = at[(e, c)] = 1 + n + k
    nums, Dg = common_denominator([gj[a][b].d_numerators((), *first, *second) for a, b in upper])
    # g1[a][b]: g_ab, then its gradient; dg[a][b][c]: d_c g_ab, then d_e d_c g_ab for each e
    g1 = [[None] * n for _ in range(n)]
    dg = [[None] * n for _ in range(n)]
    for (a, b), num in zip(upper, nums):
        g1[a][b] = g1[b][a] = num[:1 + n]
        dg[a][b] = dg[b][a] = [[num[1 + c], *(num[at[(c, e)]] for e in range(n))] for c in range(n)]
    # 2 Gamma_{dbc} = d_c g_db + d_b g_dc - d_d g_bc, raised below by g^ad
    low = {(b, c): [[x + y - z for x, y, z in zip(dg[d][c][b], dg[d][b][c], dg[b][c][d])]
                    for d in range(n)] for b, c in upper}
    inv, Di = common_denominator([x.d_numerators((), *first) for row in ginv for x in row])
    # ginv must be g's inverse through order 1 (g ginv = 1, d(g ginv) = 0) or the connection
    # is not g's.  r is [2 (g ginv)_ab, d_1 (g ginv)_ab, ...]; a float r may be 1e-9 of
    # |g| |ginv|, their summed |values and gradients| (elimination leaves noise where 0 is due);
    # 10^9 r is compared, since 1e-9 times an exact size could overflow a float
    domain = gj[0][0].domain
    size = sum(abs(v) for x in nums for v in x[:1 + n]) * sum(abs(v) for y in inv for v in y)
    for a, b in itertools.product(range(n), repeat=2):
        r = [0] * (n + 1)
        for x, y in zip(g1[a], inv[b::n]):
            if any(x) and any(y):
                r = [rk + xk * y[0] + x[0] * yk for rk, xk, yk in zip(r, x, y)]
        r[0] -= 2 * Dg * Di * (a == b)
        if any(r) and any(domain.verdict(10 ** 9 * abs(rk), size) is False for rk in r):
            raise domain.error("ginv is not the metric's inverse through order 1 at this point")
    zero = domain.zero
    G = [[[None] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        row = [(d, h) for d, h in enumerate(inv[a * n:(a + 1) * n]) if any(h)]   # g^ad != 0
        for b, c in upper:
            val, grad, lbc = zero, [zero] * n, low[(b, c)]
            for d, h in row:   # g^ad and 2 Gamma_dbc, each with its gradient
                t = lbc[d]
                h0, t0 = h[0], t[0]
                val += h0 * t0
                grad = [s + (h0 * te + he * t0) for s, te, he in zip(grad, t[1:], h[1:])]
            G[a][b][c] = G[a][c][b] = [val, *grad]
    return (G, 2 * Di * Dg, ([[x[0] for x in row] for row in g1], Dg),
            ([[inv[a * n + b][0] for b in range(n)] for a in range(n)], Di))


def riemann_values(G, D):
    """R^a_{bcd} numerators over D^2 from the Christoffel numerators over D."""
    n = len(G)
    gv = [[[x[0] for x in gb] for gb in ga] for ga in G]
    out = [[[[0] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for a in range(n):
        Ga, gva = G[a], gv[a]
        for b in range(n):
            rb = out[a][b]
            for c in range(n):
                for d in range(c + 1, n):   # antisymmetric in c, d
                    s = D * (Ga[d][b][1 + c] - Ga[c][b][1 + d])
                    for e in range(n):
                        s += gva[c][e] * gv[e][d][b] - gva[d][e] * gv[e][c][b]
                    rb[c][d] = s
                    rb[d][c] = -s
    return out, D * D


def ricci_values(rm, ginv_values):
    """Ricci numerators over Riemann's denominator; the scalar's over the inverse
    metric's denominator times Riemann's."""
    n = len(rm)
    ric = [[sum(rm[a][b][a][d] for a in range(n)) for d in range(n)] for b in range(n)]
    scalar = sum(ginv_values[b][d] * ric[b][d] for b in range(n) for d in range(n))
    return ric, scalar


def curvature_at(g: MetricField, p: Point, params=None):
    """(Gamma^a_{bc} [a][b][c], R^a_{bcd} [a][b][c][d], Ricci [b][d], scalar R) at p:
    the Christoffel route's integer sums on g's tree jets, each number divided once."""
    G, D, _, (giv, di) = christoffel_numerators(*tree_jets(g, p, params))
    rm, d2 = riemann_values(G, D)
    ric, scalar = ricci_values(rm, giv)
    q = p.domain.divide
    return ([[[q(x[0], D) for x in gb] for gb in ga] for ga in G],
            [[[[q(x, d2) for x in rc] for rc in rb] for rb in ra] for ra in rm],
            [[q(x, d2) for x in row] for row in ric], q(scalar, di * d2))


def weyl_spinors(g: MetricField, t: Tetrad, p: Point, params=None, tol: float = 1e-9):
    """``spinors_at`` on the table of g's tree jets and t's frame values at p."""
    return spinors_at(p, *tree_inputs(g, p, params), frame_table(t.frame_values(p, params)), tol)


def verify_asd_vacuum(g: MetricField, t: Tetrad, points, params=None, tol: float = 1e-9) -> dict:
    """``asd_vacuum_verdict`` on the table of g's tree jets and t's frame values at each point."""
    return asd_vacuum_verdict(((p, *tree_inputs(g, p, params),
                                frame_table(t.frame_values(p, params))) for p in points), tol)


# ---------------------------------------------------------------------------
# the extended hierarchy's slice metric and spinor map

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
    for A, B in itertools.product((0, 1), repeat=2):
        second = diff(diff(T, coord_name(A, 0)), coord_name(B, 0))
        a, b = idx(A, 1), idx(B, 1)
        comps[a][b] = add(comps[a][b], mul(const(2), second))
    chart = E.chart
    return MetricField(chart, tuple(tuple(ScalarField(chart, e) for e in row) for row in comps))


def vector_to_spinor_level1(t: Tetrad, vec: tuple[Number, ...], p: Point,
                            params=None) -> SpinorVector:
    """Spinor components of a level-1 tangent vector via a tetrad's coframe.

    U^{AA'} = e^{AA'}(U); with the rank-1 key convention k = A' index.
    """
    return SpinorVector(1, {key: sum(r * v for r, v in zip(row, vec))
                            for key, row in t.coframe_values(p, params).items()})


# ---------------------------------------------------------------------------
# recursion

def flat_wave_poly(phi: Poly) -> Poly:
    return phi.diff("x").diff("w") + phi.diff("y").diff("z")


def formal_step_consistency(n: int, sigma, points) -> Fraction:
    """Max |termwise formal image of psi_n minus psi_{n+1}| over the points."""
    params = {"sigma": Fraction(sigma)}
    terms = [(coeff_A(n, k), monomial_recursion_image(k, k - n)) for k in range(n + 1)
             if coeff_A(n, k)[0]]
    chain = st_chain_program(n + 1, {})   # outputs: the potential, psi_1..psi_(n+1)
    worst = Fraction(0)
    for p in points:
        total = sum(c * params["sigma"] ** j * img.value(p, params) for (c, j), img in terms)
        worst = max(worst, abs(total - chain.values(p, params)[n + 1]))
    return worst


def gauge_symmetry_perturbation(F: ScalarField, G0: ScalarField, G1: ScalarField,
                                g: ScalarField, h: ScalarField,
                                theta: SecondPotential) -> ScalarField:
    """``heavenly.recursion.gauge_symmetry_perturbation`` as one tree of the inputs'
    symbolic derivatives."""
    for name, f in (("F", F), ("G0", G0), ("G1", G1), ("g", g), ("h", h)):
        _require_wz_only(name, f)
    T = theta.field.expr
    gw, gz = diff(g.expr, "w"), diff(g.expr, "z")
    gww, gwz, gzz = diff(gw, "w"), diff(gw, "z"), diff(gz, "z")
    hw, hz = diff(h.expr, "w"), diff(h.expr, "z")
    hww, hwz, hzz = diff(hw, "w"), diff(hw, "z"), diff(hz, "z")
    hwww, hwwz, hwzz, hzzz = diff(hww, "w"), diff(hww, "z"), diff(hwz, "z"), diff(hzz, "z")
    Tx, Ty, Tw, Tz = diff(T, "x"), diff(T, "y"), diff(T, "w"), diff(T, "z")
    half = const(Fraction(1, 2))
    sixth = const(Fraction(1, 6))

    e: Expr = F.expr
    e = add(e, add(mul(X, G0.expr), mul(Y, G1.expr)))
    # quadratic tail and transport of the lower generator
    e = add(e, mul(half, mul(gzz, pow_(X, 2))))
    e = sub(e, mul(gwz, mul(X, Y)))
    e = add(e, mul(half, mul(gww, pow_(Y, 2))))
    e = sub(e, mul(gw, Tx))
    e = sub(e, mul(gz, Ty))
    # cubic tail and transport of the upper generator
    e = sub(e, mul(sixth, mul(hzzz, pow_(X, 3))))
    e = add(e, mul(half, mul(hwzz, mul(pow_(X, 2), Y))))
    e = sub(e, mul(half, mul(hwwz, mul(X, pow_(Y, 2)))))
    e = add(e, mul(sixth, mul(hwww, pow_(Y, 3))))
    e = add(e, sub(mul(hw, Tz), mul(hz, Tw)))
    e = add(e, mul(sub(mul(hwz, X), mul(hww, Y)), Tx))
    e = add(e, mul(sub(mul(hzz, X), mul(hwz, Y)), Ty))
    return ScalarField(SECOND, e)


# ---------------------------------------------------------------------------
# symplectic

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


def boundary_of_boundary_residual(tf_components: dict[tuple[int, int], Poly], box) -> Fraction:
    """Integral of d(two-form) over the box boundary; zero by exact face cancellation.

    The 3-form d tf is stored against the volume with dx^k removed: its
    component on dx^a ^ dx^b ^ dx^c (a < b < c, the coordinates other than k)
    is the antisymmetrised sum below.
    """
    tf = tf_components
    deta = [tf[(b, c)].diff(COORDS[a]) - tf[(a, c)].diff(COORDS[b]) + tf[(a, b)].diff(COORDS[c])
            for a, b, c in (tuple(i for i in range(4) if i != k) for k in range(4))]
    return boundary_integral(ThreeForm(tuple(deta)), box)


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
                           box, params=None) -> float:
    """Float-quadrature boundary pairing on a curved background.

    Gauss quadrature (8 nodes per axis, exact for polynomial integrands of
    degree <= 15 per axis) of the same boundary 3-form with the curved star
    operator.  No exactness guarantee: intended for rational-function
    backgrounds where face integrals have no closed polynomial form.  The
    box must avoid the background's singular locus.
    """
    s1, s2 = hodge_star_d(theta, d2, params), hodge_star_d(theta, d1, params)
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
            for (x1, w1), (x2, w2), (x3, w3) in itertools.product(nodes, repeat=3):
                vals = [0.0] * 4
                vals[k], vals[others[0]], vals[others[1]], vals[others[2]] = side, x1, x2, x3
                p = Point("second", tuple(vals))
                eta = (d1.value(p, fparams) * c1k.value(p, fparams)
                       - d2.value(p, fparams) * c2k.value(p, fparams))
                acc += w1 * w2 * w3 * eta
            total += sign * ssign * acc
    return 2.0 / 3.0 * total
