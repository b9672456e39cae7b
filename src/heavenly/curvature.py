"""Metric to curvature pipeline with spinor decomposition.

Curvature is computed from metric components by the coordinate method
(Levi-Civita connection, then the Riemann tensor from connection jets);
spinor pieces are extracted afterwards by projecting the Weyl tensor onto
the null frame of a tetrad.  All arithmetic is jet arithmetic, so in exact
mode a vanishing component is exactly zero.

Each point is one pass: the order-2 metric jets are evaluated and inverted
once, the Christoffel jets and Riemann follow once, the metric and inverse
metric values are read off the same jets, and Ricci, the scalar curvature
and W_abcd all come from that single Riemann.  Frame components are taken
by successive single-index contractions.

Conventions: R^a_{bcd} = d_c Gamma^a_{db} - d_d Gamma^a_{cb}
+ Gamma^a_{ce} Gamma^e_{db} - Gamma^a_{de} Gamma^e_{cb};  Ricci R_{bd} =
R^a_{bad};  Weyl spinors from W_{abcd} = eps_{A'B'} eps_{C'D'} C_{ABCD} +
eps_{AB} eps_{CD} C_{A'B'C'D'} by eps-contraction over frame indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .jetcore import Jet, Number, Point
from .tetrads import EPS, MetricField, Tetrad

_EPS_UP = EPS  # eps^{01} = eps_{01} = 1


class SingularMetricError(ValueError):
    pass


def _metric_jets(g: MetricField, p: Point, order: int, params) -> list[list[Jet]]:
    return [[f.jet(p, order, params) for f in row] for row in g.components]


def _values(m: list[list[Jet]]) -> list[list[Number]]:
    return [[x.value for x in row] for row in m]


def _invert_jet_matrix(m: list[list[Jet]]) -> list[list[Jet]]:
    """Gauss-Jordan inverse of a matrix of jets (pivot by nonzero value part)."""
    n = len(m)
    center, order, mode = m[0][0].center, m[0][0].order, m[0][0].mode
    a = [row[:] for row in m]
    inv = [[Jet.constant(1 if i == j else 0, center, order) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = None
        best = None
        for r in range(col, n):
            v = a[r][col].value
            if v != 0:
                if mode == "exact":
                    pivot = r
                    break
                if best is None or abs(v) > best:
                    best, pivot = abs(v), r
        if pivot is None:
            raise SingularMetricError("metric is singular at the evaluation point")
        a[col], a[pivot] = a[pivot], a[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        piv = a[col][col].reciprocal()
        a[col] = [x * piv for x in a[col]]
        inv[col] = [x * piv for x in inv[col]]
        for r in range(n):
            if r == col:
                continue
            factor = a[r][col]
            if not factor.coeffs:
                continue
            a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
            inv[r] = [x - factor * y for x, y in zip(inv[r], inv[col])]
    return inv


def _jet_partial(j: Jet, axis: int) -> Jet:
    n = j.nvars
    return j.shift(tuple(1 if i == axis else 0 for i in range(n)))


@dataclass
class Christoffel:
    """Gamma^a_{bc} at a point."""

    chart: str
    symbols: list[list[list[Number]]]


def _christoffel_jets(gj: list[list[Jet]], ginv: list[list[Jet]],
                      jet_order: int) -> list[list[list[Jet]]]:
    """Gamma^a_{bc} jets of order ``jet_order`` from metric jets one order higher."""
    n = len(gj)
    dg = [[[_jet_partial(gj[a][b], c) for c in range(n)] for b in range(n)] for a in range(n)]
    ginv_low = [[_truncate(ginv[a][b], jet_order) for b in range(n)] for a in range(n)]
    # 2 Gamma_{dbc} = d_c g_db + d_b g_dc - d_d g_bc, raised below by g^ad
    low = [[[dg[d][c][b] + dg[d][b][c] - dg[b][c][d] for c in range(n)] for b in range(n)]
           for d in range(n)]
    half = Fraction(1, 2)
    out = []
    for a in range(n):
        rows = []
        for b in range(n):
            cols = []
            for c in range(n):
                acc = None
                for d in range(n):
                    contrib = ginv_low[a][d] * low[d][b][c]
                    acc = contrib if acc is None else acc + contrib
                cols.append(acc.scale(half))
            rows.append(cols)
        out.append(rows)
    return out


def _truncate(j: Jet, order: int) -> Jet:
    if j.order == order:
        return j
    coeffs = {a: c for a, c in j.coeffs.items() if sum(a) <= order}
    return Jet(j.center, order, coeffs, j.mode)


def christoffel(g: MetricField, p: Point, params: Mapping[str, Number] | None = None) -> Christoffel:
    """Levi-Civita connection coefficients at p."""
    gj = _metric_jets(g, p, 1, params)
    jets = _christoffel_jets(gj, _invert_jet_matrix(gj), 0)
    n = len(gj)
    vals = [[[jets[a][b][c].value for c in range(n)] for b in range(n)] for a in range(n)]
    return Christoffel(g.chart, vals)


def _riemann_values(gamma: list[list[list[Jet]]]):
    """R^a_{bcd} values from order-1 Christoffel jets."""
    n = len(gamma)
    # dG[a][b][c][k] = d_k Gamma^a_{bc}
    dG = [[[gamma[a][b][c].grad() for c in range(n)] for b in range(n)] for a in range(n)]
    gval = [[[gamma[a][b][c].value for c in range(n)] for b in range(n)] for a in range(n)]
    out = []
    for a in range(n):
        ra = []
        for b in range(n):
            rb = []
            for c in range(n):
                rc = []
                for d in range(n):
                    s = dG[a][d][b][c] - dG[a][c][b][d]
                    for e in range(n):
                        s += gval[a][c][e] * gval[e][d][b] - gval[a][d][e] * gval[e][c][b]
                    rc.append(s)
                rb.append(rc)
            ra.append(rb)
        out.append(ra)
    return out


def _riemann_at(g: MetricField, p: Point, params):
    """One evaluation of g at p: order-2 metric jets, their inverse and R^a_{bcd}."""
    gj = _metric_jets(g, p, 2, params)
    ginv = _invert_jet_matrix(gj)
    return gj, ginv, _riemann_values(_christoffel_jets(gj, ginv, 1))


def _ricci_values(rm, ginv_values):
    n = len(rm)
    ric = [[sum(rm[a][b][a][d] for a in range(n)) for d in range(n)] for b in range(n)]
    scalar = sum(ginv_values[b][d] * ric[b][d] for b in range(n) for d in range(n))
    return ric, scalar


def _lower(gv, rm):
    n = len(rm)
    out = {}
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    out[(a, b, c, d)] = sum(gv[a][e] * rm[e][b][c][d] for e in range(n))
    return out


def riemann(g: MetricField, p: Point, params: Mapping[str, Number] | None = None):
    """R^a_{bcd} values at p (nested lists indexed [a][b][c][d])."""
    return _riemann_at(g, p, params)[2]


def ricci(g: MetricField, p: Point, params: Mapping[str, Number] | None = None):
    """(R_ab, R) at p."""
    _, ginv, rm = _riemann_at(g, p, params)
    return _ricci_values(rm, _values(ginv))


def lowered_riemann(g: MetricField, p: Point, params=None):
    gj, _, rm = _riemann_at(g, p, params)
    return _lower(_values(gj), rm)


def _weyl_at(g: MetricField, p: Point, params):
    """W_{abcd}, Ricci, scalar and the metric values at p from a single Riemann."""
    gj, ginv, rm = _riemann_at(g, p, params)
    gv = _values(gj)
    rl = _lower(gv, rm)
    ric, scalar = _ricci_values(rm, _values(ginv))
    n = len(gv)
    half = Fraction(1, 2)
    sixth = Fraction(1, 6)
    W = {}
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    W[(a, b, c, d)] = (
                        rl[(a, b, c, d)]
                        - half * (gv[a][c] * ric[b][d] - gv[a][d] * ric[b][c]
                                  - gv[b][c] * ric[a][d] + gv[b][d] * ric[a][c])
                        + sixth * scalar * (gv[a][c] * gv[b][d] - gv[a][d] * gv[b][c]))
    return W, ric, scalar, gv


def weyl_tensor_values(g: MetricField, p: Point, params=None):
    """Fully lowered Weyl tensor W_{abcd} at p, plus (Ricci, scalar)."""
    return _weyl_at(g, p, params)[:3]


def _frame_components(tensor: dict[tuple[int, ...], Number],
                      frame: Mapping[tuple[int, int], Sequence[Number]]) -> dict:
    """T(u_k1, ..., u_kr) for every tuple of frame keys.

    Contracts one coordinate index at a time (O(r n^(r+1)) products rather
    than the n^(2r) of the direct r-fold sum).  The keys of the intermediate
    tensors are the remaining coordinate indices followed by the frame keys
    already contracted.
    """
    n = len(next(iter(frame.values())))
    first_key, first = next(iter(tensor.items()))
    zero = type(first)(0)
    t = tensor
    for _ in range(len(first_key)):
        nxt = {}
        for tail in {key[1:] for key in t}:
            col = [t[(a,) + tail] for a in range(n)]
            for k, u in frame.items():
                nxt[tail + (k,)] = sum((c * x for c, x in zip(col, u) if c and x), zero)
        t = nxt
    return t


@dataclass
class CurvatureReport:
    """Curvature invariants at one point, in the tetrad's spin frame."""

    point: Point
    ricci: list[list[Number]]
    scalar: Number
    weyl_asd: dict[tuple[int, int, int, int], Number]
    weyl_sd: dict[tuple[int, int, int, int], Number]
    phi: dict[tuple[int, int, int, int], Number]
    reassembly_max_abs: Number
    duality_max_abs: Number

    @property
    def ricci_max_abs(self):
        return max(abs(v) for row in self.ricci for v in row)

    @property
    def sd_weyl_max_abs(self):
        return max(abs(v) for v in self.weyl_sd.values())

    @property
    def asd_weyl_max_abs(self):
        return max(abs(v) for v in self.weyl_asd.values())


def weyl_spinors(g: MetricField, t: Tetrad, p: Point,
                 params: Mapping[str, Number] | None = None,
                 tol: float = 1e-9) -> CurvatureReport:
    """Project the Weyl tensor onto the tetrad frame and split into the two spinors."""
    W, ric, scalar, gv = _weyl_at(g, p, params)
    fv = t.frame_values(p, params)
    n = len(gv)

    # check the tetrad is dual to g: g(V_AA', V_BB') = eps_AB eps_A'B'
    gf = _frame_components({(a, b): gv[a][b] for a in range(n) for b in range(n)}, fv)
    duality_max = max(abs(got - EPS[(A, B)] * EPS[(Ap, Bp)])
                      for ((A, Ap), (B, Bp)), got in gf.items())
    if (p.mode == "exact" and duality_max != 0) or (p.mode == "float" and duality_max > tol):
        raise ValueError("tetrad is not dual to the metric at this point")

    w_frame = _frame_components(W, fv)

    quarter = Fraction(1, 4)
    sd = {}
    asd = {}
    for i1 in range(2):
        for i2 in range(2):
            for i3 in range(2):
                for i4 in range(2):
                    s_sd = 0
                    s_asd = 0
                    for A in range(2):
                        for B in range(2):
                            e1 = _EPS_UP[(A, B)]
                            if e1 == 0:
                                continue
                            for C in range(2):
                                for D in range(2):
                                    e2 = _EPS_UP[(C, D)]
                                    if e2 == 0:
                                        continue
                                    s_sd += e1 * e2 * w_frame[((A, i1), (B, i2), (C, i3), (D, i4))]
                                    s_asd += e1 * e2 * w_frame[((i1, A), (i2, B), (i3, C), (i4, D))]
                    sd[(i1, i2, i3, i4)] = quarter * s_sd
                    asd[(i1, i2, i3, i4)] = quarter * s_asd

    # trace-free Ricci spinor Phi_{ABA'B'} = -(R_frame - (R/4) eps eps)/2
    rf = _frame_components({(a, b): ric[a][b] for a in range(n) for b in range(n)}, fv)
    phi = {(A, B, Ap, Bp): -(rf[((A, Ap), (B, Bp))] - scalar * EPS[(A, B)] * EPS[(Ap, Bp)] / 4) / 2
           for A in range(2) for B in range(2) for Ap in range(2) for Bp in range(2)}

    # reassembly: W == eps_{A'B'} eps_{C'D'} C_ABCD + eps_AB eps_CD C_{A'B'C'D'}
    re_err = []
    for (k1, k2, k3, k4), val in w_frame.items():
        (A, Ap), (B, Bp), (C, Cp), (D, Dp) = k1, k2, k3, k4
        rebuilt = (EPS[(Ap, Bp)] * EPS[(Cp, Dp)] * asd[(A, B, C, D)]
                   + EPS[(A, B)] * EPS[(C, D)] * sd[(Ap, Bp, Cp, Dp)])
        re_err.append(abs(val - rebuilt))
    return CurvatureReport(p, ric, scalar, asd, sd, phi, max(re_err), duality_max)


def verify_asd_vacuum(g: MetricField, t: Tetrad, points: Sequence[Point],
                      params: Mapping[str, Number] | None = None,
                      tol: float = 1e-9) -> dict:
    """Aggregate Ricci-flatness and self-dual-Weyl vanishing over sample points."""
    records = []
    ok = True
    for p in points:
        rep = weyl_spinors(g, t, p, params, tol)
        exact = p.mode == "exact"
        point_ok = ((rep.ricci_max_abs == 0 and rep.sd_weyl_max_abs == 0) if exact
                    else (rep.ricci_max_abs < tol and rep.sd_weyl_max_abs < tol))
        ok = ok and point_ok
        records.append({
            "point": p,
            "ricci_max_abs": rep.ricci_max_abs,
            "sd_weyl_max_abs": rep.sd_weyl_max_abs,
            "asd_weyl_max_abs": rep.asd_weyl_max_abs,
            "scalar_R": rep.scalar,
            "pass": point_ok,
        })
    return {"verdict": "pass" if ok else "fail", "records": records}
