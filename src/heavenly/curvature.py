"""Metric to curvature pipeline with spinor decomposition.

Curvature is computed from metric components by the coordinate method
(Levi-Civita connection, then the Riemann tensor from its values and
gradients).  A point's inputs are its order-2 metric jets, their inverse
through order 1 (the connection reads only its values and gradients) and the
null frame's values (:func:`spinors_from_jets`).  The CLI reads all three
off one jet of the metric's primary field (``tetrads.FieldGeometry``, the
inverse in closed form).  ``tests/geometry_oracle.py`` builds the same three
from the symbolic tetrad and metric trees, with a Gauss-Jordan inverse, as
the test reference.  The connection first checks the inverse: g ginv = 1
and d(g ginv) = 0.  Past the inverse every sum runs on integer numerators
over one common denominator per quantity (float mode: floats over small
integers), and each reported number is divided once, so in exact mode a
vanishing component is exactly zero.  Christoffel
sits over one D, Riemann over D^2, and Ricci and the scalar R come from it.

The spinors come from Riemann's blocks on 2-forms, R(B, B') = B^ab R_abcd
B'^cd, lowered on the pairs a < b, c < d only.  Take the bivectors X_ij =
V_0i ^ V_1j - V_1i ^ V_0j (SD, primed i j) and Y_ij (ASD, the same with the
unprimed index).  In a frame dual to g, g(V_AA', V_BB') = eps_AB eps_A'B'
(checked at each point), G_abcd = g_ac g_bd - g_ad g_bc has G(X_i1i2, X_i3i4)
= 2 (eps_i1i3 eps_i2i4 + eps_i1i4 eps_i2i3), the same on Y and 0 across.  On
like bivectors W = R - (R/12) G, so psi_i1i2i3i4 = (R(X_i1i2, X_i3i4) -
(R/6)(eps_i1i3 eps_i2i4 + eps_i1i4 eps_i2i3)) / 4, and R(X_ij, Y_kl) =
4 Phi_klij (Penrose & Rindler, Spinors and Space-Time I, 4.6).

Conventions: R^a_{bcd} = d_c Gamma^a_{db} - d_d Gamma^a_{cb}
+ Gamma^a_{ce} Gamma^e_{db} - Gamma^a_{de} Gamma^e_{cb};  Ricci R_{bd} =
R^a_{bad};  the spinors are those of W_{abcd} = eps_{A'B'} eps_{C'D'} C_{ABCD}
+ eps_{AB} eps_{CD} C_{A'B'C'D'}: C_ABCD (``weyl_asd``) on Y, C_A'B'C'D'
(``weyl_sd``) on X.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import mul
from typing import Iterable, Mapping, Sequence

from .jetcore import (
    EvaluationError,
    Jet,
    Number,
    Point,
    chart_coords,
    common_denominator,
    divider,
)
from .tetrads import EPS


def _christoffel_numerators(gj: list[list[Jet]], ginv: list[list[Jet]]):
    """Gamma^a_{bc} and its first partials as numerators over one common D, and
    the metric's and the inverse's values, ``(G, D, (gv, Dg), (giv, Di))``.

    ``gj`` are the order-2 metric jets and ``ginv`` their inverse through
    order 1.  The metric's values and first and second partials go over one
    denominator Dg, the inverse's values and gradients over one Di, and
    D = 2 Di Dg.
    ``G[a][b][c]`` is one list, the value numerator then the n gradient
    numerators; it is built for b <= c (the metric jets are symmetric: g_ab and
    g_ba are one jet) and mirrored onto ``G[a][c][b]``.

    In float mode D is 2 and each operation is the one the order-1 jet
    product g^ad * (2 Gamma_dbc) does, in the same order, a zero g^ad
    skipped as the product skips a zero factor, so the symbols, once divided
    by D, are bit for bit the jet route's.
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
    # |g| |ginv|, their summed |values and gradients| (elimination leaves noise where 0 is due)
    exact = gj[0][0].mode == "exact"
    size = 0 if exact else (sum(abs(v) for x in nums for v in x[:1 + n])
                            * sum(abs(v) for y in inv for v in y))
    for a, b in product(range(n), repeat=2):
        r = [0] * (n + 1)
        for x, y in zip(g1[a], inv[b::n]):
            if any(x) and any(y):
                r = [rk + xk * y[0] + x[0] * yk for rk, xk, yk in zip(r, x, y)]
        r[0] -= 2 * Dg * Di * (a == b)
        if any(abs(rk) > 1e-9 * size for rk in r):
            raise (ValueError if exact else EvaluationError)(
                "ginv is not the metric's inverse through order 1 at this point")
    zero = 0 if exact else 0.0
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


def _riemann_values(G, D):
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


def _riemann_at(gj: list[list[Jet]], ginv: list[list[Jet]]):
    """From the order-2 metric jets at a point and their inverse through order 1:
    R^a_{bcd}, the metric values and the inverse metric values, each as
    numerators with their own common denominator."""
    G, D, gv, giv = _christoffel_numerators(gj, ginv)
    return _riemann_values(G, D), gv, giv


def _ricci_values(rm, ginv_values):
    """Ricci numerators over Riemann's denominator; the scalar's over the inverse
    metric's denominator times Riemann's."""
    n = len(rm)
    ric = [[sum(rm[a][b][a][d] for a in range(n)) for d in range(n)] for b in range(n)]
    scalar = sum(ginv_values[b][d] * ric[b][d] for b in range(n) for d in range(n))
    return ric, scalar


def _frame_components(tensor: Sequence[Number], rank: int,
                      frame: Mapping[tuple[int, int], Sequence[Number]]) -> dict:
    """T(u_k1, ..., u_kr) for every tuple of frame keys, from T's n^r coordinate
    components in row-major order.

    Contracts the leading coordinate index one at a time (O(r n^(r+1))
    products rather than the n^(2r) of the direct r-fold sum) and appends the
    frame index, so after r steps the list is row-major in the frame keys.
    Each sum runs over a ascending and skips zero factors: a frame vector is
    read as its nonzero (index, component) pairs, and a zero component of T
    is passed over.
    """
    n = len(next(iter(frame.values())))
    vectors = [[(a, x) for a, x in enumerate(u) if x] for u in frame.values()]
    zero = type(tensor[0])(0)
    t = tensor
    for _ in range(rank):
        stride = len(t) // n
        t = [sum([c * x for a, x in u if (c := col[a])], zero)
             for col in (t[rest::stride] for rest in range(stride)) for u in vectors]
    return dict(zip(product(frame, repeat=rank), t))


def _frame_numerators(fv: Mapping[tuple[int, int], Sequence[Number]]):
    """The frame vectors' components as numerators over one common denominator."""
    n = len(next(iter(fv.values())))
    flat, den = common_denominator([x for u in fv.values() for x in u])
    return {k: tuple(flat[i * n:(i + 1) * n]) for i, k in enumerate(fv)}, den


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


def spinors_from_jets(gj: list[list[Jet]], ginv: list[list[Jet]],
                      frame: Mapping[tuple[int, int], Sequence[Number]],
                      tol: float = 1e-9) -> CurvatureReport:
    """Split the Riemann tensor's bivector blocks into the two Weyl spinors and Phi.

    ``gj`` are the order-2 metric jets at a point (their center), ``ginv``
    their inverse through order 1 and ``frame`` the null frame's values there,
    keyed by (A, A').  Every sum runs on numerators, each over its own
    denominator, and each reported number is divided once.
    """
    p = gj[0][0].center
    (rm, d2), (gv, dg), (giv, di) = _riemann_at(gj, ginv)
    ric, scalar = _ricci_values(rm, giv)
    ds = di * d2
    fv, df = _frame_numerators(frame)
    q = divider(p.mode)

    # check the frame is dual to g: g(V_AA', V_BB') = eps_AB eps_A'B'
    den = dg * df * df
    gf = _frame_components([x for row in gv for x in row], 2, fv)
    worst = max(abs(got - EPS[(A, B)] * EPS[(Ap, Bp)] * den)
                for ((A, Ap), (B, Bp)), got in gf.items())
    duality_max = q(worst, den)
    if p.mode == "exact" and worst != 0:
        raise ValueError("tetrad is not dual to the metric at this point")
    if p.mode == "float" and duality_max > tol:
        raise EvaluationError(f"tetrad duality residual {duality_max:.3g} exceeds tol {tol:g} "
                              "at this point")

    # R_abcd on the coordinate pairs a < b, c < d (over dg d2), and rb = R(B, B') =
    # B^ab R_abcd B'^cd on the SD bivectors X_ij and the ASD Y_ij (over dg d2 df^4)
    n = len(gv)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    rows = [[(e, x) for e, x in enumerate(row) if x] for row in gv]
    M = [[sum(x * rm[e][b][c][d] for e, x in rows[a]) for c, d in pairs] for a, b in pairs]

    def bivector(u0, u1, v0, v1):   # u0 ^ v1 - u1 ^ v0
        return [u0[a] * v1[b] - u0[b] * v1[a] - u1[a] * v0[b] + u1[b] * v0[a] for a, b in pairs]
    sym = ((0, 0), (0, 1), (1, 1))
    bivectors = ([bivector(fv[(0, i)], fv[(1, i)], fv[(0, j)], fv[(1, j)]) for i, j in sym]
                 + [bivector(fv[(i, 0)], fv[(i, 1)], fv[(j, 0)], fv[(j, 1)]) for i, j in sym])
    Mb = [[sum(map(mul, row, b)) for row in M] for b in bivectors]
    rb = [[sum(map(mul, u, v)) for v in Mb] for u in bivectors]

    # psi_{i1i2i3i4} = (R(B_i1i2, B_i3i4) - (scalar/6)(eps_i1i3 eps_i2i4 + eps_i1i4 eps_i2i3)) / 4
    # on like bivectors (X: the SD spinor, Y: the ASD one), over d_spin
    keys = list(product(range(2), repeat=4))
    slot = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 2}
    m_b, m_s, d_spin = 6 * di, dg * df ** 4, 24 * dg * di * d2 * df ** 4

    def spinor(off):
        return {(i1, i2, i3, i4): m_b * rb[off + slot[i1, i2]][off + slot[i3, i4]]
                - m_s * scalar * (EPS[(i1, i3)] * EPS[(i2, i4)] + EPS[(i1, i4)] * EPS[(i2, i3)])
                for i1, i2, i3, i4 in keys}
    sd_num, asd_num = spinor(0), spinor(3)

    # trace-free Ricci spinor Phi_{ABA'B'} = -(R_frame - (R/4) eps eps)/2: R_frame
    # is over d2 df^2 and R over ds (a multiple of d2), so Phi is over 8 ds df^2
    rf = _frame_components([x for row in ric for x in row], 2, fv)
    m_rf, m_r, d_phi = 4 * di, df * df, 8 * ds * df * df
    phi_num = {(A, B, Ap, Bp): -(m_rf * rf[((A, Ap), (B, Bp))]
                                 - m_r * scalar * EPS[(A, B)] * EPS[(Ap, Bp)])
               for A in range(2) for B in range(2) for Ap in range(2) for Bp in range(2)}

    # reassembly, over d_spin: each spinor is symmetric in i2, i3 (the first Bianchi
    # identity), R(B, B') is symmetric, and the mixed block R(X_ij, Y_kl) is 4 Phi_klij
    re_err = max(
        *(abs(s[(i1, i2, i3, i4)] - s[(i1, i3, i2, i4)])
          for s in (sd_num, asd_num) for i1, i2, i3, i4 in keys),
        *(4 * m_b * abs(rb[k][l] - rb[l][k]) for k in range(6) for l in range(k)),
        *(abs(4 * m_b * rb[k][3 + l] - 12 * dg * df * df * phi_num[(*sym[l], *sym[k])])
          for k in range(3) for l in range(3)))

    return CurvatureReport(p, [[q(x, d2) for x in row] for row in ric], q(scalar, ds),
                           {k: q(x, d_spin) for k, x in asd_num.items()},
                           {k: q(x, d_spin) for k, x in sd_num.items()},
                           {k: q(x, d_phi) for k, x in phi_num.items()},
                           q(re_err, d_spin), duality_max)


def asd_vacuum_verdict(inputs: Iterable[tuple[list[list[Jet]], list[list[Jet]], Mapping]],
                       tol: float = 1e-9) -> dict:
    """Aggregate Ricci-flatness and self-dual-Weyl vanishing over sample points.

    ``inputs`` gives each point's order-2 metric jets, their inverse through
    order 1 and the frame values (see :func:`spinors_from_jets`); it is read
    one point at a time.
    """
    records = []
    ok = True
    for gj, ginv, frame in inputs:
        rep = spinors_from_jets(gj, ginv, frame, tol)
        p = rep.point
        ricci_max, sd_max = rep.ricci_max_abs, rep.sd_weyl_max_abs
        point_ok = ((ricci_max == 0 and sd_max == 0) if p.mode == "exact"
                    else (ricci_max < tol and sd_max < tol))
        ok = ok and point_ok
        records.append({
            "point": p,
            "ricci_max_abs": ricci_max,
            "sd_weyl_max_abs": sd_max,
            "asd_weyl_max_abs": rep.asd_weyl_max_abs,
            "scalar_R": rep.scalar,
            "pass": point_ok,
        })
    return {"verdict": "pass" if ok else "fail", "records": records}
