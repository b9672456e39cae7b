"""Metric to curvature pipeline with spinor decomposition.

Curvature is computed from metric components by the coordinate method.  A
point's inputs are its order-2 metric jets, the values of their inverse and
the null frame's values (:func:`spinors_from_jets`).  The CLI reads all three
off one jet of the metric's primary field (``tetrads.FieldGeometry``, the
inverse in closed form).  ``tests/geometry_oracle.py`` builds the same three
from the symbolic tetrad and metric trees, with a Gauss-Jordan inverse, as
the test reference.  The core first checks the inverse: g ginv = 1 at the
point.  Past it every sum runs on integer numerators over one common
denominator per quantity (in the float domain: floats over small integers),
and each reported number is divided once by the domain, so in the exact
domain a vanishing component is exactly zero.

Riemann is lowered from the start and read on the coordinate pairs a < b,
c < d only (Misner, Thorne & Wheeler, Gravitation, 1973):

    R_abcd = (g_ad,bc + g_bc,ad - g_bd,ac - g_ac,bd) / 2
             + Gamma_{e,cb} Gamma^e_{da} - Gamma_{e,db} Gamma^e_{ca}

with 2 Gamma_{e,bc} = g_eb,c + g_ec,b - g_bc,e over the metric's
denominator Dg, 2 Gamma^e_bc = g^ef 2 Gamma_{f,bc} over Di Dg (Di the
inverse's) and R_abcd over 4 Di Dg^2.  It needs no gradient of the inverse
and no gradient of Gamma, and its antisymmetry in a, b and in c, d holds by
construction.  Ricci is R_bd = g^ae R_ebad and the scalar g^bd R_bd.

The spinors come from Riemann's blocks on 2-forms, R(B, B') = B^ab R_abcd
B'^cd, summed over the pairs a < b, c < d.  Take the bivectors X_ij =
V_0i ^ V_1j - V_1i ^ V_0j (SD, primed i j) and Y_ij (ASD, the same with the
unprimed index).  In a frame dual to g, g(V_AA', V_BB') = eps_AB eps_A'B'
(checked at each point), G_abcd = g_ac g_bd - g_ad g_bc has G(X_i1i2, X_i3i4)
= 2 (eps_i1i3 eps_i2i4 + eps_i1i4 eps_i2i3), the same on Y and 0 across.  On
like bivectors W = R - (R/12) G, so psi_i1i2i3i4 = (R(X_i1i2, X_i3i4) -
(R/6)(eps_i1i3 eps_i2i4 + eps_i1i4 eps_i2i3)) / 4, and R(X_ij, Y_kl) =
4 Phi_klij (Penrose & Rindler, Spinors and Space-Time I, 4.6).

Conventions: R^a_{bcd} = d_c Gamma^a_{db} - d_d Gamma^a_{cb}
+ Gamma^a_{ce} Gamma^e_{db} - Gamma^a_{de} Gamma^e_{cb}, R_abcd = g_ae R^e_bcd;
Ricci R_{bd} = R^a_{bad};  the spinors are those of W_{abcd} = eps_{A'B'}
eps_{C'D'} C_{ABCD} + eps_{AB} eps_{CD} C_{A'B'C'D'}: C_ABCD (``weyl_asd``)
on Y, C_A'B'C'D' (``weyl_sd``) on X.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import mul
from typing import Iterable, Mapping, Sequence

from .jetcore import (
    Jet,
    Number,
    Point,
    chart_coords,
    common_denominator,
)
from .tetrads import EPS


# index tables of a 4-dimensional metric: the ten (a, b) with a <= b (g is symmetric), where
# g_ab sits among them, and the six coordinate pairs a < b on which Riemann is held
_UPPER = [(a, b) for a in range(4) for b in range(a, 4)]
_AT = [[_UPPER.index((min(a, b), max(a, b))) for b in range(4)] for a in range(4)]
_PAIRS = [(a, b) for a in range(4) for b in range(a + 1, 4)]
# R_abcd for the i-th pair (a, b) and the j-th (c, d) reads g_ad, g_bc, g_bd, g_ac there
_BLOCK = [[(_AT[a][d], _AT[b][c], _AT[b][d], _AT[a][c]) for c, d in _PAIRS] for a, b in _PAIRS]
# (a, b) -> the index of its pair and the sign R_ab.. takes from R on that pair (None: a = b)
_SIGNED = [[None if a == b else (_PAIRS.index((min(a, b), max(a, b))), 1 if a < b else -1)
            for b in range(4)] for a in range(4)]


def _riemann_block(gj: list[list[Jet]], ginv: list[list[Number]]):
    """R_abcd on the coordinate pairs a < b, c < d, the metric's values and the
    inverse's, each as numerators over one denominator:
    ``(M, DM), (gv, Dg), (iv, Di)``.

    ``gj`` are the order-2 metric jets at a point and ``ginv`` the values of
    their inverse there.  The metric's values and first and second partials go
    over one Dg and the inverse's values over one Di; ``M[i][j]`` is R_abcd
    for the i-th pair (a, b) and the j-th pair (c, d) of ``_PAIRS``, over
    DM = 4 Di Dg^2 (the module docstring's formula).
    """
    coords = chart_coords(gj[0][0].center.chart)
    partials = [(), *((c,) for c in coords), *((coords[c], coords[e]) for c, e in _UPPER)]
    nums, Dg = common_denominator([gj[a][b].d_numerators(*partials) for a, b in _UPPER])
    gv = [[nums[k][0] for k in row] for row in _AT]
    flat, Di = common_denominator([x for row in ginv for x in row])
    iv = [flat[:4], flat[4:8], flat[8:12], flat[12:]]
    # ginv must be g's inverse at the point or the connection is not g's.  A float
    # g ginv - 1 may be 1e-9 of |g| |ginv|, their summed |values|; 10^9 r is compared,
    # since 1e-9 times an exact size could overflow a float
    domain, unit = gj[0][0].domain, Dg * Di
    size, cols = sum(abs(x[0]) for x in nums) * sum(map(abs, flat)), list(zip(*iv))
    for a, row in enumerate(gv):
        for b, col in enumerate(cols):
            r = sum(map(mul, row, col)) - unit * (a == b)
            if r and domain.verdict(10 ** 9 * abs(r), size) is False:
                raise domain.error("ginv is not the metric's inverse at this point")
    # low[k][e] = 2 Gamma_{e,bc} = d_c g_eb + d_b g_ec - d_e g_bc and up[k][e] = g^ef low[k][f]
    # = 2 Gamma^e_bc for the k-th (b, c) of _UPPER; d2[k][l] is the l-th second partial of g's
    # k-th component
    d1, d2 = [x[1:5] for x in nums], [x[5:] for x in nums]
    low = [[d1[_AT[e][b]][c] + d1[_AT[e][c]][b] - d1[k][e] for e in range(4)]
           for k, (b, c) in enumerate(_UPPER)]
    up = [[sum(map(mul, row, lk)) for row in iv] for lk in low]
    m = 2 * Di * Dg
    M = [[m * (d2[ad][bc] + d2[bc][ad] - d2[bd][ac] - d2[ac][bd])
          + sum(map(mul, low[bc], up[ad])) - sum(map(mul, low[bd], up[ac]))
          for ad, bc, bd, ac in row] for row in _BLOCK]
    return (M, 2 * m * Dg), (gv, Dg), (iv, Di)


def _ricci_numerators(M, iv):
    """R_bd = g^ae R_ebad from the block (over Di DM), and the scalar g^bd R_bd
    (over Di^2 DM), with R_ebad = -R_bead = -R_ebda read off a < b, c < d."""
    ric = [[0] * 4 for _ in range(4)]
    for a, irow in enumerate(iv):
        ad = [(d, *s) for d, s in enumerate(_SIGNED[a]) if s]
        for e, h in enumerate(irow):
            if h:
                for b, s in enumerate(_SIGNED[e]):
                    if s:
                        row, out = M[s[0]], ric[b]
                        for d, j, t in ad:
                            out[d] += (h if s[1] == t else -h) * row[j]
    return ric, sum(x * y for row, irow in zip(ric, iv) for x, y in zip(row, irow) if y)


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
    """Curvature invariants at one point, in the tetrad's spin frame.

    The three maxima are each taken over numerators that share one denominator
    and divided once, so they equal the maxima of the divided values."""

    point: Point
    ricci: list[list[Number]]
    scalar: Number
    weyl_asd: dict[tuple[int, int, int, int], Number]
    weyl_sd: dict[tuple[int, int, int, int], Number]
    phi: dict[tuple[int, int, int, int], Number]
    reassembly_max_abs: Number
    duality_max_abs: Number
    ricci_max_abs: Number
    sd_weyl_max_abs: Number
    asd_weyl_max_abs: Number


def spinors_from_jets(gj: list[list[Jet]], ginv: list[list[Number]],
                      frame: Mapping[tuple[int, int], Sequence[Number]],
                      tol: float = 1e-9) -> CurvatureReport:
    """Split the Riemann tensor's bivector blocks into the two Weyl spinors and Phi.

    ``gj`` are the order-2 metric jets at a point (their center), ``ginv``
    the values of their inverse there and ``frame`` the null frame's values,
    keyed by (A, A').  Every sum runs on numerators, each over its own
    denominator, and each reported number is divided once.
    """
    p = gj[0][0].center
    (M, dm), (gv, dg), (iv, di) = _riemann_block(gj, ginv)
    ric, scalar = _ricci_numerators(M, iv)
    d_ric, ds = di * dm, di * di * dm
    fv, df = _frame_numerators(frame)
    q = p.domain.divide

    # check the frame is dual to g: g(V_AA', V_BB') = eps_AB eps_A'B'
    den = dg * df * df
    gf = _frame_components([x for row in gv for x in row], 2, fv)
    worst = max(abs(got - EPS[(A, B)] * EPS[(Ap, Bp)] * den)
                for ((A, Ap), (B, Bp)), got in gf.items())
    duality_max = q(worst, den)
    if p.domain.verdict(duality_max, tol) is False:
        raise p.domain.error("tetrad is not dual to the metric at this point" if p.domain.exact
                             else f"tetrad duality residual {duality_max:.3g} exceeds tol {tol:g} "
                             "at this point")

    # rb = R(B, B') = B^ab R_abcd B'^cd on the SD bivectors X_ij and the ASD Y_ij
    # (over dm df^4)
    def bivector(u0, u1, v0, v1):   # u0 ^ v1 - u1 ^ v0
        return [u0[a] * v1[b] - u0[b] * v1[a] - u1[a] * v0[b] + u1[b] * v0[a] for a, b in _PAIRS]
    sym = ((0, 0), (0, 1), (1, 1))
    bivectors = ([bivector(fv[(0, i)], fv[(1, i)], fv[(0, j)], fv[(1, j)]) for i, j in sym]
                 + [bivector(fv[(i, 0)], fv[(i, 1)], fv[(j, 0)], fv[(j, 1)]) for i, j in sym])
    Mb = [[sum(map(mul, row, b)) for row in M] for b in bivectors]
    rb = [[sum(map(mul, u, v)) for v in Mb] for u in bivectors]

    # psi_{i1i2i3i4} = (R(B_i1i2, B_i3i4) - (scalar/6)(eps_i1i3 eps_i2i4 + eps_i1i4 eps_i2i3)) / 4
    # on like bivectors (X: the SD spinor, Y: the ASD one), over d_spin
    keys = list(product(range(2), repeat=4))
    slot = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 2}
    m_b, m_s, d_spin = 6 * di * di, df ** 4, 24 * ds * df ** 4

    def spinor(off):
        return {(i1, i2, i3, i4): m_b * rb[off + slot[i1, i2]][off + slot[i3, i4]]
                - m_s * scalar * (EPS[(i1, i3)] * EPS[(i2, i4)] + EPS[(i1, i4)] * EPS[(i2, i3)])
                for i1, i2, i3, i4 in keys}
    sd_num, asd_num = spinor(0), spinor(3)

    # trace-free Ricci spinor Phi_{ABA'B'} = -(R_frame - (R/4) eps eps)/2: R_frame
    # is over d_ric df^2 and R over ds = di d_ric, so Phi is over 8 ds df^2
    rf = _frame_components([x for row in ric for x in row], 2, fv)
    m_rf, m_r, d_phi = 4 * di, df * df, 8 * ds * df * df
    phi_num = {(A, B, Ap, Bp): -(m_rf * rf[((A, Ap), (B, Bp))]
                                 - m_r * scalar * EPS[(A, B)] * EPS[(Ap, Bp)])
               for A in range(2) for B in range(2) for Ap in range(2) for Bp in range(2)}

    # reassembly, over d_spin = 3 df^2 d_phi: each spinor is symmetric in i2, i3 (the
    # first Bianchi identity), R(B, B') is symmetric, and the mixed block R(X_ij, Y_kl)
    # is 4 Phi_klij
    re_err = max(
        *(abs(s[(i1, i2, i3, i4)] - s[(i1, i3, i2, i4)])
          for s in (sd_num, asd_num) for i1, i2, i3, i4 in keys),
        *(4 * m_b * abs(rb[k][l] - rb[l][k]) for k in range(6) for l in range(k)),
        *(abs(4 * m_b * rb[k][3 + l] - 12 * df * df * phi_num[(*sym[l], *sym[k])])
          for k in range(3) for l in range(3)))

    return CurvatureReport(p, [[q(x, d_ric) for x in row] for row in ric], q(scalar, ds),
                           {k: q(x, d_spin) for k, x in asd_num.items()},
                           {k: q(x, d_spin) for k, x in sd_num.items()},
                           {k: q(x, d_phi) for k, x in phi_num.items()},
                           q(re_err, d_spin), duality_max,
                           q(max(abs(x) for row in ric for x in row), d_ric),
                           q(max(map(abs, sd_num.values())), d_spin),
                           q(max(map(abs, asd_num.values())), d_spin))


def asd_vacuum_verdict(inputs: Iterable[tuple[list[list[Jet]], list[list[Number]], Mapping]],
                       tol: float = 1e-9) -> dict:
    """Aggregate Ricci-flatness and self-dual-Weyl vanishing over sample points.

    ``inputs`` gives each point's order-2 metric jets, their inverse's values
    and the frame values (see :func:`spinors_from_jets`); it is read one point
    at a time.
    """
    records = []
    ok = True
    for gj, ginv, frame in inputs:
        rep = spinors_from_jets(gj, ginv, frame, tol)
        p = rep.point
        ricci_max, sd_max = rep.ricci_max_abs, rep.sd_weyl_max_abs
        point_ok = all(p.domain.verdict(x, tol) for x in (ricci_max, sd_max))
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
