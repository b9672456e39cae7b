"""Metric to curvature pipeline with spinor decomposition.

Curvature is computed from metric components by the coordinate method.  A
point's inputs (:func:`spinors_at`) are the metric's table
(``tetrads.MetricTable``: each g_ab, a <= b, with its first and second
partials), its inverse's values and the null frame's values, each as
numerators over one denominator, as ``tetrads.FieldGeometry`` reads them off
one jet of the primary field (the test reference feeds the same core off the
symbolic trees, ``tests/geometry_oracle.py``).  The core checks the inverse
(g ginv = 1) and the frame's duality at every point.  Sums run on the
numerators as handed (floats over small integers in the float domain), each
reported number divided once, so an exact vanishing component is exactly
zero.  The core computes only what the verdict reads, the scalar and the
Ricci, SD and ASD Weyl maxima, and the duality residual; Phi, the divided
spinors and the reassembly residual are the test oracle's
(``tests/curvature_oracle.py``).

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
eps_{C'D'} C_{ABCD} + eps_{AB} eps_{CD} C_{A'B'C'D'}: C_ABCD (the ASD spinor)
on Y, C_A'B'C'D' (the SD spinor) on X.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import mul
from typing import Iterable

from .jetcore import Number, Point
from .tetrads import EPS, UPPER, FrameTable, InverseTable, MetricTable


# index tables of a 4-dimensional metric: where g_ab sits among the table's rows (UPPER, a <= b),
# and the six coordinate pairs a < b on which Riemann is held
_AT = [[UPPER.index((min(a, b), max(a, b))) for b in range(4)] for a in range(4)]
_PAIRS = [(a, b) for a in range(4) for b in range(a + 1, 4)]
# R_abcd for the i-th pair (a, b) and the j-th (c, d) reads g_ad, g_bc, g_bd, g_ac there
_BLOCK = [[(_AT[a][d], _AT[b][c], _AT[b][d], _AT[a][c]) for c, d in _PAIRS] for a, b in _PAIRS]
# (a, b) -> the index of its pair and the sign R_ab.. takes from R on that pair (None: a = b)
_SIGNED = [[None if a == b else (_PAIRS.index((min(a, b), max(a, b))), 1 if a < b else -1)
            for b in range(4)] for a in range(4)]
# psi_i1i2i3i4 reads R on like bivectors at (s(i1 i2), s(i3 i4)) of their 3x3 block (s = _SLOT)
# and the scalar with eps_i1i3 eps_i2i4 + eps_i1i4 eps_i2i3, both symmetric in i1 i2 and in i3 i4:
# so the 16 components take the 9 values of _SPINOR
_SLOT = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 2}
_SPINOR = {(_SLOT[k[:2]], _SLOT[k[2:]]): EPS[k[0], k[2]] * EPS[k[1], k[3]]
           + EPS[k[0], k[3]] * EPS[k[1], k[2]] for k in product(range(2), repeat=4)}


def _riemann_block(metric: MetricTable, inverse: InverseTable, domain):
    """R_abcd on the coordinate pairs a < b, c < d, and the metric's values, each as
    numerators over one denominator: ``(M, DM), (gv, Dg)``.

    ``metric`` is the point's table and ``inverse`` its inverse's values there
    over Di; ``M[i][j]`` is R_abcd for the i-th pair (a, b) and the j-th (c, d)
    of ``_PAIRS``, over DM = 4 Di Dg^2 (the module docstring's formula).
    """
    (nums, Dg), (iv, Di) = metric, inverse
    gv = [[nums[k][0] for k in row] for row in _AT]
    # ginv must be g's inverse at the point or the connection is not g's.  A float
    # g ginv - 1 may be 1e-9 of |g| |ginv|, their summed |values|; 10^9 r is compared,
    # since 1e-9 times an exact size could overflow a float
    unit = Dg * Di
    size = sum(abs(x[0]) for x in nums) * sum(abs(x) for row in iv for x in row)
    cols = list(zip(*iv))
    for a, row in enumerate(gv):
        for b, col in enumerate(cols):
            r = sum(map(mul, row, col)) - unit * (a == b)
            if r and domain.verdict(10 ** 9 * abs(r), size) is False:
                raise domain.error("ginv is not the metric's inverse at this point")
    # low[k][e] = 2 Gamma_{e,bc} = d_c g_eb + d_b g_ec - d_e g_bc and up[k][e] = g^ef low[k][f]
    # = 2 Gamma^e_bc for the k-th (b, c) of UPPER; d2[k][l] is the l-th second partial of g's
    # k-th component
    d1, d2 = [x[1:5] for x in nums], [x[5:] for x in nums]
    low = [[d1[_AT[e][b]][c] + d1[_AT[e][c]][b] - d1[k][e] for e in range(4)]
           for k, (b, c) in enumerate(UPPER)]
    up = [[sum(map(mul, row, lk)) for row in iv] for lk in low]
    m = 2 * Di * Dg
    M = [[m * (d2[ad][bc] + d2[bc][ad] - d2[bd][ac] - d2[ac][bd])
          + sum(map(mul, low[bc], up[ad])) - sum(map(mul, low[bd], up[ac]))
          for ad, bc, bd, ac in row] for row in _BLOCK]
    return (M, 2 * m * Dg), (gv, Dg)


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


@dataclass
class CurvatureReport:
    """Curvature invariants at one point, in the tetrad's spin frame: what the
    verdict reads and the frame's duality residual.  Each maximum is taken over
    numerators that share one denominator and divided once, so it equals the
    maximum of the divided values."""

    point: Point
    scalar: Number
    duality_max_abs: Number
    ricci_max_abs: Number
    sd_weyl_max_abs: Number
    asd_weyl_max_abs: Number


def spinors_at(p: Point, metric: MetricTable, inverse: InverseTable, frame: FrameTable,
               tol: float = 1e-9) -> CurvatureReport:
    """The scalar curvature and the Ricci, SD and ASD Weyl maxima at ``p``.

    ``metric``, ``inverse`` and ``frame`` are the metric's table at ``p``
    (``tetrads.MetricTable``), its inverse's and the null frame's values there
    (the frame keyed by (A, A')), each as numerators over one denominator.
    Every sum runs on numerators and each reported number is divided once.  The
    inverse and the frame's duality are checked here.
    """
    (M, dm), (gv, dg) = _riemann_block(metric, inverse, p.domain)
    (iv, di), (fv, df) = inverse, frame
    ric, scalar = _ricci_numerators(M, iv)
    d_ric, ds = di * dm, di * di * dm
    q = p.domain.divide

    # check the frame is dual to g: g(V_AA', V_BB') = eps_AB eps_A'B', over dg df^2, summed
    # over the nonzero components, first of V_AA' then of V_BB'
    den, zero = dg * df * df, p.domain.zero
    vectors = {k: [(a, x) for a, x in enumerate(u) if x] for k, u in fv.items()}
    gu = {k: [sum([c * x for a, x in u if (c := gv[a][b])], zero) for b in range(4)]
          for k, u in vectors.items()}
    worst = max(abs(sum([c * x for b, x in v if (c := row[b])], zero)
                    - EPS[(A, B)] * EPS[(Ap, Bp)] * den)
                for (A, Ap), row in gu.items() for (B, Bp), v in vectors.items())
    duality_max = q(worst, den)
    if p.domain.verdict(duality_max, tol) is False:
        raise p.domain.error("tetrad is not dual to the metric at this point" if p.domain.exact
                             else f"tetrad duality residual {duality_max:.3g} exceeds tol {tol:g} "
                             "at this point")

    # R(B, B') = B^ab R_abcd B'^cd on the SD bivectors X_ij and the ASD Y_ij (over dm df^4);
    # the verdict reads it on like bivectors only, the 3x3 blocks X X and Y Y
    def bivector(u0, u1, v0, v1):   # u0 ^ v1 - u1 ^ v0
        return [u0[a] * v1[b] - u0[b] * v1[a] - u1[a] * v0[b] + u1[b] * v0[a] for a, b in _PAIRS]
    sym = ((0, 0), (0, 1), (1, 1))
    bivectors = ([bivector(fv[(0, i)], fv[(1, i)], fv[(0, j)], fv[(1, j)]) for i, j in sym]
                 + [bivector(fv[(i, 0)], fv[(i, 1)], fv[(j, 0)], fv[(j, 1)]) for i, j in sym])
    Mb = [[sum(map(mul, row, b)) for row in M] for b in bivectors]

    # psi_{i1i2i3i4} = (R(B_i1i2, B_i3i4) - (scalar/6)(eps_i1i3 eps_i2i4 + eps_i1i4 eps_i2i3)) / 4
    # on like bivectors (X: the SD spinor, Y: the ASD one), over d_spin: its values on _SPINOR
    m_b, m_s, d_spin = 6 * di * di, df ** 4, 24 * ds * df ** 4
    sd, asd = ([m_b * sum(map(mul, bivectors[off + k], Mb[off + l])) - m_s * scalar * e
                for (k, l), e in _SPINOR.items()] for off in (0, 3))
    return CurvatureReport(p, q(scalar, ds), duality_max,
                           q(max(abs(x) for row in ric for x in row), d_ric),
                           q(max(map(abs, sd)), d_spin), q(max(map(abs, asd)), d_spin))


def asd_vacuum_verdict(inputs: Iterable[tuple[Point, MetricTable, InverseTable, FrameTable]],
                       tol: float = 1e-9) -> dict:
    """Aggregate Ricci-flatness and self-dual-Weyl vanishing over sample points.

    ``inputs`` gives each point with its metric table, its inverse and the frame
    (see :func:`spinors_at`); it is read one point at a time.
    """
    records = []
    ok = True
    for p, metric, inverse, frame in inputs:
        rep = spinors_at(p, metric, inverse, frame, tol)
        ricci_max, sd_max = rep.ricci_max_abs, rep.sd_weyl_max_abs
        point_ok = all(p.domain.verdict(x, tol) for x in (ricci_max, sd_max))
        ok = ok and point_ok
        records.append({"point": p, "ricci_max_abs": ricci_max, "sd_weyl_max_abs": sd_max,
                        "asd_weyl_max_abs": rep.asd_weyl_max_abs, "scalar_R": rep.scalar,
                        "pass": point_ok})
    return {"verdict": "pass" if ok else "fail", "records": records}
