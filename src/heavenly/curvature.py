"""Metric to curvature pipeline with spinor decomposition.

Curvature is computed from metric components by the coordinate method.  A
point's inputs are the metric's table (``tetrads.MetricTable``: each g_ab,
a <= b, with its first and second partials as numerators over one Dg), its
inverse's values and the null frame's values (:func:`spinors_at`), read off
one jet of the primary field (``tetrads.FieldGeometry``) or, as the test
reference, off the symbolic trees (``tests/geometry_oracle.py``).  The core
checks the inverse (g ginv = 1) and the frame's duality at every point.
Sums run on integer numerators over one denominator per quantity (floats
over small integers in the float domain), each reported number divided once,
so an exact vanishing component is exactly zero.  Up front the core computes
only what the verdict reads, the scalar and the Ricci, SD and ASD Weyl
maxima; Phi, the reassembly residual and the divided tables are computed on
first read (:class:`CurvatureReport`).

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

from dataclasses import dataclass, field
from itertools import product
from operator import mul
from typing import Callable, Iterable, Mapping, Sequence

from .jetcore import Number, Point, common_denominator
from .tetrads import EPS, UPPER, MetricTable


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
# so the 16 components take the 9 values of _SPINOR, the i-th key's at _SPINOR_AT[i]
_KEYS, _SLOT = list(product(range(2), repeat=4)), {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 2}
_SPINOR = {(_SLOT[k[:2]], _SLOT[k[2:]]): EPS[k[0], k[2]] * EPS[k[1], k[3]]
           + EPS[k[0], k[3]] * EPS[k[1], k[2]] for k in _KEYS}
_SPINOR_AT = [list(_SPINOR).index((_SLOT[k[:2]], _SLOT[k[2:]])) for k in _KEYS]


def _riemann_block(metric: MetricTable, ginv: list[list[Number]], domain):
    """R_abcd on the coordinate pairs a < b, c < d, and the metric's and the
    inverse's values, each as numerators over one denominator:
    ``(M, DM), (gv, Dg), (iv, Di)``.

    ``metric`` is the point's table and ``ginv`` its inverse's values there;
    ``M[i][j]`` is R_abcd for the i-th pair (a, b) and the j-th (c, d) of
    ``_PAIRS``, over DM = 4 Di Dg^2 (the module docstring's formula).
    """
    nums, Dg = metric
    gv = [[nums[k][0] for k in row] for row in _AT]
    flat, Di = common_denominator([x for row in ginv for x in row])
    iv = [flat[:4], flat[4:8], flat[8:12], flat[12:]]
    # ginv must be g's inverse at the point or the connection is not g's.  A float
    # g ginv - 1 may be 1e-9 of |g| |ginv|, their summed |values|; 10^9 r is compared,
    # since 1e-9 times an exact size could overflow a float
    unit = Dg * Di
    size, cols = sum(abs(x[0]) for x in nums) * sum(map(abs, flat)), list(zip(*iv))
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


# the read-outs two reports compare, and those of them computed on first read
_TABLES = ("ricci", "weyl_asd", "weyl_sd", "phi", "reassembly_max_abs")
_READ_OUTS = ("point", "scalar", "duality_max_abs", "ricci_max_abs", "sd_weyl_max_abs",
              "asd_weyl_max_abs", *_TABLES)


@dataclass(eq=False)
class CurvatureReport:
    """Curvature invariants at one point, in the tetrad's spin frame.

    The fields are what the verdict reads; each maximum is taken over
    numerators that share one denominator and divided once, so it equals the
    maximum of the divided values.  The ``_TABLES`` (``ricci``, ``weyl_asd``,
    ``weyl_sd``, ``phi`` and ``reassembly_max_abs``) are computed from the
    kept numerators on the first read of any of them, and kept."""

    point: Point
    scalar: Number
    duality_max_abs: Number
    ricci_max_abs: Number
    sd_weyl_max_abs: Number
    asd_weyl_max_abs: Number
    _tables: Callable[[], tuple] = field(repr=False)

    def __getattr__(self, name):
        if name not in _TABLES:
            raise AttributeError(name)
        self.__dict__.update(zip(_TABLES, self._tables()))
        return self.__dict__[name]

    def __eq__(self, other):   # equal read-outs
        return isinstance(other, CurvatureReport) and all(
            getattr(self, k) == getattr(other, k) for k in _READ_OUTS)


def spinors_at(p: Point, metric: MetricTable, ginv: list[list[Number]],
               frame: Mapping[tuple[int, int], Sequence[Number]],
               tol: float = 1e-9) -> CurvatureReport:
    """Split the Riemann tensor's bivector blocks into the two Weyl spinors and Phi.

    ``metric`` is the metric's table at ``p`` (``tetrads.MetricTable``),
    ``ginv`` the values of its inverse there and ``frame`` the null frame's
    values, keyed by (A, A').  Every sum runs on numerators, each over its own
    denominator, and each reported number is divided once.  The inverse and
    the frame's duality are checked here; what the verdict does not read is
    computed on first read (see :class:`CurvatureReport`).
    """
    (M, dm), (gv, dg), (iv, di) = _riemann_block(metric, ginv, p.domain)
    ric, scalar = _ricci_numerators(M, iv)
    d_ric, ds = di * dm, di * di * dm
    flat, df = common_denominator([x for u in frame.values() for x in u])   # the frame over df
    fv = {k: tuple(flat[4 * i:4 * i + 4]) for i, k in enumerate(frame)}
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

    def tables():
        rb = [[sum(map(mul, u, v)) for v in Mb] for u in bivectors]
        sd_num, asd_num = ({k: s[i] for k, i in zip(_KEYS, _SPINOR_AT)} for s in (sd, asd))
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
              for s in (sd_num, asd_num) for i1, i2, i3, i4 in _KEYS),
            *(4 * m_b * abs(rb[k][l] - rb[l][k]) for k in range(6) for l in range(k)),
            *(abs(4 * m_b * rb[k][3 + l] - 12 * df * df * phi_num[(*sym[l], *sym[k])])
              for k in range(3) for l in range(3)))
        return ([[q(x, d_ric) for x in row] for row in ric],
                {k: q(x, d_spin) for k, x in asd_num.items()},
                {k: q(x, d_spin) for k, x in sd_num.items()},
                {k: q(x, d_phi) for k, x in phi_num.items()}, q(re_err, d_spin))

    return CurvatureReport(p, q(scalar, ds), duality_max,
                           q(max(abs(x) for row in ric for x in row), d_ric),
                           q(max(map(abs, sd)), d_spin), q(max(map(abs, asd)), d_spin), tables)


def asd_vacuum_verdict(inputs: Iterable[tuple[Point, MetricTable, list[list[Number]], Mapping]],
                       tol: float = 1e-9) -> dict:
    """Aggregate Ricci-flatness and self-dual-Weyl vanishing over sample points.

    ``inputs`` gives each point with its metric table, its inverse's values
    and the frame values (see :func:`spinors_at`); it is read one point at a
    time.
    """
    records = []
    ok = True
    for p, metric, ginv, frame in inputs:
        rep = spinors_at(p, metric, ginv, frame, tol)
        ricci_max, sd_max = rep.ricci_max_abs, rep.sd_weyl_max_abs
        point_ok = all(p.domain.verdict(x, tol) for x in (ricci_max, sd_max))
        ok = ok and point_ok
        records.append({"point": p, "ricci_max_abs": ricci_max, "sd_weyl_max_abs": sd_max,
                        "asd_weyl_max_abs": rep.asd_weyl_max_abs, "scalar_R": rep.scalar,
                        "pass": point_ok})
    return {"verdict": "pass" if ok else "fail", "records": records}
