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

The sums are compiled once per sparsity (``tetrads.FieldGeometry``'s; dense
without one) into two straight-line kernels, the block M (:func:`_riemann_block`)
and the rest, which reads M densely: the test oracle's loops' terms in order and
association, each sum from the domain's zero, less those with a factor the
sparsity makes zero.  A float table with an inf, a nan or values whose products
could overflow takes the dense kernels, with the loops' skips of a product by a
zero value.  Writing and compiling takes 3-6 ms; a point then takes 410 products
on the second form, 543 on the first and 202 on the plane wave (loops: 1333).

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

import re
from dataclasses import dataclass
from itertools import product
from typing import Iterable

from .jetcore import Number, Point, kept
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


def _sum(terms, start="zero", code=None, name=None):
    """``start`` plus the terms but None as code, None if none; with ``code``, set to ``name``."""
    terms = [t for t in terms if t]
    if terms and code is not None:
        code.append(f"{name} = {_sum(terms, start)}")
        return name
    return " + ".join([start, *terms] if start else terms) if terms else None


def _times(x, y, guard=None, sign=""):
    """sign x * y as code, None if a factor is; 0 where ``guard`` is 0, as the loop skips."""
    if x and y:
        return sign + (f"({x}*{y} if {guard} else zero)" if guard else f"{x}*{y}")


def _function(head: str, tables, code: list, *out) -> str:
    """The function ``head`` that unpacks its ``tables``, runs ``code`` and returns ``out``,
    less each line that sets a name no later line and no output reads."""
    ret = ", ".join(x if isinstance(x, str) else f"[{', '.join(x)}]" for x in out)
    live, lines = set(re.findall(r"\w+", ret)), []
    for line in reversed(code):
        name, value = line.split(" = ", 1)
        if name in live or not name.isidentifier():   # an unpacking line stays
            lines.append(line)
            live.update(re.findall(r"\w+", value))
    code = [", ".join(f"({', '.join(f'{x}{r}{c}' for c in range(n))})" for r in range(n))
            + " = " + table for x, n, table in tables] + lines[::-1]
    return f"def {head}:\n " + "\n ".join(code) + "\n return " + ret + "\n"


def _source(sparsity: tuple[str, str, str], keys: tuple, guarded: bool) -> str:
    """``block(nums, iv, m, unit, zero)``: g ginv - unit, M and g's values (:func:`_riemann_block`),
    and ``spinors(M, iv, gv, fv, den, m_b, m_s, zero)``: the numerators of Ricci, the scalar, the
    duality residuals and the SD and ASD spinors (:func:`spinors_at`) for a frame with ``keys``;
    ``guarded`` keeps the loops' skips of a product by a zero value."""
    def n(k, c, sign=""):   # nums[k][c]: c = 0 the value, 1 + c d_c, 5 + l the l-th d2
        return sign + f"n{k}_{c}" if rows[k] == "v" or c == 0 and rows[k] == "c" else None
    rows, inverse, frame = sparsity
    i = [[f"i{a}{b}" if inverse[4 * a + b] == "1" else None for b in range(4)] for a in range(4)]
    g = [[f"g{a}{b}" if rows[_AT[a][b]] != "0" else None for b in range(4)] for a in range(4)]
    f = {k: [f"f{v}{a}" if frame[4 * v + a] == "1" else None for a in range(4)]
         for v, k in enumerate(keys)}
    code = [f"n{k}_0 = nums[{k}][0]" if rows[k] != "v"
            else f"{', '.join(f'n{k}_{c}' for c in range(15))} = nums[{k}]" for k in range(10)]
    rs = [(_sum(_times(n(k, 0), x) for k, x in zip(row, col)) or "zero") + " - unit" * (a == b)
          for a, row in enumerate(_AT) for b, col in enumerate(zip(*i))]
    # low[k][e] = 2 Gamma_{e,bc} and up[k][e] = 2 Gamma^e_bc for the k-th (b, c) of UPPER
    low = [[_sum([n(_AT[e][b], 1 + c), n(_AT[e][c], 1 + b), n(k, 1 + e, "-")], "", code,
                 f"l{k}_{e}") for e in range(4)] for k, (b, c) in enumerate(UPPER)]
    up = [[_sum(map(_times, row, lk), "zero", code, f"u{k}_{e}") for e, row in enumerate(i)]
          for k, lk in enumerate(low)]
    M = [[(f"m * ({two}) + " if (two := _sum([n(ad, 5 + bc), n(bc, 5 + ad), n(bd, 5 + ac, "-"),
                                              n(ac, 5 + bd, "-")], "")) else "")
          + "({}) - ({})".format(*(_sum(map(_times, low[x], up[y])) or "zero"
                                   for x, y in ((bc, ad), (bd, ac))))
          for ad, bc, bd, ac in row] for row in _BLOCK]
    text = _function("block(nums, iv, m, unit, zero)", [("i", 4, "iv")], code, rs,
                     [f"[{', '.join(row)}]" for row in M],
                     [f"[{', '.join(f'n{k}_0' for k in row)}]" for row in _AT])
    # R_bd = g^ae R_ebad over (a, e) in order, R_ebad read on the pairs of (e, b) and (a, d)
    code = []
    r = [[_sum((_times(i[a][e], f"m{s[0]}{t[0]}", guarded and i[a][e], "" if s[1] == t[1] else "-")
                for a in range(4) for e in range(4)
                if (s := _SIGNED[e][b]) and (t := _SIGNED[a][d])), "zero", code, f"r{b}{d}")
          for d in range(4)] for b in range(4)]
    code += ["scalar = " + (_sum(map(_times, sum(r, []), sum(i, []),
                                     sum(i, []) if guarded else [None] * 16)) or "zero"),
             "t = m_s * scalar"]
    # g(V_k, .) on each coordinate, then on each V_l, less eps eps den
    w = {k: [_sum((_times(c, x, guarded and f"{x} and {c}") for c, x in zip(col, f[k])),
                  "zero", code, f"w{v}{b}") for b, col in enumerate(zip(*g))]
         for v, k in enumerate(keys)}
    dual = [(_sum(_times(c, x, guarded and f"{x} and {c}") for c, x in zip(w[k], f[l])) or "zero")
            + (f" - {e} * den" if (e := EPS[k[0], l[0]] * EPS[k[1], l[1]]) else "")
            for k in keys for l in keys]
    # the bivectors X_ij = V_0i ^ V_1j - V_1i ^ V_0j (SD) and Y_ij (ASD, keys reversed), M on
    # them, and the spinors on like ones (t * 0 only where t may be inf or nan)
    bv = [[_sum([_times(u0[a], v1[b]), _times(u0[b], v1[a], sign="-"),
                 _times(u1[a], v0[b], sign="-"), _times(u1[b], v0[a])], "", code, f"b{v}_{c}")
           for c, (a, b) in enumerate(_PAIRS)]
          for v, (u0, u1, v0, v1) in enumerate(
              [f[(A, y)[::s]] for A, y in ((0, p), (1, p), (0, q), (1, q))]
              for s in (1, -1) for p, q in ((0, 0), (0, 1), (1, 1)))]
    mb = [[_sum((_times(f"m{c}{j}", x) for j, x in enumerate(b)), "zero", code, f"c{v}_{c}")
           for c in range(6)] for v, b in enumerate(bv)]
    spinors = [["m_b * ({})".format(_sum(map(_times, bv[o + k], mb[o + l])) or "zero")
                + (f" - t * {e}" if e or guarded else "") for (k, l), e in _SPINOR.items()]
               for o in (0, 3)]
    return text + _function("spinors(M, iv, gv, fv, den, m_b, m_s, zero)", [
        ("m", 6, "M"), ("i", 4, "iv"), ("g", 4, "gv"), ("f", 4, "fv.values()")], code,
        [x or "zero" for row in r for x in row], "scalar", dual, *spinors)


_DENSE = ("v" * 10, "1" * 16, "1" * 16)   # the sparsity of a table without one


@kept()
def _kernels(*key):
    """(sparsity, frame keys, guarded) -> the block and spinor kernels, compiled on first use."""
    scope: dict = {}
    exec(compile(_source(*key), "<curvature kernels>", "exec"), scope)
    return scope["block"], scope["spinors"]


def _riemann_block(metric: MetricTable, inverse: InverseTable, domain, block):
    """R_abcd on the coordinate pairs a < b, c < d, and the metric's values, each as
    numerators over one denominator: ``(M, DM), (gv, Dg)``, from the point's table and its
    inverse's values over Di by the compiled ``block`` (:func:`_kernels`).  ``M[i][j]`` is
    R_abcd for the i-th pair (a, b) and the j-th (c, d) of ``_PAIRS``, over DM = 4 Di Dg^2."""
    (nums, Dg), (iv, Di), m = metric, inverse, 2 * inverse[1] * metric[1]
    rs, M, gv = block(nums, iv, m, Dg * Di, domain.zero)
    # ginv must be g's inverse at the point or the connection is not g's.  A float
    # g ginv - 1 may be 1e-9 of |g| |ginv|, their summed |values|; 10^9 r is compared,
    # since 1e-9 times an exact size could overflow a float
    if any(rs):
        size = sum(abs(x[0]) for x in nums) * sum(abs(x) for row in iv for x in row)
        if any(r and domain.verdict(10 ** 9 * abs(r), size) is False for r in rs):
            raise domain.error("ginv is not the metric's inverse at this point")
    return (M, 2 * m * Dg), (gv, Dg)


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
               tol: float = 1e-9, sparsity: tuple | None = None) -> CurvatureReport:
    """The scalar curvature and the Ricci, SD and ASD Weyl maxima at ``p``.

    ``metric``, ``inverse`` and ``frame`` are the metric's table at ``p``
    (``tetrads.MetricTable``), its inverse's and the null frame's values there
    (the frame keyed by (A, A')), each as numerators over one denominator, in
    ``sparsity`` (None: dense).  Every sum runs on numerators and each reported
    number is divided once.  The inverse and the frame's duality are checked here.
    """
    domain, (iv, di), (fv, df) = p.domain, inverse, frame
    # a float inf, nan or |value| whose products could overflow (see the module docstring)
    wild = not domain.exact and not sum(sum(map(abs, row)) for table in (
        metric[0], iv, fv.values()) for row in table) < 1e40
    block, spinors = _kernels(_DENSE if wild or sparsity is None else sparsity, tuple(fv), wild)
    (M, dm), (gv, dg) = _riemann_block(metric, inverse, domain, block)
    d_ric, ds, den = di * dm, di * di * dm, dg * df * df
    ric, scalar, dual, sd, asd = spinors(M, iv, gv, fv, den, 6 * di * di, df ** 4, domain.zero)
    q = domain.divide

    # the frame is dual to g: g(V_AA', V_BB') = eps_AB eps_A'B', over dg df^2
    duality_max = q(max(map(abs, dual)), den)
    if domain.verdict(duality_max, tol) is False:
        raise domain.error("tetrad is not dual to the metric at this point" if domain.exact
                           else f"tetrad duality residual {duality_max:.3g} exceeds tol {tol:g} "
                           "at this point")
    d_spin = 24 * ds * df ** 4
    return CurvatureReport(p, q(scalar, ds), duality_max, q(max(map(abs, ric)), d_ric),
                           q(max(map(abs, sd)), d_spin), q(max(map(abs, asd)), d_spin))


def asd_vacuum_verdict(inputs: Iterable[tuple[Point, MetricTable, InverseTable, FrameTable]],
                       tol: float = 1e-9, sparsity: tuple | None = None) -> dict:
    """Aggregate Ricci-flatness and self-dual-Weyl vanishing over sample points.

    ``inputs`` gives each point with its metric table, its inverse and the frame
    (see :func:`spinors_at`, which reads them in ``sparsity``); it is read one
    point at a time.
    """
    records = []
    ok = True
    for p, metric, inverse, frame in inputs:
        rep = spinors_at(p, metric, inverse, frame, tol, sparsity)
        ricci_max, sd_max = rep.ricci_max_abs, rep.sd_weyl_max_abs
        point_ok = all(p.domain.verdict(x, tol) for x in (ricci_max, sd_max))
        ok = ok and point_ok
        records.append({"point": p, "ricci_max_abs": ricci_max, "sd_weyl_max_abs": sd_max,
                        "asd_weyl_max_abs": rep.asd_weyl_max_abs, "scalar_R": rep.scalar,
                        "pass": point_ok})
    return {"verdict": "pass" if ok else "fail", "records": records}
