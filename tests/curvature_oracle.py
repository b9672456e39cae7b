"""The value-by-value curvature formulas, kept as a test oracle for ``heavenly.curvature``.

This is how the package computed curvature before its integer sums: the
Christoffel symbols as order-1 jets (products of the inverse metric's jets
with the lowered symbols' jets), then Riemann from their values and
gradients, its lowering, Ricci, the scalar curvature, W_abcd, the frame
contractions and the spinor split, each a sum of ``Fraction`` (exact) or
``float`` values read off the jets one at a time.  The spinors come from the
full W projected onto the frame, and the reassembly residual compares W with
its spinors.  The package lowers Riemann straight from the metric's second
partials and the Christoffel values, and reads the spinors off its bivector
blocks; :func:`riemann_lowered` and :func:`blocks` are that route summed value
by value, the float reference for its integer sums, and equal to the full-W
route in exact mode.  It is slow and obviously correct, which is what an
oracle should be.  It takes the metric's tree jets and their Gauss-Jordan
inverse from ``tests/geometry_oracle.py``, the inputs the package's
curvature core is compared on there, and inverts the full order-2 jets.
Nothing in ``src/`` imports it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from heavenly.jetcore import Jet, chart_coords
from heavenly.tetrads import EPS

from geometry_oracle import invert_jet_matrix, metric_jets


def _jet_partial(j, axis):
    """The jet of d_axis f, one order lower, from the Taylor coefficients of f's jet."""
    coeffs = {}
    for beta, c in j.coeffs.items():
        if beta[axis]:
            gamma = beta[:axis] + (beta[axis] - 1,) + beta[axis + 1:]
            coeffs[gamma] = c * beta[axis]
    return Jet(j.center, j.order - 1, coeffs)


def christoffel_jets(gj, ginv, jet_order):
    """Gamma^a_{bc} jets of order ``jet_order`` from metric jets one order higher.

    The metric jets are symmetric, so Gamma^a_{bc} is built for b <= c and
    mirrored onto Gamma^a_{cb}.
    """
    n = len(gj)
    upper = [(b, c) for b in range(n) for c in range(b, n)]
    dg = [[None] * n for _ in range(n)]
    for a, b in upper:
        dg[a][b] = dg[b][a] = [_jet_partial(gj[a][b], c) for c in range(n)]
    ginv_low = [[ginv[a][b].truncate(jet_order) for b in range(n)] for a in range(n)]
    # 2 Gamma_{dbc} = d_c g_db + d_b g_dc - d_d g_bc, raised below by g^ad
    low = {(b, c): [dg[d][c][b] + dg[d][b][c] - dg[b][c][d] for d in range(n)]
           for b, c in upper}
    half = Jet.constant(Fraction(1, 2), gj[0][0].center, jet_order)
    out = [[[None] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b, c in upper:
            acc = None
            for d in range(n):
                contrib = ginv_low[a][d] * low[(b, c)][d]
                acc = contrib if acc is None else acc + contrib
            out[a][b][c] = out[a][c][b] = acc * half
    return out


def riemann(g, p, params):
    """(R^a_{bcd} values [a][b][c][d], metric values, inverse metric values,
    Christoffel values [a][b][c]) at p.

    R^a_{bcd} is summed for c <= d and R^a_{bdc} is its negation, as the
    package fills it, so even the sign of a float zero matches.
    """
    gj = metric_jets(g, p, 2, params)
    ginv = invert_jet_matrix(gj)
    gamma = christoffel_jets(gj, ginv, 1)
    n = len(gamma)
    # dG[a][b][c][k] = d_k Gamma^a_{bc}
    coords = chart_coords(p.chart)
    dG = [[[[gamma[a][b][c].d(k) for k in coords] for c in range(n)] for b in range(n)]
          for a in range(n)]
    gval = [[[gamma[a][b][c].value for c in range(n)] for b in range(n)] for a in range(n)]
    out = [[[[None] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for a, b, c in product(range(n), repeat=3):
        for d in range(c, n):
            s = dG[a][d][b][c] - dG[a][c][b][d]
            for e in range(n):
                s += gval[a][c][e] * gval[e][d][b] - gval[a][d][e] * gval[e][c][b]
            out[a][b][c][d] = s
            if d != c:
                out[a][b][d][c] = -s
    return out, _values(gj), _values(ginv), gval


def riemann_lowered(gj, ginv_values):
    """R_abcd for every a, b, c, d by the package's formula, value by value:
    (g_ad,bc + g_bc,ad - g_bd,ac - g_ac,bd)/2 + Gamma_{e,cb} Gamma^e_da
    - Gamma_{e,db} Gamma^e_ca, with Gamma_{e,bc} = (g_eb,c + g_ec,b - g_bc,e)/2
    and Gamma^e_bc = g^ef Gamma_{f,bc}, each partial read off the metric's jets."""
    n = len(gj)
    coords = chart_coords(gj[0][0].center.chart)
    half = Fraction(1, 2)

    def dg(a, b, *k):
        return gj[a][b].d(*(coords[i] for i in k))
    low = {(e, b, c): half * (dg(e, b, c) + dg(e, c, b) - dg(b, c, e))
           for e, b, c in product(range(n), repeat=3)}
    up = {(e, b, c): sum(ginv_values[e][f] * low[(f, b, c)] for f in range(n))
          for e, b, c in product(range(n), repeat=3)}
    return {(a, b, c, d): half * (dg(a, d, b, c) + dg(b, c, a, d) - dg(b, d, a, c) - dg(a, c, b, d))
            + sum(low[(e, c, b)] * up[(e, d, a)] - low[(e, d, b)] * up[(e, c, a)] for e in range(n))
            for a, b, c, d in product(range(n), repeat=4)}


def ricci_lowered(rl, ginv_values):
    """R_bd = g^ae R_ebad and the scalar g^bd R_bd from the lowered Riemann tensor."""
    n = len(ginv_values)
    ric = [[sum(ginv_values[a][e] * rl[(e, b, a, d)] for a in range(n) for e in range(n))
            for d in range(n)] for b in range(n)]
    return ric, sum(ginv_values[b][d] * ric[b][d] for b in range(n) for d in range(n))


def _values(m):
    return [[x.value for x in row] for row in m]


def ricci(rm, ginv_values):
    n = len(rm)
    ric = [[sum(rm[a][b][a][d] for a in range(n)) for d in range(n)] for b in range(n)]
    scalar = sum(ginv_values[b][d] * ric[b][d] for b in range(n) for d in range(n))
    return ric, scalar


def lower(gv, rm):
    n = len(rm)
    return {(a, b, c, d): sum(gv[a][e] * rm[e][b][c][d] for e in range(n))
            for a, b, c, d in product(range(n), repeat=4)}


def weyl(gv, rl, ric, scalar):
    half, sixth = Fraction(1, 2), Fraction(1, 6)
    return {(a, b, c, d): (rl[(a, b, c, d)]
                           - half * (gv[a][c] * ric[b][d] - gv[a][d] * ric[b][c]
                                     - gv[b][c] * ric[a][d] + gv[b][d] * ric[a][c])
                           + sixth * scalar * (gv[a][c] * gv[b][d] - gv[a][d] * gv[b][c]))
            for a, b, c, d in product(range(len(gv)), repeat=4)}


def frame_components(tensor, frame):
    """T(u_k1, ..., u_kr) for every tuple of frame keys, one index at a time."""
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


SYM = ((0, 0), (0, 1), (1, 1))
SLOT = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 2}


def trace_free_ricci(ric, scalar, fv):
    """Phi_{ABA'B'} = -(R(V_AA', V_BB') - (R/4) eps_AB eps_A'B') / 2."""
    n = len(ric)
    rf = frame_components({(a, b): ric[a][b] for a in range(n) for b in range(n)}, fv)
    return {(A, B, Ap, Bp): -(rf[((A, Ap), (B, Bp))] - scalar * EPS[(A, B)] * EPS[(Ap, Bp)] / 4) / 2
            for A in range(2) for B in range(2) for Ap in range(2) for Bp in range(2)}


def blocks(rl, fv, ric, scalar):
    """``weyl_asd``, ``weyl_sd``, ``phi``, ``reassembly_max_abs``, ``ricci`` and
    ``scalar`` from Riemann's blocks and the Ricci tensor it gives.

    R(B, B') sums B^ab R_abcd B'^cd over a < b, c < d, on the SD bivectors
    X_ij = V_0i ^ V_1j - V_1i ^ V_0j (primed i, j) and the ASD Y_ij (the
    unprimed index); psi_i1i2i3i4 = (R(B_i1i2, B_i3i4) - (R/6)(eps_i1i3
    eps_i2i4 + eps_i1i4 eps_i2i3)) / 4 on like bivectors.  The residual is the
    largest of each spinor's asymmetry in i2, i3, the asymmetry of R(B, B')
    and |R(X_ij, Y_kl) - 4 Phi_klij|.
    """
    phi = trace_free_ricci(ric, scalar, fv)
    n = len(next(iter(fv.values())))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]

    def wedge(u, v):
        return {(a, b): u[a] * v[b] - u[b] * v[a] for a, b in pairs}

    bivectors = []
    for vector in (lambda A, i: fv[(A, i)], lambda A, i: fv[(i, A)]):   # X, then Y
        for i, j in SYM:
            left, right = wedge(vector(0, i), vector(1, j)), wedge(vector(1, i), vector(0, j))
            bivectors.append({k: left[k] - right[k] for k in pairs})
    rb = [[sum(u[(a, b)] * rl[(a, b, c, d)] * v[(c, d)] for a, b in pairs for c, d in pairs)
           for v in bivectors] for u in bivectors]
    spinors = []
    for off in (0, 3):
        spinors.append({(i1, i2, i3, i4): Fraction(1, 4) * (
                            rb[off + SLOT[(i1, i2)]][off + SLOT[(i3, i4)]]
                            - Fraction(1, 6) * scalar * (EPS[(i1, i3)] * EPS[(i2, i4)]
                                                         + EPS[(i1, i4)] * EPS[(i2, i3)]))
                        for i1 in range(2) for i2 in range(2) for i3 in range(2) for i4 in range(2)})
    sd, asd = spinors
    errors = [abs(s[(i1, i2, i3, i4)] - s[(i1, i3, i2, i4)]) for s in spinors
              for (i1, i2, i3, i4) in s]
    errors += [abs(rb[k][l] - rb[l][k]) for k in range(6) for l in range(k)]
    errors += [abs(rb[k][3 + l] - 4 * phi[(*SYM[l], *SYM[k])]) for k in range(3) for l in range(3)]
    return {"weyl_asd": asd, "weyl_sd": sd, "phi": phi, "reassembly_max_abs": max(errors),
            "ricci": ric, "scalar": scalar}


def curvature(g, t, p, params):
    """Every quantity of the curvature pipeline at p, by value-by-value sums.

    Returns a dict with ``christoffel``, ``riemann``, ``ricci``, ``scalar``,
    ``lowered``, ``W``, the :class:`heavenly.curvature.CurvatureReport`
    fields ``weyl_asd``, ``weyl_sd``, ``phi``, ``reassembly_max_abs`` and
    ``duality_max_abs`` of the full-W route, and ``blocks``, the :func:`blocks`
    route's spinors, Phi, residual, Ricci and scalar on :func:`riemann_lowered`,
    the package's route.
    """
    rm, gv, ginv, gamma = riemann(g, p, params)
    block = riemann_lowered(metric_jets(g, p, 2, params), ginv)
    ric, scalar = ricci(rm, ginv)
    rl = lower(gv, rm)
    W = weyl(gv, rl, ric, scalar)
    fv = t.frame_values(p, params)
    n = len(gv)

    gf = frame_components({(a, b): gv[a][b] for a in range(n) for b in range(n)}, fv)
    duality_max = max(abs(got - EPS[(A, B)] * EPS[(Ap, Bp)])
                      for ((A, Ap), (B, Bp)), got in gf.items())

    w_frame = frame_components(W, fv)
    keys = list(product(range(2), repeat=4))

    def spinor(frame_key):
        """Per i, (1/4) eps_AB eps_CD W(frame_key(u, i)) summed over u = (A, B, C, D)."""
        return {i: Fraction(1, 4) * sum(EPS[u[:2]] * EPS[u[2:]] * w_frame[frame_key(u, i)]
                                        for u in keys) for i in keys}
    sd = spinor(lambda u, i: tuple(zip(u, i)))    # eps on the unprimed indices: V_{A i1}, ...
    asd = spinor(lambda u, i: tuple(zip(i, u)))   # eps on the primed indices: V_{i1 A}, ...

    phi = trace_free_ricci(ric, scalar, fv)

    re_err = []
    for ((A, Ap), (B, Bp), (C, Cp), (D, Dp)), val in w_frame.items():
        rebuilt = (EPS[(Ap, Bp)] * EPS[(Cp, Dp)] * asd[(A, B, C, D)]
                   + EPS[(A, B)] * EPS[(C, D)] * sd[(Ap, Bp, Cp, Dp)])
        re_err.append(abs(val - rebuilt))
    return {"christoffel": gamma, "riemann": rm, "ricci": ric, "scalar": scalar, "lowered": rl,
            "W": W, "weyl_asd": asd, "weyl_sd": sd, "phi": phi,
            "reassembly_max_abs": max(re_err), "duality_max_abs": duality_max,
            "blocks": blocks(block, fv, *ricci_lowered(block, ginv))}
