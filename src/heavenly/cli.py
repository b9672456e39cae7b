"""Command-line front end: verification subcommands with JSON reports.

Exit codes: 0 = all checks passed, 1 = a verdict failed, 2 = configuration,
parse or evaluation-domain errors.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from . import curvature, hierarchy, recursion, reports, symplectic, twistor
from .catalog import load_catalog
from .jetcore import (
    EvaluationError,
    ParseError,
    Point,
    ScalarField,
    parse_expression,
)
from .polynomials import Poly
from .sampling import float_points, sample_points
from .tetrads import (
    SECOND,
    SecondPotential,
    first_heavenly_residual,
    metric_from_tetrad,
    second_heavenly_residual,
)


class ConfigError(ValueError):
    pass


def _zero(args):
    """The mode's zero: maxima start here, so a float run whose residuals all vanish stays float."""
    return 0.0 if args.mode == "float" else Fraction(0)


def _abs_max(values, zero) -> object:
    return max((abs(v) for v in values), default=zero)


def _emit(report: dict, out: str | None) -> int:
    text = reports.dumps(report)
    sys.stdout.write(text)
    if out:
        Path(out).write_text(text)
    return 0 if report["verdict"] == "pass" else 1


def _entry(args):
    catalog = load_catalog()
    name = args.background
    if name not in catalog:
        raise ConfigError(f"unknown background {name!r}; catalog has {sorted(catalog)}")
    return catalog[name]


def _sigma(args, default=None):
    """--sigma as an exact rational; bad text or a zero denominator is a config error."""
    text = getattr(args, "sigma", None)
    if text is None:
        return default
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"--sigma must be a rational p/q with q != 0, got {text!r}") from exc


def _params(entry, args) -> dict:
    params = dict(entry.params)
    sigma = _sigma(args)
    if sigma is not None:
        params["sigma"] = sigma
    if getattr(args, "mode", "exact") == "float":
        params = {k: float(v) for k, v in params.items()}
    return params


def _sample(chart: str, args, exclusions=()) -> list[Point]:
    pts = sample_points(chart, args.seed, args.points, exclusions)
    if getattr(args, "mode", "exact") == "float":
        pts = float_points(pts)
    return pts


# ---------------------------------------------------------------------------
# subcommands

def cmd_verify_solution(args) -> int:
    entry = _entry(args)
    params = _params(entry, args)
    config = {"background": entry.name, "params": params, "seed": args.seed,
              "points": args.points, "mode": args.mode}
    if entry.kind == "metric":
        profile = args.f or entry.expression
        config["f"] = profile
        tetrad = entry.tetrad(profile)
        metric = metric_from_tetrad(tetrad)
        pts = _sample(entry.chart, args)
        result = curvature.verify_asd_vacuum(metric, tetrad, pts, params, args.tol)
        records = [{k: v for k, v in r.items()} for r in result["records"]]
        worst = _abs_max((max(r["ricci_max_abs"], r["sd_weyl_max_abs"]) for r in records),
                         _zero(args))
        rep = reports.build_report("verify-solution", config, records, worst, args.mode, args.tol)
        return _emit(rep, args.out)
    pts = _sample(entry.chart, args, entry.exclusions)
    records = []
    residuals = []
    if entry.kind == "potential-second":
        theta = entry.second_potential()
        for p in pts:
            r = second_heavenly_residual(theta, p, params)
            residuals.append(r)
            records.append({"point": p, "residual": r})
    else:
        omega = entry.first_potential()
        for p in pts:
            r = first_heavenly_residual(omega, p, params)
            residuals.append(r)
            records.append({"point": p, "residual": r})
    rep = reports.build_report("verify-solution", config, records,
                               _abs_max(residuals, _zero(args)), args.mode, args.tol)
    return _emit(rep, args.out)


def cmd_curvature_report(args) -> int:
    entry = _entry(args)
    params = _params(entry, args)
    profile = args.f or (entry.expression if entry.kind == "metric" else None)
    tetrad = entry.tetrad(profile)
    metric = metric_from_tetrad(tetrad) if entry.kind != "metric" else entry.metric(profile)
    pts = _sample(entry.chart, args, entry.exclusions)
    config = {"background": entry.name, "params": params, "seed": args.seed,
              "points": args.points, "mode": args.mode}
    if profile:
        config["f"] = profile
    records = []
    worst = _zero(args)
    for p in pts:
        rep = curvature.weyl_spinors(metric, tetrad, p, params, args.tol)
        records.append({
            "point": p,
            "ricci_max_abs": rep.ricci_max_abs,
            "sd_weyl_max_abs": rep.sd_weyl_max_abs,
            "asd_weyl_max_abs": rep.asd_weyl_max_abs,
            "scalar_R": rep.scalar,
        })
        worst = max(worst, rep.ricci_max_abs, rep.sd_weyl_max_abs)
    rep = reports.build_report("curvature-report", config, records, worst, args.mode, args.tol)
    return _emit(rep, args.out)


def cmd_recursion_chain(args) -> int:
    if args.background not in ("flat", "st"):
        raise ConfigError("recursion-chain backgrounds: flat | st")
    first = 1 if args.background == "st" else 0
    if args.n < first:
        raise ConfigError(f"--n must be at least {first} on {args.background}, got {args.n}")
    sigma = _sigma(args, Fraction(1))
    exclusions = ["q_nonzero", "w_nonzero"]
    if args.mode == "float":
        exclusions.append("q_unit_scale")  # absolute tolerances assume unit scale
    pts = sample_points("second", args.seed, args.points, exclusions)
    if args.mode == "float":
        pts = float_points(pts)
        sigma = float(sigma)
    config = {"background": args.background, "n": args.n, "sigma": sigma,
              "seed": args.seed, "points": args.points, "mode": args.mode}
    records = []
    worst = zero = _zero(args)
    flat_theta = SecondPotential(ScalarField.constant(0, SECOND))
    if args.background == "flat":
        for n in range(0, args.n + 1):
            phi = recursion.flat_phi(n)
            wave = _abs_max((recursion.wave_residual(flat_theta, phi, p) for p in pts), zero)
            rec = {"n": n, "expression": str(phi), "wave_max_abs": wave}
            if n > 0:
                prev = recursion.flat_phi(n - 1)
                link = []
                for p in pts:
                    link.append(phi.diff("y").value(p) - prev.diff("w").value(p))
                    link.append(phi.diff("x").value(p) + prev.diff("z").value(p))
                rec["link_max_abs"] = _abs_max(link, zero)
                worst = max(worst, rec["link_max_abs"])
            worst = max(worst, wave)
            records.append(rec)
    else:
        params = {"sigma": sigma}
        theta = recursion.st_potential()
        for n in range(1, args.n + 1):
            psi = recursion.st_psi(n)
            wave = _abs_max((recursion.wave_residual(theta, psi, p, params) for p in pts), zero)
            rec = {"n": n, "expression": str(psi), "wave_max_abs": wave}
            if n < args.n:
                step = recursion.recursion_step_st(n, sigma, pts)
                rec["step_max_abs"] = step["max_abs_residual"]
                worst = max(worst, step["max_abs_residual"])
            worst = max(worst, wave)
            records.append(rec)
    rep = reports.build_report("recursion-chain", config, records, worst, args.mode, args.tol)
    return _emit(rep, args.out)


def cmd_twistor_series(args) -> int:
    if args.background not in ("flat", "st"):
        raise ConfigError("twistor-series backgrounds: flat | st")
    sigma = _sigma(args, Fraction(1))
    exclusions = ["q_nonzero", "w_nonzero", "z_nonzero"]
    if args.mode == "float":
        exclusions.append("q_unit_scale")
    pts = sample_points("second", args.seed, args.points, exclusions)
    if args.mode == "float":
        pts = float_points(pts)
        sigma = float(sigma)
    config = {"background": args.background, "order": args.order, "sigma": sigma,
              "seed": args.seed, "points": args.points, "mode": args.mode}
    if args.background == "flat":
        curve = twistor.flat_twistor_curve(args.order)
        theta = SecondPotential(ScalarField.constant(0, SECOND))
        params = None
    else:
        curve = twistor.st_twistor_curve(args.order)
        theta = recursion.st_potential()
        params = {"sigma": sigma}
    records = []
    worst = _zero(args)
    for p in pts:
        res = twistor.lax_annihilation_residual(curve, theta, p, params)
        interior = {f"{k[0]}:{k[1]}": v for k, v in res["interior"].items()}
        records.append({"point": p, "interior_orders": interior,
                        "max_abs_interior": res["max_abs_interior"]})
        worst = max(worst, res["max_abs_interior"])
    rep = reports.build_report("twistor-series", config, records, worst, args.mode, args.tol)
    return _emit(rep, args.out)


def cmd_penrose(args) -> int:
    try:
        f = parse_expression(args.f, "twistor-function")
        pole = parse_expression(args.pole, "second")
    except ParseError as exc:
        raise ConfigError(str(exc)) from exc
    pts = sample_points("second", args.seed, args.points, ("q_nonzero", "w_nonzero", "y_nonzero"))
    config = {"f": args.f, "pole": args.pole, "seed": args.seed,
              "points": args.points, "mode": args.mode}
    records = []
    for p in pts:
        value = twistor.penrose_residue_transform(f, pole, p)
        records.append({"point": p, "value": value})
    rep = reports.build_report("penrose", config, records, Fraction(0), args.mode, args.tol)
    return _emit(rep, args.out)


def cmd_hierarchy_check(args) -> int:
    import random as _random
    n = args.n
    if n < 1:
        raise ConfigError("hierarchy level must be >= 1")
    chart = hierarchy.extended_chart(n)
    rng = _random.Random(args.seed)
    E = _random_extended_potential(n, rng)
    pts = sample_points(chart, args.seed + 1, args.points)
    if args.mode == "float":
        pts = float_points(pts)
    pairs = [(0, i, 1, j) for i in range(n) for j in range(n)]
    config = {"n": n, "seed": args.seed, "points": args.points, "mode": args.mode}
    records = []
    worst_identity = zero = _zero(args)
    for p in pts:
        point_worst = zero
        res = hierarchy.lax_compat_residual(E, pairs, p)
        for rec in res["pairs"]:
            ident = max(_abs_max(rec["delta_delta"], zero), _abs_max(rec["mixed"], zero))
            equiv = _abs_max((a - b for a, b in
                              zip(rec["dd_commutator"], rec["residual_hamiltonian_field"])), zero)
            point_worst = max(point_worst, ident, equiv)
        sato = []
        for A in (0, 1):
            for j in range(1, n + 1):
                test = _random_test_field(chart, rng)
                r = hierarchy.summed_lax_identity_residual(E, A, j, test, p)
                sato.extend(r.values())
        point_worst = max(point_worst, _abs_max(sato, zero))
        records.append({"point": p, "identity_max_abs": point_worst})
        worst_identity = max(worst_identity, point_worst)
    rep = reports.build_report("hierarchy-check", config, records, worst_identity,
                               args.mode, args.tol)
    return _emit(rep, args.out)


def _random_extended_potential(n: int, rng) -> hierarchy.ExtendedPotential:
    chart = hierarchy.extended_chart(n)
    coords = list(range(2 * (n + 1)))
    poly = Poly.zero(chart)
    for _ in range(8):
        exps = [0] * len(coords)
        for _ in range(rng.randint(1, 3)):
            exps[rng.randrange(len(coords))] += 1
        c = Fraction(rng.randint(-2, 2))
        if c:
            poly = poly + Poly(chart, {tuple(exps): c})
    return hierarchy.ExtendedPotential(n, poly.to_field())


def _random_test_field(chart: str, rng) -> ScalarField:
    from .jetcore import chart_coords as _cc
    poly = Poly.zero(chart)
    ncoords = len(_cc(chart))
    for _ in range(5):
        exps = [0] * ncoords
        for _ in range(rng.randint(1, 2)):
            exps[rng.randrange(ncoords)] += 1
        c = Fraction(rng.randint(-2, 2))
        if c:
            poly = poly + Poly(chart, {tuple(exps): c})
    return (poly + Poly.constant(1, chart)).to_field()


def cmd_symplectic_check(args) -> int:
    import random as _random
    rng = _random.Random(args.seed)
    box = symplectic.BoundaryBox.unit()
    big = symplectic.BoundaryBox(Fraction(0), Fraction(2))
    config = {"degree": args.degree, "pairs": args.pairs, "seed": args.seed, "mode": args.mode}
    records = []
    worst = Fraction(0)
    for k in range(args.pairs):
        p1 = _random_wave_poly(rng, args.degree)
        p2 = _random_wave_poly(rng, args.degree)
        v12 = symplectic.symplectic_pair(p1, p2, box)
        v21 = symplectic.symplectic_pair(p2, p1, box)
        r1 = symplectic.symplectic_pair(recursion.recursion_step_poly(p1), p2, box)
        r2 = symplectic.symplectic_pair(p1, recursion.recursion_step_poly(p2), box)
        conserved = symplectic.symplectic_pair(p1, p2, big) - v12
        rec = {
            "pair": k,
            "value": v12,
            "antisymmetry": v12 + v21,
            "r_compat": r1 - r2,
            "conservation": conserved,
        }
        worst = max(worst, abs(rec["antisymmetry"]), abs(rec["r_compat"]), abs(rec["conservation"]))
        records.append(rec)
    rep = reports.build_report("symplectic-check", config, records, worst, args.mode, args.tol)
    return _emit(rep, args.out)


def _random_wave_poly(rng, degree: int) -> Poly:
    """Random element of the flat wave space: recursion images of (w,z) data plus (x,y) data."""
    poly = Poly.zero(SECOND)
    for _ in range(3):
        a, b = rng.randint(0, degree), rng.randint(0, degree)
        if a + b > degree:
            continue
        seed = Poly(SECOND, {(a, b, 0, 0): Fraction(rng.randint(-2, 2))})
        poly = poly + recursion.recursion_power_poly(seed, rng.randint(0, 2))
    c, d = rng.randint(0, degree), rng.randint(0, degree)
    if c + d <= degree:
        poly = poly + Poly(SECOND, {(0, 0, c, d): Fraction(rng.randint(-2, 2))})
    return poly


# ---------------------------------------------------------------------------
# parser

def _add_common(sp, points_default=10):
    sp.add_argument("--mode", choices=("exact", "float"), default="exact")
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--points", type=int, default=points_default)
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--out", type=str, default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="heavenly",
                                 description="verification suite for heavenly structures")
    sub = ap.add_subparsers(dest="command", required=True)

    vs = sub.add_parser("verify-solution", help="residual / vacuum check for a catalog entry")
    vs.add_argument("--background", required=True)
    vs.add_argument("--sigma", type=str, default=None)
    vs.add_argument("--f", type=str, default=None)
    _add_common(vs)
    vs.set_defaults(func=cmd_verify_solution)

    cr = sub.add_parser("curvature-report", help="per-point curvature invariants")
    cr.add_argument("--background", required=True)
    cr.add_argument("--sigma", type=str, default=None)
    cr.add_argument("--f", type=str, default=None)
    _add_common(cr)
    cr.set_defaults(func=cmd_curvature_report)

    rc = sub.add_parser("recursion-chain", help="chain expressions and residual summary")
    rc.add_argument("--background", required=True, choices=("flat", "st"))
    rc.add_argument("--n", type=int, required=True)
    rc.add_argument("--sigma", type=str, default=None)
    _add_common(rc)
    rc.set_defaults(func=cmd_recursion_chain)

    ts = sub.add_parser("twistor-series", help="per-order annihilation residual table")
    ts.add_argument("--background", required=True, choices=("flat", "st"))
    ts.add_argument("--order", type=int, required=True)
    ts.add_argument("--sigma", type=str, default=None)
    _add_common(ts)
    ts.set_defaults(func=cmd_twistor_series)

    pz = sub.add_parser("penrose", help="residue transform values at sample points")
    pz.add_argument("--f", required=True)
    pz.add_argument("--pole", required=True)
    _add_common(pz)
    pz.set_defaults(func=cmd_penrose)

    hc = sub.add_parser("hierarchy-check", help="identity and equivalence residuals")
    hc.add_argument("--n", type=int, required=True)
    _add_common(hc, points_default=3)
    hc.set_defaults(func=cmd_hierarchy_check)

    sc = sub.add_parser("symplectic-check", help="pairing equality/skewness table")
    sc.add_argument("--degree", type=int, default=4)
    sc.add_argument("--pairs", type=int, default=10)
    _add_common(sc)
    sc.set_defaults(func=cmd_symplectic_check)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        for count in ("points", "pairs"):
            if getattr(args, count, 1) < 1:
                raise ConfigError(f"--{count} must be at least 1, got {getattr(args, count)}")
        return args.func(args)
    except (ConfigError, ParseError, EvaluationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
