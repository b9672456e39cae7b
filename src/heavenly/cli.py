"""Command-line front end: verification subcommands with JSON reports.

Each subcommand checks one claim of the paper through one driver, `_check`.
The subcommand turns its options into a list of items (sample points, chain
members or symplectic pairs) and an `evaluate` that maps an item to its
report record and its labelled residuals.  A label is a tuple: the
residual's component and, where there is one, its lam-order.  The driver
folds the largest |residual| into the schema-1 report and writes it.

Exit codes: 0 = every check passed; 1 = a verdict failed, and stderr has one
line naming the worst residual's item, label and value; 2 = bad input (an
option out of range, an option the background does not read, an unparsable
or off-chart expression, an expression nested too deeply to compile, an
unknown background, no admissible sample point, a penrose --f whose
lam-degree on the flat curve exceeds its budget, a penrose --pole that is no
pole of --f at a point, or a float evaluation that
cannot meet --tol: a parameter or a value met while evaluating that is too
large for a float, or a residual that is not finite, named by its item and
label), with one `error:` line on stderr and nothing on stdout.
"""

from __future__ import annotations

import argparse
import math
import random
import re
import reprlib
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

from . import curvature, hierarchy, recursion, reports, symplectic, twistor
from .catalog import load_catalog
from .jetcore import (
    EXACT,
    FLOAT,
    EvaluationError,
    Expr,
    ParseError,
    Point,
    PoleError,
    ScalarField,
    chart_coords,
    field_program,
    parse_expression,
)
from .polynomials import Poly
from .sampling import SamplerExhausted, float_points, sample_points
from .tetrads import (
    SECOND,
    SecondPotential,
    first_heavenly_residual,
    second_heavenly_residual,
)


class ConfigError(ValueError):
    pass


def _check(args, config: dict, items, evaluate) -> int:
    """Evaluate every item, fold the largest |residual| and emit the report.

    ``evaluate(item)`` returns the item's record and a mapping from label to
    residual.  On a failing verdict one stderr line names the residual that
    first reached the maximum: its item, label and value.
    """
    # the maxima start at the domain's zero, so a float run whose residuals all vanish stays float
    worst, culprit = args.domain.number(0), None
    records = []
    for item in items:
        record, residuals = evaluate(item)
        records.append(record)
        for label, value in residuals.items():
            # a zero residual is never the maximum, so it is not worth an abs; a nan
            # is never <= worst, so it reaches the finiteness check as a new maximum does
            if value and not abs(value) <= worst:
                if isinstance(value, float) and not math.isfinite(value):
                    raise EvaluationError(f"{_label_text(label)} = {value} at {_item_text(record)}"
                                          " is not finite in float mode")
                worst, culprit = abs(value), (record, label, value)
    config = {**config, "seed": args.seed, "mode": args.mode}
    try:
        report = reports.build_report(args.command, config, records, worst, args.domain, args.tol)
    except ValueError:   # str() of a rational whose integers exceed the digit limit
        raise EvaluationError(f"a value of the report has more than {sys.get_int_max_str_digits()}"
                              " digits, Python's limit for integer text") from None
    text = reports.dumps(report)
    sys.stdout.write(text)
    if args.out:
        Path(args.out).write_text(text)
    if report["verdict"] == "pass":
        return 0
    record, label, value = culprit
    print(f"verdict failed: {_label_text(label)} = {value} at {_item_text(record)}",
          file=sys.stderr)
    return 1


def _point_text(p: Point) -> str:
    return "point " + ", ".join(f"{c}={v}" for c, v in zip(chart_coords(p.chart), p.values))


def _item_text(record: dict) -> str:
    if "point" in record:
        return _point_text(record["point"])
    return f"chain member n={record['n']}" if "n" in record else f"pair {record['pair']}"


def _label_text(label: tuple) -> str:
    """The component, then its lam-order or the point it was checked at."""
    component, *where = label
    return " at ".join([component] + [f"lam^{w}" if isinstance(w, int) else _point_text(w)
                                      for w in where])


def _entry(args):
    catalog = load_catalog()
    name = args.background
    if name not in catalog:
        raise ConfigError(f"unknown background {name!r}; catalog has {sorted(catalog)}")
    entry = catalog[name]
    if args.f is not None and entry.kind != "metric":
        raise ConfigError(f"--f sets a metric entry's profile; {name!r} is a {entry.kind} entry")
    return entry


def _sigma(args, background: str, used: bool, default=None):
    """--sigma as an exact rational.  Bad text, a zero denominator, or a sigma the
    background does not read (``used`` false) is a config error."""
    text = args.sigma
    if text is None:
        return default
    if not used:
        raise ConfigError(f"--sigma sets the sigma parameter; {background!r} has none")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        limit = sys.get_int_max_str_digits()
        too_long = limit and max(map(len, re.findall(r"\d+", text)), default=0) > limit
        what = (f"a rational with at most {limit} digits in each number (Python's limit for "
                "integer text)" if too_long else "a rational p/q with q != 0")
        raise ConfigError(f"--sigma must be {what}, got {reprlib.repr(text)}") from exc


def _params(entry, args) -> dict:
    params = dict(entry.params)
    sigma = _sigma(args, entry.name, "sigma" in params)
    if sigma is not None:
        params["sigma"] = sigma
    return {k: _number(args, f"parameter {k!r}", v) for k, v in params.items()}


def _number(args, name: str, value):
    """A parameter in the run's domain; one too large for a float is bad input."""
    try:
        return args.domain.number(value)
    except OverflowError:
        raise ConfigError(f"{name} is too large for --mode float") from None


def _sample(chart: str, args, exclusions=(), seed=None) -> list[Point]:
    pts = sample_points(chart, args.seed if seed is None else seed, args.points, exclusions)
    return float_points(pts) if args.mode == "float" else pts


def _entry_points(entry, args, params, profile=None, f=None) -> list[Point]:
    """Sample off the entry's exclusions and, for a metric entry, off the poles of its
    profile ``f`` (parsed from the text ``profile``).

    A jet fails only where a divisor is zero-valued, so a point where the
    profile's value evaluates is regular at every order.
    """
    exclusions = list(entry.exclusions)
    if entry.kind != "metric":
        return _sample(entry.chart, args, exclusions)
    tried, found = 0, False

    def regular(p: Point) -> bool:
        nonlocal tried, found
        tried += 1
        try:
            f.value(p, params)
        except PoleError:
            return False
        found = True
        return True
    exclusions.append(regular)
    try:
        return _sample(entry.chart, args, exclusions)
    except SamplerExhausted:
        if tried and not found:
            raise ConfigError(f"profile {profile!r} has a pole at every sampled point "
                              f"({tried} tried)") from None
        raise


def _exact_only(args) -> None:
    if args.mode == "float":
        raise ConfigError(f"{args.command} is exact-rational by construction; "
                          "--mode float is not supported")


def _background(args, *exclusions):
    """Potential, parameters, sigma and sample points of the flat or st background."""
    sigma = _number(args, "--sigma", _sigma(args, args.background, args.background != "flat",
                                            Fraction(1)))
    exclusions = ["q_nonzero", "w_nonzero", *exclusions]
    if args.mode == "float":
        exclusions.append("q_unit_scale")  # absolute tolerances assume unit scale
    pts = _sample(SECOND, args, exclusions)
    if args.background == "flat":
        return SecondPotential(ScalarField.constant(0, SECOND)), None, sigma, pts
    return recursion.st_potential(), {"sigma": sigma}, sigma, pts


# ---------------------------------------------------------------------------
# subcommands

def cmd_verify_solution(args) -> int:
    entry = _entry(args)
    if entry.kind == "metric":
        return _curvature_check(args, entry)
    params = _params(entry, args)
    if entry.kind == "potential-second":
        residual, potential = second_heavenly_residual, entry.second_potential()
    else:
        residual, potential = first_heavenly_residual, entry.first_potential()

    def evaluate(p):
        r = residual(potential, p, params)
        return {"point": p, "residual": r}, {("residual",): r}
    config = {"background": entry.name, "params": params, "points": args.points}
    return _check(args, config, _entry_points(entry, args, params), evaluate)


def cmd_curvature_report(args) -> int:
    return _curvature_check(args, _entry(args))


def _curvature_check(args, entry) -> int:
    """Ricci and self-dual Weyl maxima of the entry's metric at each point.

    verify-solution keeps each point's own pass flag in its records;
    curvature-report does not.
    """
    params = _params(entry, args)
    profile = args.f or (entry.expression if entry.kind == "metric" else None)
    try:
        geometry = entry.geometry(profile)
    except ValueError as exc:  # a profile that is not a function of (q, z)
        raise ConfigError(str(exc)) from exc
    pts = _entry_points(entry, args, params, profile, geometry.field)
    config = {"background": entry.name, "params": params, "points": args.points}
    if profile:
        config["f"] = profile
    # each point's metric table, inverse and frame values come from one jet of the primary field
    inputs = ((p, *geometry.at(p, params)) for p in pts)
    records = curvature.asd_vacuum_verdict(inputs, args.tol)["records"]
    if args.command == "curvature-report":
        records = [{k: v for k, v in r.items() if k != "pass"} for r in records]
    return _check(args, config, records, lambda r: (r, {
        ("ricci_max_abs",): r["ricci_max_abs"], ("sd_weyl_max_abs",): r["sd_weyl_max_abs"]}))


def cmd_recursion_chain(args) -> int:
    first = 1 if args.background == "st" else 0
    if args.n < first:
        raise ConfigError(f"--n must be at least {first} on {args.background}, got {args.n}")
    theta, params, sigma, pts = _background(args)
    # on st the formal monomial image is checked in the chain's fold; its residuals
    # join the first member's
    pairs = recursion.monomial_action_pairs() if first and args.n >= 2 else {}
    if args.background == "flat":
        program = field_program([theta.field, *(recursion.flat_phi(n) for n in range(args.n + 1))])
        key, offset = "link_max_abs", -1   # link (n-1, n) is reported on member n
    else:
        program = recursion.st_chain_program(args.n, pairs)
        key, offset = "step_max_abs", 0    # step (n, n+1) is reported on member n
    count = args.n + 1 - first
    waves, links, monomials = recursion.chain_residual_maxima(program, count, pts, params, pairs)
    texts = program.texts()[1:]   # output 0 is the potential, output 1 + i member i

    def evaluate(i):
        record = {"n": first + i, "expression": texts[i], "wave_max_abs": waves[i]}
        residuals = {}
        if 0 <= i + offset < len(links):
            record[key] = residuals[(key,)] = links[i + offset]
        residuals[("wave_max_abs",)] = waves[i]
        if i == 0:
            residuals.update(monomials)
        return record, residuals
    config = {"background": args.background, "n": args.n, "sigma": sigma, "points": args.points}
    return _check(args, config, range(count), evaluate)


def cmd_twistor_series(args) -> int:
    theta, params, sigma, pts = _background(args, "z_nonzero")
    curve = (twistor.flat_curve_program(args.order) if args.background == "flat"
             else twistor.st_curve_program(args.order))

    def evaluate(p):
        res = twistor.lax_annihilation_residual(curve, theta, p, params)
        interior = {f"{A}:{B}": orders for (A, B), orders in res["interior"].items()}
        record = {"point": p, "interior_orders": interior,
                  "max_abs_interior": res["max_abs_interior"]}
        return record, {(component, r): v for component, orders in interior.items()
                        for r, v in orders.items()}
    config = {"background": args.background, "order": args.order, "sigma": sigma,
              "points": args.points}
    return _check(args, config, pts, evaluate)


# the largest lam-degree a penrose --f may form on the flat curve (twistor.lam_degree).
# One point in exact arithmetic (CPython 3.11, one Xeon core) took 0.003 s for
# lam^200/(mu0*mu1), 0.045 s for (1+lam)^200/(mu0*mu1) and 0.62 s for
# (lam+123456789/987654321)^200/(mu0*mu1); a dense numerator's work grows about as the
# degree squared
PENROSE_LAM_DEGREE = 200


def cmd_penrose(args) -> int:
    _exact_only(args)
    f = ScalarField.parse(args.f, "twistor-function").program()   # compiled once per job
    degree = twistor.lam_degree(f)
    if degree > PENROSE_LAM_DEGREE:
        raise ConfigError(f"--f forms lam-degree {degree} on the flat curve, above the "
                          f"budget of {PENROSE_LAM_DEGREE}")
    pole = ScalarField.parse(args.pole, SECOND)
    pts = _sample(SECOND, args, ("q_nonzero", "w_nonzero", "y_nonzero"))
    config = {"f": args.f, "pole": args.pole, "points": args.points}

    def evaluate(p):   # the transform's value is reported, not checked: no residuals
        try:
            return {"point": p, "value": twistor.penrose_residue_transform(f, pole, p)}, {}
        except twistor.NotAPoleError as exc:
            raise ConfigError(f"--pole {args.pole} is not a pole of --f {args.f} at "
                              f"{_point_text(p)}: {exc}") from None
    return _check(args, config, pts, evaluate)


def cmd_hierarchy_check(args) -> int:
    n = args.n
    if not 1 <= n <= 9:
        raise ConfigError(f"--n must be in 1..9, got {n}")
    chart = hierarchy.extended_chart(n)
    theta = _random_poly(chart, random.Random(args.seed), 8, 3).to_field()
    E = hierarchy.ExtendedPotential(n, theta)
    pairs = [(0, i, 1, j) for i in range(n) for j in range(n)]
    zero = args.domain.number(0)

    def evaluate(p):
        # the compatibility and the Sato checks read one jet's flow fields
        fields = hierarchy.FlowFields(E.field.jet(p, 3))
        residuals = {**hierarchy.lax_compat_from_jet(fields, pairs),
                     **hierarchy.summed_lax_from_jet(fields)}
        record = {"point": p,
                  "identity_max_abs": max([zero, *(abs(v) for v in residuals.values() if v)])}
        return record, residuals
    config = {"n": n, "points": args.points}
    return _check(args, config, _sample(chart, args, seed=args.seed + 1), evaluate)


def _random_poly(chart: str, rng, terms: int, degree: int) -> Poly:
    """Sum of up to ``terms`` monomials of degree 1..degree, coefficients in -2..2."""
    poly = Poly.zero(chart)
    ncoords = len(chart_coords(chart))
    for _ in range(terms):
        exps = [0] * ncoords
        for _ in range(rng.randint(1, degree)):
            exps[rng.randrange(ncoords)] += 1
        c = Fraction(rng.randint(-2, 2))
        if c:
            poly = poly + Poly(chart, {tuple(exps): c})
    return poly


def cmd_symplectic_check(args) -> int:
    _exact_only(args)
    rng = random.Random(args.seed)
    box = symplectic.BoundaryBox.unit()
    big = symplectic.BoundaryBox(Fraction(0), Fraction(2))
    pair, step = symplectic.symplectic_pair, recursion.recursion_step_poly

    def evaluate(k):
        p1 = _random_wave_poly(rng, args.degree)
        p2 = _random_wave_poly(rng, args.degree)
        v12 = pair(p1, p2, box)
        residuals = {("antisymmetry",): v12 + pair(p2, p1, box),
                     ("r_compat",): pair(step(p1), p2, box) - pair(p1, step(p2), box),
                     ("conservation",): pair(p1, p2, big) - v12}
        return {"pair": k, "value": v12, **{c: v for (c,), v in residuals.items()}}, residuals
    config = {"degree": args.degree, "pairs": args.pairs}
    return _check(args, config, range(args.pairs), evaluate)


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


class _Parser(argparse.ArgumentParser):
    """A usage error is bad input like any other: one `error:` line and exit 2."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later call.

    Parsing keeps no state in the parser: each call returns a fresh namespace,
    and a usage error raises rather than exits.  The parser holds no command
    function; :func:`main` looks each one up by name when it runs.
    """
    ap = _Parser(prog="heavenly", description="verification suite for heavenly structures")
    sub = ap.add_subparsers(dest="command", required=True)

    for name, about in (
            ("verify-solution", "residual / vacuum check for a catalog entry"),
            ("curvature-report", "per-point curvature invariants")):
        sp = sub.add_parser(name, help=about)
        sp.add_argument("--background", required=True)
        sp.add_argument("--sigma", type=str, default=None)
        sp.add_argument("--f", type=str, default=None)
        _add_common(sp)

    for name, size, about in (
            ("recursion-chain", "--n", "chain expressions and residual summary"),
            ("twistor-series", "--order", "per-order annihilation residual table")):
        sp = sub.add_parser(name, help=about)
        sp.add_argument("--background", required=True, choices=("flat", "st"))
        sp.add_argument(size, type=int, required=True)
        sp.add_argument("--sigma", type=str, default=None)
        _add_common(sp)

    pz = sub.add_parser("penrose", help="residue transform values at sample points")
    pz.add_argument("--f", required=True)
    pz.add_argument("--pole", required=True)
    _add_common(pz)

    hc = sub.add_parser("hierarchy-check", help="identity and equivalence residuals")
    hc.add_argument("--n", type=int, required=True)
    _add_common(hc, points_default=3)

    sc = sub.add_parser("symplectic-check", help="pairing equality/skewness table")
    sc.add_argument("--degree", type=int, default=4)
    sc.add_argument("--pairs", type=int, default=10)
    _add_common(sc)

    return ap


def _deepest_expression(args) -> str | None:
    """The expression option (--f, --pole) of the run whose tree nests deepest, or
    None when it has none.  Read only after the run exceeded the recursion limit."""
    def depth(text: str, chart: str) -> float:
        try:
            stack, deepest = [(parse_expression(text, chart), 1)], 0
        except RecursionError:   # too deep even to parse
            return math.inf
        while stack:
            e, d = stack.pop()
            deepest = max(deepest, d)
            stack += [(x, d + 1) for x in vars(e).values() if isinstance(x, Expr)]
        return deepest
    f_chart = "twistor-function" if args.command == "penrose" else "plane-wave"
    options = [(depth(text, chart), option) for option, text, chart in (
        ("--f", getattr(args, "f", None), f_chart), ("--pole", getattr(args, "pole", None), SECOND))
        if text is not None]
    return max(options)[1] if options else None


def main(argv=None) -> int:
    args = None
    try:
        args = build_parser().parse_args(argv)
        args.domain = FLOAT if args.mode == "float" else EXACT
        for name, low in (("points", 1), ("pairs", 1), ("order", 1), ("degree", 0)):
            if getattr(args, name, low) < low:
                raise ConfigError(f"--{name} must be at least {low}, got {getattr(args, name)}")
        if not (args.tol > 0 and math.isfinite(args.tol)):
            raise ConfigError(f"--tol must be positive and finite, got {args.tol}")
        # subcommand a-b runs cmd_a_b, read from the module at call time, so a
        # rebinding of cmd_a_b (a tracer, a test double) is what runs
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (ConfigError, ParseError, EvaluationError, SamplerExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # compiling and printing a tree recurse once per level; deeper input is bad input
        option = args and _deepest_expression(args)
        if option is None:
            raise
        print(f"error: {option} is nested too deeply to evaluate", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
