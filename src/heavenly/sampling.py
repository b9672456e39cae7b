"""Reproducible rational test-point sampling with exclusion predicates."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from typing import Callable, Iterable, Sequence

from .jetcore import Point, chart_coords

MAX_MAGNITUDE = 7
_MAX_TRIES = 10_000

Predicate = Callable[[Point], bool]


_index = cache(lambda chart, name: chart_coords(chart).index(name))


def _coord(p: Point, name: str) -> Fraction:
    return p.values[_index(p.chart, name)]


def _quadratic(p: Point) -> tuple[int, int]:
    """wx + zy at a rational point, as an integer over a positive one."""
    w, z, x, y = (_coord(p, name) for name in "wzxy")
    wx, zy = w.denominator * x.denominator, z.denominator * y.denominator
    return w.numerator * x.numerator * zy + z.numerator * y.numerator * wx, wx * zy


NAMED_EXCLUSIONS: dict[str, Predicate] = {
    # quadratic pole locus of the catalog potentials
    "q_nonzero": lambda p: _quadratic(p)[0] != 0,
    # well-conditioned for float-mode tolerances near the quadratic pole
    "q_unit_scale": lambda p: abs((q := _quadratic(p))[0]) >= q[1],
    "w_nonzero": lambda p: _coord(p, "w") != 0,
    "z_nonzero": lambda p: _coord(p, "z") != 0,
    "y_nonzero": lambda p: _coord(p, "y") != 0,
    "x_nonzero": lambda p: _coord(p, "x") != 0,
}


class SamplerExhausted(RuntimeError):
    pass


def sample_points(chart: str, seed: int, count: int,
                  exclusions: Iterable[str | Predicate] = ()) -> list[Point]:
    """Deterministic rational points; numerators and denominators bounded by 7."""
    rng = random.Random(seed)
    predicates: list[Predicate] = []
    for e in exclusions:
        predicates.append(NAMED_EXCLUSIONS[e] if isinstance(e, str) else e)
    n = len(chart_coords(chart))
    out: list[Point] = []
    tries = 0
    while len(out) < count:
        tries += 1
        if tries > _MAX_TRIES:
            raise SamplerExhausted(f"could not find {count} admissible points")
        values = tuple(
            Fraction(rng.randint(-MAX_MAGNITUDE, MAX_MAGNITUDE), rng.randint(1, MAX_MAGNITUDE))
            for _ in range(n)
        )
        p = Point(chart, values)
        if all(pred(p) for pred in predicates):
            out.append(p)
    return out


def float_points(points: Sequence[Point]) -> list[Point]:
    return [p.as_float() for p in points]
