"""Shipped solution catalog and its JSON loader."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

from .jetcore import ScalarField, kept
from .tetrads import (
    FieldGeometry,
    FirstPotential,
    SecondPotential,
    geometry_from_omega,
    geometry_from_theta,
    plane_wave_geometry,
)

# read by path: the data directory ships beside this module, and is no package to import
SHIPPED = Path(__file__).with_name("data") / "catalog.json"


@dataclass(frozen=True)
class CatalogEntry:
    """One catalog entry.  Entries are shared by every load of the same bytes, so
    ``params`` is a read-only copy of the mapping it is given."""

    name: str
    chart: str
    kind: str  # potential-second | potential-first | metric
    expression: str
    params: Mapping[str, Fraction] = field(default_factory=dict)
    exclusions: tuple[str, ...] = ()
    solution: bool = True

    def __post_init__(self):
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))

    def second_potential(self) -> SecondPotential:
        if self.kind != "potential-second":
            raise ValueError(f"{self.name} is not a second-form potential")
        return SecondPotential(ScalarField.parse(self.expression, "second"))

    def first_potential(self) -> FirstPotential:
        if self.kind != "potential-first":
            raise ValueError(f"{self.name} is not a first-form potential")
        return FirstPotential(ScalarField.parse(self.expression, "first"))

    def geometry(self, profile: str | None = None) -> FieldGeometry:
        """The entry's metric jets, their inverse and its frame values, read off one
        jet of the entry's potential or profile (``profile`` for a metric entry) per point."""
        if self.kind == "potential-second":
            return geometry_from_theta(self.second_potential())
        if self.kind == "potential-first":
            return geometry_from_omega(self.first_potential())
        return plane_wave_geometry(ScalarField.parse(profile or self.expression, "plane-wave"))


def _parse_entry(raw: dict) -> CatalogEntry:
    expression = raw.get("potential") or raw.get("profile") or raw.get("metric")
    params = {k: Fraction(v) for k, v in raw.get("params", {}).items()}
    return CatalogEntry(
        name=raw["name"],
        chart=raw["chart"],
        kind=raw["kind"],
        expression=expression,
        params=params,
        exclusions=tuple(raw.get("exclusions", ())),
        solution=raw.get("solution", True),
    )


def load_catalog(path: str | Path | None = None) -> dict[str, CatalogEntry]:
    """Load the shipped catalog, or a user file with the same schema.

    The file is read on every call and parsed once per distinct contents, so
    a file rewritten between two calls gives its new entries."""
    return dict(_entries((SHIPPED if path is None else Path(path)).read_bytes()))


@kept(limit=8)
def _entries(data: bytes) -> dict[str, CatalogEntry]:
    raw = json.loads(data)
    if raw.get("schema") != 1:
        raise ValueError("unsupported catalog schema")
    entries = [_parse_entry(r) for r in raw["entries"]]
    return {e.name: e for e in entries}
