"""Cross-module invariants quantified over the shipped catalog."""

from fractions import Fraction as F

from heavenly.catalog import load_catalog
from heavenly.sampling import sample_points
from heavenly.tetrads import (
    first_heavenly_residual,
    lax_commutator_residual,
    lax_pair_omega,
    lax_pair_theta,
    second_heavenly_residual,
)

from geometry_oracle import catalog_tetrad, metric_from_tetrad, verify_asd_vacuum

LAMBDAS = (F(0), F(1), F(-1), F(2))


def entry_points(entry, seed=31, count=5):
    return sample_points(entry.chart, seed, count, entry.exclusions)


def test_commutator_iff_residual_across_catalog():
    cat = load_catalog()
    for entry in cat.values():
        if entry.kind == "metric":
            continue
        pts = entry_points(entry)
        if entry.kind == "potential-second":
            pot = entry.second_potential()
            residuals = [second_heavenly_residual(pot, p, entry.params) for p in pts]
            pairs = [lax_pair_theta(pot, lam) for lam in LAMBDAS]
        else:
            pot = entry.first_potential()
            residuals = [first_heavenly_residual(pot, p, entry.params) for p in pts]
            pairs = [lax_pair_omega(pot, lam) for lam in LAMBDAS]
        commutators = [lax_commutator_residual(lp, p, entry.params)
                       for lp in pairs for p in pts]
        if entry.solution:
            assert all(v == 0 for v in residuals), entry.name
            assert all(all(c == 0 for c in row) for row in commutators), entry.name
        else:
            assert any(v != 0 for v in residuals), entry.name
            assert any(any(c != 0 for c in row) for row in commutators), entry.name


def test_catalog_solutions_are_asd_vacuum():
    cat = load_catalog()
    for entry in cat.values():
        if not entry.solution:
            continue
        tetrad = catalog_tetrad(entry)
        metric = metric_from_tetrad(tetrad)
        out = verify_asd_vacuum(metric, tetrad, entry_points(entry, seed=32, count=3),
                                entry.params)
        assert out["verdict"] == "pass", entry.name
