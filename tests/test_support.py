"""Polynomials, catalog, sampling and report plumbing."""

from fractions import Fraction as F

import pytest

from heavenly.catalog import load_catalog
from heavenly.jetcore import ScalarField, point
from heavenly.polynomials import Poly
from heavenly.reports import build_report, dumps, encode_value
from heavenly.sampling import NAMED_EXCLUSIONS, SamplerExhausted, sample_points

from geometry_oracle import catalog_tetrad, metric_from_tetrad


class TestPoly:
    def test_eval_and_field_roundtrip(self):
        f = ScalarField.parse("3*w^2*x-y*z/2+1", "second")
        p = Poly("second", {(2, 0, 1, 0): F(3), (0, 1, 0, 1): F(-1, 2), (0, 0, 0, 0): F(1)})
        pt = point("second", 2, -1, F(1, 3), 5)
        assert p.eval(pt) == f.value(pt)
        assert p.to_field().value(pt) == f.value(pt)

    def test_calculus(self):
        p = Poly("second", {(2, 0, 1, 0): F(3)})  # 3 w^2 x
        assert p.diff("w") == Poly("second", {(1, 0, 1, 0): F(6)})
        assert p.integrate("x") == Poly("second", {(2, 0, 2, 0): F(3, 2)})

    def test_without(self):
        p = Poly("second", {(1, 0, 1, 0): F(1), (2, 1, 0, 0): F(5)})
        assert p.without("x") == Poly("second", {(2, 1, 0, 0): F(5)})


class TestCatalog:
    def test_shipped_entries(self):
        cat = load_catalog()
        assert {"flat-second", "flat-first", "sparling-tod", "phi2-eguchi-hanson",
                "plane-wave", "poly-solution", "poly-witness"} <= set(cat)

    def test_entry_params_are_exact(self):
        cat = load_catalog()
        assert cat["sparling-tod"].params["sigma"] == F(1)

    def test_potential_construction(self):
        cat = load_catalog()
        theta = cat["sparling-tod"].second_potential()
        from heavenly.tetrads import second_heavenly_residual
        p = point("second", 1, 1, 1, 1)
        assert second_heavenly_residual(theta, p, {"sigma": F(1)}) == 0

    def test_witness_flagged_as_non_solution(self):
        cat = load_catalog()
        assert cat["poly-witness"].solution is False

    def test_metric_entry(self):
        cat = load_catalog()
        g = metric_from_tetrad(catalog_tetrad(cat["plane-wave"], "q^3"))
        m = g.matrix_values(point("plane-wave", 1, 1, 2, 1))
        assert m[1][1] == 8

    def test_user_file(self, tmp_path):
        import json
        path = tmp_path / "cat.json"
        path.write_text(json.dumps({
            "schema": 1,
            "entries": [{"name": "mine", "chart": "second",
                         "kind": "potential-second", "potential": "x^2*z", "params": {}}],
        }))
        cat = load_catalog(path)
        assert "mine" in cat


class TestSampling:
    def test_deterministic_golden_list(self):
        pts = sample_points("second", 1, 10)
        expect0 = (F(-1), F(6, 7), F(5), F(-3))
        assert pts[0].values == expect0
        assert sample_points("second", 1, 10) == pts

    def test_exclusions_respected(self):
        for p in sample_points("second", 3, 25, ("q_nonzero", "w_nonzero")):
            w, z, x, y = p.values
            assert w != 0
            assert w * x + z * y != 0

    def test_distinct_seeds_differ(self):
        assert sample_points("second", 1, 5) != sample_points("second", 2, 5)

    def test_magnitude_bounds(self):
        for p in sample_points("first", 4, 30):
            for v in p.values:
                assert abs(v.numerator) <= 7
                assert 1 <= v.denominator <= 7

    def test_exhaustion(self):
        with pytest.raises(SamplerExhausted):
            sample_points("second", 1, 1, (lambda p: False,))

    def test_callable_exclusion(self):
        pts = sample_points("second", 5, 8, (NAMED_EXCLUSIONS["y_nonzero"],))
        assert all(p.values[3] != 0 for p in pts)


class TestReports:
    def test_rationals_as_strings(self):
        assert encode_value(F(3, 7)) == "3/7"
        assert encode_value([F(1), F(-1, 2)]) == ["1", "-1/2"]
        assert encode_value(point("second", 1, 2, 3, 4))["values"] == ["1", "2", "3", "4"]

    def test_exact_verdicts(self):
        rep = build_report("op", {}, [], F(0), "exact")
        assert rep["verdict"] == "pass" and rep["exact_zero"]
        rep = build_report("op", {}, [], F(1, 10 ** 12), "exact")
        assert rep["verdict"] == "fail" and not rep["exact_zero"]

    def test_float_verdicts(self):
        assert build_report("op", {}, [], 1e-12, "float", 1e-9)["verdict"] == "pass"
        assert build_report("op", {}, [], 1e-6, "float", 1e-9)["verdict"] == "fail"

    def test_canonical_serialisation(self):
        rep = build_report("op", {"b": F(1, 2), "a": 1}, [{"r": F(0)}], F(0), "exact")
        assert dumps(rep) == dumps(rep)
        assert dumps(rep).endswith("\n")
        assert '"schema":1' in dumps(rep)
