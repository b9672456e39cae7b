"""Command-line front end: dispatch, exit codes, determinism, golden reports."""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from heavenly.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


class TestExitCodes:
    def test_pass_is_zero(self):
        code, out = run(["verify-solution", "--background", "sparling-tod",
                         "--sigma", "1", "--points", "3"])
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    def test_verdict_failure_is_one(self):
        code, out = run(["verify-solution", "--background", "poly-witness", "--points", "3"])
        assert code == 1
        assert json.loads(out)["verdict"] == "fail"

    def test_config_error_is_two(self):
        code, _ = run(["verify-solution", "--background", "no-such-entry"])
        assert code == 2

    def test_parse_error_is_two(self):
        code, _ = run(["penrose", "--f", "1/((mu0*mu1", "--pole=-w/y"])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["curvature-report", "--background", "sparling-tod", "--points", "0"],
        ["verify-solution", "--background", "plane-wave", "--points", "-1"],
        ["hierarchy-check", "--n", "2", "--points", "0"],
        ["symplectic-check", "--pairs", "0"],
        ["recursion-chain", "--background", "st", "--n", "0"],
    ])
    def test_no_evidence_is_two(self, argv, capsys):
        code, out = run(argv)
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("f", ["1/(lam-lam)", "(lam-lam)^(-1)", "1/(mu0-mu0)"])
    def test_identically_zero_denominator_is_two(self, f, capsys):
        code, out = run(["penrose", "--f", f, "--pole=-w/y"])
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("sigma", ["1/0", "abc"])
    def test_bad_sigma_is_two(self, sigma, capsys):
        for cmd in (["curvature-report", "--background", "sparling-tod"],
                    ["recursion-chain", "--background", "st", "--n", "2"],
                    ["twistor-series", "--background", "st", "--order", "2"]):
            code, _ = run(cmd + ["--sigma", sigma, "--points", "1"])
            assert code == 2, cmd
            assert capsys.readouterr().err.startswith("error: --sigma")


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["verify-solution", "--background", "sparling-tod", "--sigma", "1", "--points", "4"],
        ["curvature-report", "--background", "plane-wave", "--f", "q^2", "--points", "2"],
        ["recursion-chain", "--background", "st", "--n", "3", "--sigma", "1/2", "--points", "2"],
        ["recursion-chain", "--background", "flat", "--n", "4", "--points", "2"],
        ["twistor-series", "--background", "st", "--order", "4", "--points", "2"],
        ["penrose", "--f", "1/(mu0*mu1)", "--pole=-w/y", "--points", "3"],
        ["hierarchy-check", "--n", "2", "--points", "1"],
        ["symplectic-check", "--degree", "3", "--pairs", "3"],
    ])
    def test_byte_identical_reruns(self, argv):
        code1, out1 = run(argv + ["--seed", "11"])
        code2, out2 = run(argv + ["--seed", "11"])
        assert code1 == code2 == 0
        assert out1 == out2

    def test_different_seed_changes_points(self):
        _, out1 = run(["verify-solution", "--background", "sparling-tod", "--seed", "1",
                       "--points", "3"])
        _, out2 = run(["verify-solution", "--background", "sparling-tod", "--seed", "2",
                       "--points", "3"])
        assert out1 != out2


class TestGolden:
    @pytest.mark.parametrize("name,argv", [
        ("verify-solution-sparling-tod.json",
         ["verify-solution", "--background", "sparling-tod", "--sigma", "1",
          "--points", "5", "--seed", "3"]),
        ("curvature-plane-wave.json",
         ["curvature-report", "--background", "plane-wave", "--f", "q^2",
          "--points", "3", "--seed", "3"]),
        ("recursion-chain-st.json",
         ["recursion-chain", "--background", "st", "--n", "3", "--sigma", "1/2",
          "--points", "3", "--seed", "3"]),
        ("penrose-phi0.json",
         ["penrose", "--f", "1/(mu0*mu1)", "--pole=-w/y", "--points", "3", "--seed", "3"]),
    ])
    def test_matches_golden_bytes(self, name, argv):
        code, out = run(argv)
        assert code == 0
        assert out == (GOLDEN / name).read_text()

    def test_schema_pinned(self):
        for f in GOLDEN.glob("*.json"):
            assert json.loads(f.read_text())["schema"] == 1


class TestOutputs:
    def test_out_file_written(self, tmp_path):
        target = tmp_path / "report.json"
        code, out = run(["verify-solution", "--background", "flat-second",
                         "--points", "2", "--out", str(target)])
        assert code == 0
        assert target.read_text() == out

    def test_float_mode(self):
        # absolute tolerance on arbitrary sampled points scales with the pole
        # conditioning, hence looser than the unit-scale 1e-9 figure
        code, out = run(["verify-solution", "--background", "sparling-tod",
                         "--sigma", "1", "--points", "3", "--mode", "float",
                         "--tol", "1e-6"])
        assert code == 0
        rep = json.loads(out)
        assert rep["verdict"] == "pass"
        assert isinstance(rep["max_abs_residual"], float)

    def test_first_form_entry(self):
        code, out = run(["verify-solution", "--background", "flat-first", "--points", "3"])
        assert code == 0

    def test_plane_wave_profiles(self):
        for profile in ("q^2", "q^3", "q*z"):
            code, out = run(["verify-solution", "--background", "plane-wave",
                             "--f", profile, "--points", "2"])
            assert code == 0, profile

    def test_deep_chain_run(self):
        code, out = run(["recursion-chain", "--background", "st", "--n", "8",
                         "--sigma", "1/2", "--points", "2"])
        assert code == 0
        rep = json.loads(out)
        assert len(rep["records"]) == 8
        assert rep["exact_zero"]

    def test_chain_past_twelve_members(self):
        # the coefficient tables grow on demand; n <= 12 reports are unchanged
        code, out = run(["recursion-chain", "--background", "st", "--n", "13",
                         "--points", "1"])
        assert code == 0
        rep = json.loads(out)
        assert [r["n"] for r in rep["records"]] == list(range(1, 14))
        assert rep["verdict"] == "pass"

    def test_hierarchy_records_each_points_own_residual(self, monkeypatch):
        from fractions import Fraction

        from heavenly import hierarchy
        real = hierarchy.lax_compat_residual
        seen = []

        def first_point_off(E, pairs, p):
            res = real(E, pairs, p)
            if not seen:
                res["pairs"][0]["delta_delta"] = [Fraction(3)]
            seen.append(p)
            return res

        monkeypatch.setattr(hierarchy, "lax_compat_residual", first_point_off)
        code, out = run(["hierarchy-check", "--n", "2", "--points", "3", "--seed", "7"])
        rep = json.loads(out)
        assert code == 1
        assert [r["identity_max_abs"] for r in rep["records"]] == ["3", "0", "0"]
        assert rep["max_abs_residual"] == "3"

    def test_twistor_flat(self):
        code, out = run(["twistor-series", "--background", "flat", "--order", "4",
                         "--points", "2"])
        assert code == 0
        assert json.loads(out)["exact_zero"]

    def test_float_mode_chain_and_series(self):
        # float mode samples unit-scale points so absolute tolerances apply
        for argv in (["recursion-chain", "--background", "st", "--n", "4",
                      "--sigma", "1", "--points", "2"],
                     ["twistor-series", "--background", "st", "--order", "4",
                      "--points", "2"],
                     ["hierarchy-check", "--n", "2", "--points", "1"]):
            code, out = run(argv + ["--mode", "float", "--tol", "1e-6"])
            assert code == 0, argv
            assert json.loads(out)["verdict"] == "pass"

    @pytest.mark.parametrize("argv,record_field", [
        (["curvature-report", "--background", "flat-second", "--points", "1"], None),
        (["twistor-series", "--background", "flat", "--order", "2", "--points", "1"], None),
        (["hierarchy-check", "--n", "2", "--points", "2"], "identity_max_abs"),
        (["recursion-chain", "--background", "st", "--n", "2", "--points", "1"], "step_max_abs"),
    ])
    def test_float_maxima_are_floats(self, argv, record_field):
        # the residuals here vanish (up to rounding); their maxima must stay floats, not "0"
        code, out = run(argv + ["--mode", "float"])
        rep = json.loads(out)
        assert code == 0
        assert isinstance(rep["max_abs_residual"], float)
        if record_field:
            found = [r[record_field] for r in rep["records"] if record_field in r]
            assert found and all(isinstance(v, float) for v in found)
