"""Command-line front end: dispatch, exit codes, determinism, golden reports."""

import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from heavenly.cli import build_parser, main
from heavenly.hierarchy import FlowFields
from heavenly.jetcore import ScalarField
from heavenly.recursion import (
    flat_phi,
    monomial_action_pairs,
    st_potential,
    wave_residual,
)
from heavenly.sampling import float_points, sample_points
from heavenly.tetrads import (
    EPS,
    FieldGeometry,
    SecondPotential,
    lax_step_residual,
    plane_wave_geometry,
)

from chain_oracle import st_psi
from jet_work import JetWork, fresh_caches

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


# argv, and a part of its one error line: bad input that exits 2
BAD_INPUT = [
    (["hierarchy-check", "--n", "10"], "--n must be in 1..9"),
    (["hierarchy-check", "--n", "0"], "--n must be in 1..9"),
    (["symplectic-check", "--degree", "-1"], "--degree must be at least 0"),
    (["twistor-series", "--background", "st", "--order", "0"], "--order must be at least 1"),
    (["twistor-series", "--background", "flat", "--order", "0"], "--order must be at least 1"),
    (["verify-solution", "--background", "plane-wave", "--f", "w"],
     "profile must depend on (q, z) only"),
    (["curvature-report", "--background", "plane-wave", "--f", "sigma*q"],
     "profile must depend on (q, z) only"),
    (["curvature-report", "--background", "sparling-tod", "--mode", "float", "--tol", "0"],
     "--tol must be positive and finite"),
    (["recursion-chain", "--background", "st", "--n", "2", "--tol=-1e-9"],
     "--tol must be positive and finite"),
    (["penrose", "--f", "1/(mu0*mu1)", "--pole=-w/y", "--tol", "nan"],
     "--tol must be positive and finite"),
    (["curvature-report", "--background", "sparling-tod", "--tol", "inf"],
     "--tol must be positive and finite"),
    (["recursion-chain", "--background", "bogus", "--n", "2"], "invalid choice: 'bogus'"),
    (["hierarchy-check"], "required: --n"),
    (["verify-solution", "--background", "sparling-tod", "--f", "zz^"],
     "--f sets a metric entry's profile; 'sparling-tod' is a potential-second entry"),
    (["curvature-report", "--background", "sparling-tod", "--f", "q"],
     "--f sets a metric entry's profile; 'sparling-tod' is a potential-second entry"),
    (["verify-solution", "--background", "flat-second", "--sigma", "1/2"],
     "--sigma sets the sigma parameter; 'flat-second' has none"),
    (["verify-solution", "--background", "plane-wave", "--sigma", "1/2"],
     "--sigma sets the sigma parameter; 'plane-wave' has none"),
    (["curvature-report", "--background", "plane-wave", "--sigma", "1/2"],
     "--sigma sets the sigma parameter; 'plane-wave' has none"),
    (["curvature-report", "--background", "phi2-eguchi-hanson", "--sigma", "abc"],
     "--sigma sets the sigma parameter; 'phi2-eguchi-hanson' has none"),
    (["recursion-chain", "--background", "flat", "--n", "2", "--sigma", "5"],
     "--sigma sets the sigma parameter; 'flat' has none"),
    (["twistor-series", "--background", "flat", "--order", "2", "--sigma", "5"],
     "--sigma sets the sigma parameter; 'flat' has none"),
    # values too large for a float: a constant met while evaluating, --sigma, and
    # a catalog parameter
    (["curvature-report", "--background", "plane-wave", "--f", "q^2/(q^400*7^400)",
      "--mode", "float", "--seed", "1"], "is too large for a float at the point"),
    (["recursion-chain", "--background", "st", "--n", "2", "--sigma", "1e400",
      "--mode", "float"], "error: --sigma is too large for --mode float"),
    (["verify-solution", "--background", "sparling-tod", "--sigma", "1e400",
      "--mode", "float"], "error: parameter 'sigma' is too large for --mode float"),
    # trees deeper than the recursion limit: compiling one recurses once per level
    (["penrose", "--f", "1/(mu0*mu1)" + "+lam" * 1200, "--pole=-w/y"],
     "error: --f is nested too deeply to evaluate"),
    (["curvature-report", "--background", "plane-wave", "--f", "q" + "+q" * 1200],
     "error: --f is nested too deeply to evaluate"),
    (["penrose", "--f", "1/(mu0*mu1)", "--pole=-w/y" + "+w-w" * 700],
     "error: --pole is nested too deeply to evaluate"),
    # integers past Python's 4300-digit limit for integer text: in a report, and in
    # --sigma, whose echo is shortened
    (["curvature-report", "--background", "plane-wave", "--f", "q^99999"],
     "error: a value of the report has more than 4300 digits"),
    (["verify-solution", "--background", "plane-wave", "--f", "q^99999"],
     "error: a value of the report has more than 4300 digits"),
    (["recursion-chain", "--background", "st", "--n", "2", "--sigma", "7" * 5000],
     "error: --sigma must be a rational with at most 4300 digits in each number (Python's "
     "limit for integer text), got '777777777777...7777777777777'"),
    # a penrose --f past the lam-degree budget, in a numerator or a denominator
    (["penrose", "--f", "lam^99999/(mu0*mu1)", "--pole=-w/y"],
     "error: --f forms lam-degree 99999 on the flat curve, above the budget of 200"),
    (["penrose", "--f", "1/(mu0^200*mu1)", "--pole=-w/y"],
     "error: --f forms lam-degree 201 on the flat curve, above the budget of 200"),
    # a float profile whose table holds an inf: the curvature core keeps every term
    # there, and the residual that turns nan first is named (leaving out the products
    # by a zero the metric always has there, this point passed)
    (["curvature-report", "--background", "plane-wave", "--f", "(7*q)^400*z", "--mode",
      "float", "--seed", "5"], "error: sd_weyl_max_abs = nan at point w=0.6666666666666666,"
     " z=1.3333333333333333, q=0.8333333333333334, p=1.0 is not finite in float mode"),
]


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

    def test_a_declared_pole_that_is_no_pole_is_two(self, capsys):
        code, out = run(["penrose", "--f", "1/(lam-1)", "--pole=-w/y", "--points", "2"])
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert err == ("error: --pole -w/y is not a pole of --f 1/(lam-1) at point w=-1, z=6/7, "
                       "x=5, y=-3: f's denominator is -4/3 at lam = -1/3, not 0\n")
        # a pole that cancels is still a pole: the transform is 0 there
        code, out = run(["penrose", "--f", "mu0/(mu0*mu1)", "--pole=-w/y", "--points", "2"])
        assert code == 0
        assert [r["value"] for r in json.loads(out)["records"]] == ["0", "0"]

    def test_penrose_runs_up_to_its_lam_degree_budget(self):
        code, out = run(["penrose", "--f", "lam^200/(mu0*mu1)", "--pole=-w/y", "--points", "1"])
        assert code == 0 and json.loads(out)["verdict"] == "pass"

    def test_penrose_of_a_sum(self):
        # no golden or pool job adds two rational functions of lam: the residue of
        # (lam+1)/(mu0 mu1) at -w/y is (y-w)/(y(wx+zy))
        code, out = run(["penrose", "--f", "(lam+1)/(mu0*mu1)", "--pole=-w/y", "--points", "3"])
        assert code == 0
        records = json.loads(out)["records"]
        assert len(records) == 3
        for r in records:
            w, z, x, y = map(Fraction, r["point"]["values"])
            assert Fraction(r["value"]) == (y - w) / (y * (w * x + z * y))

    @pytest.mark.parametrize("f", ["1/(lam-lam)", "(lam-lam)^(-1)", "1/(mu0-mu0)"])
    def test_identically_zero_denominator_is_two(self, f, capsys):
        code, out = run(["penrose", "--f", f, "--pole=-w/y"])
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["penrose", "--f", "1/(lam*mu0)", "--pole=-w/y", "--points", "1"],
        ["symplectic-check", "--pairs", "1", "--degree", "2"],
    ])
    def test_exact_only_suites_reject_float(self, argv, capsys):
        code, out = run(argv + ["--mode", "float"])
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        code, out = run(argv)
        assert code == 0
        assert json.loads(out)["config"]["mode"] == "exact"

    @pytest.mark.parametrize("cmd", ["verify-solution", "curvature-report"])
    def test_profile_singular_everywhere_is_two(self, cmd, capsys):
        code, out = run([cmd, "--background", "plane-wave", "--f", "1/(q-q)"])
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "profile '1/(q-q)' has a pole at every sampled point" in err

    @pytest.mark.parametrize("sigma", ["1/0", "abc"])
    def test_bad_sigma_is_two(self, sigma, capsys):
        for cmd in (["curvature-report", "--background", "sparling-tod"],
                    ["recursion-chain", "--background", "st", "--n", "2"],
                    ["twistor-series", "--background", "st", "--order", "2"]):
            code, _ = run(cmd + ["--sigma", sigma, "--points", "1"])
            assert code == 2, cmd
            assert capsys.readouterr().err.startswith("error: --sigma")

    @pytest.mark.parametrize("argv,message", BAD_INPUT)
    def test_bad_input_is_one_error_line(self, argv, message, capsys):
        code, out = run(argv + ["--points", "1"])
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("argv,message", BAD_INPUT)
    def test_bad_input_repeats_byte_for_byte(self, argv, message, monkeypatch, capsys):
        # from a fresh process's caches: a run that fails keeps nothing (no field
        # whose parse failed) that would make the same run fail otherwise
        fresh_caches(monkeypatch)
        outputs = []
        for _ in range(2):
            code, out = run(argv + ["--points", "1"])
            outputs.append((code, out, capsys.readouterr().err))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 2 and message in outputs[0][2]

    def test_nan_residuals_are_two(self, capsys):
        # (7q)^400 overflows the float jets to inf, so every curvature residual is nan,
        # which no comparison with the running maximum could catch
        code, out = run(["curvature-report", "--background", "plane-wave", "--f", "(7*q)^400*z",
                         "--mode", "float", "--points", "3", "--seed", "2"])
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ricci_max_abs = nan at point w=") and err.count("\n") == 1
        assert err.endswith(" is not finite in float mode\n")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_residual_is_two(self, bad, monkeypatch, capsys):
        from heavenly import hierarchy
        real = hierarchy.summed_lax_from_jet
        monkeypatch.setattr(hierarchy, "summed_lax_from_jet",
                            lambda fields: {**real(fields), ("Sato A=1 j=2^x11", 1): bad})
        code, out = run(["hierarchy-check", "--n", "2", "--points", "2", "--mode", "float"])
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith(f"error: Sato A=1 j=2^x11 at lam^1 = {bad} at point x00=")
        assert err.count("\n") == 1

    def test_float_duality_beyond_tol_is_two(self, monkeypatch, capsys):
        # the metric table and the frame come from one jet of Theta, so a second-form
        # frame is dual to its metric to the last bit; a frame component one ulp
        # off stands for a float frame that misses its metric
        real = FieldGeometry.at

        def one_ulp_off(self, p, params=None):
            table, ginv, (frame, den) = real(self, p, params)
            w, z, x, y = frame[(0, 0)]
            return table, ginv, ({**frame, (0, 0): (w, z, math.nextafter(x, math.inf), y)}, den)
        monkeypatch.setattr(FieldGeometry, "at", one_ulp_off)
        code, out = run(["curvature-report", "--background", "sparling-tod", "--points", "1",
                         "--mode", "float", "--tol", "1e-300"])
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: tetrad duality residual ") and "exceeds tol 1e-300" in err

    def test_exact_non_dual_tetrad_is_a_bug(self, monkeypatch):
        # a metric that does not belong to the frame is a program fault, not bad input
        other = plane_wave_geometry(ScalarField.parse("q^3", "plane-wave"))
        real = FieldGeometry.at
        monkeypatch.setattr(FieldGeometry, "at", lambda self, p, params=None: (
            *real(other, p, params)[:2], real(self, p, params)[2]))
        with pytest.raises(ValueError, match="not dual"):
            main(["curvature-report", "--background", "plane-wave", "--points", "1"])

    def test_failing_verdict_names_the_worst_residual(self, capsys):
        code, out = run(["verify-solution", "--background", "poly-witness", "--points", "3",
                         "--seed", "3"])
        assert code == 1
        rep = json.loads(out)
        worst = max(rep["records"], key=lambda r: abs(Fraction(r["residual"])))
        assert Fraction(rep["max_abs_residual"]) == abs(Fraction(worst["residual"]))
        values = ", ".join(f"{c}={v}" for c, v in zip("wzxy", worst["point"]["values"]))
        assert capsys.readouterr().err == (
            f"verdict failed: residual = {worst['residual']} at point {values}\n")

    def test_first_of_tied_residuals_is_named(self, monkeypatch, capsys):
        from heavenly import hierarchy
        real = hierarchy.lax_compat_from_jet

        def off_twice(fields, pairs):
            res = real(fields, pairs)
            res[("mixed (00, 10)^x00",)] = Fraction(-2)   # pair 0
            res[("[delta_00, delta_11]^x00",)] = Fraction(2)   # pair 1
            return res
        monkeypatch.setattr(hierarchy, "lax_compat_from_jet", off_twice)
        code, _ = run(["hierarchy-check", "--n", "2", "--points", "2"])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "verdict failed: mixed (00, 10)^x00 = -2 at point x00=")

    def test_a_job_cannot_change_the_next_ones_params(self, monkeypatch):
        # every job reads the process's one entry: it gets its params as its own copy
        from heavenly import cli
        argv = ["verify-solution", "--background", "sparling-tod", "--points", "1"]
        before, real = run(argv), cli._params

        def mutating(entry, args):
            params = real(entry, args)
            params["sigma"] = Fraction(7)   # the job's own copy
            with pytest.raises(TypeError):
                entry.params["sigma"] = Fraction(7)   # the shared entry's, read-only
            return params
        monkeypatch.setattr(cli, "_params", mutating)
        changed = run(argv)
        monkeypatch.undo()
        assert changed != before
        assert run(argv) == before

    def test_monomial_check_reaches_the_verdict(self, monkeypatch, capsys):
        from heavenly import recursion
        # the monomial pairs and the chain program are kept for the process: start from
        # empty caches, so the mutant builds them, and drop what it built afterwards
        fresh_caches(monkeypatch)
        real = recursion.monomial_recursion_image
        monkeypatch.setattr(recursion, "monomial_recursion_image",
                            lambda k, j: real(k, j - 1))  # the image of the wrong monomial
        code, out = run(["recursion-chain", "--background", "st", "--n", "2", "--points", "1"])
        assert code == 1
        assert json.loads(out)["verdict"] == "fail"
        err = capsys.readouterr().err
        assert err.startswith("verdict failed: monomial k=") and err.count("\n") == 1
        assert "at chain member n=1" in err


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


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_reused_parser_leaks_nothing_between_calls(self, capsys):
        # each argv in one process, through the one parser, against the same
        # argv alone in a fresh interpreter: stdout bytes, exit code and stderr
        good = ["curvature-report", "--background", "sparling-tod", "--points", "1"]
        sequence = [(good, 0),
                    (["curvature-report", "--points", "1"], 2),   # usage: no --background
                    (["curvature-report", "--background", "no-such-entry", "--points", "1"], 2),
                    (["hierarchy-check", "--n", "2"], 0),
                    (good, 0)]
        for argv, expect in sequence:
            code, out = run(argv)
            err = capsys.readouterr().err
            alone = subprocess.run([sys.executable, "-m", "heavenly.cli", *argv],
                                   capture_output=True, text=True, timeout=120,
                                   env={**os.environ, "PYTHONPATH": str(SRC)})
            assert (code, out.encode(), err) == (alone.returncode, alone.stdout.encode(),
                                                 alone.stderr)
            assert code == expect
            if code == 2:
                assert out == "" and err.startswith("error: ") and err.count("\n") == 1


# name, argv, exit code; the poly-witness report is a failing verdict
_GOLDENS = [
    ("verify-solution-sparling-tod.json",
     ["verify-solution", "--background", "sparling-tod", "--sigma", "1",
      "--points", "5", "--seed", "3"], 0),
    ("curvature-plane-wave.json",
     ["curvature-report", "--background", "plane-wave", "--f", "q^2",
      "--points", "3", "--seed", "3"], 0),
    ("recursion-chain-st.json",
     ["recursion-chain", "--background", "st", "--n", "3", "--sigma", "1/2",
      "--points", "3", "--seed", "3"], 0),
    ("penrose-phi0.json",
     ["penrose", "--f", "1/(mu0*mu1)", "--pole=-w/y", "--points", "3", "--seed", "3"], 0),
    ("recursion-chain-flat.json",
     ["recursion-chain", "--background", "flat", "--n", "4", "--points", "3", "--seed", "3"], 0),
    ("recursion-chain-st-float.json",
     ["recursion-chain", "--background", "st", "--n", "4", "--sigma", "1/2",
      "--points", "3", "--mode", "float", "--seed", "3"], 0),
    ("twistor-series-flat.json",
     ["twistor-series", "--background", "flat", "--order", "4", "--points", "3",
      "--seed", "3"], 0),
    ("twistor-series-st.json",
     ["twistor-series", "--background", "st", "--order", "3", "--sigma", "1/2",
      "--points", "3", "--seed", "3"], 0),
    ("hierarchy-check-n2.json", ["hierarchy-check", "--n", "2", "--seed", "3"], 0),
    ("symplectic-check.json",
     ["symplectic-check", "--degree", "4", "--pairs", "3", "--seed", "3"], 0),
    ("verify-solution-poly-witness.json",
     ["verify-solution", "--background", "poly-witness", "--points", "3", "--seed", "3"], 1),
    ("hierarchy-check-n3.json", ["hierarchy-check", "--n", "3", "--seed", "14"], 0),
    ("hierarchy-check-n4.json",
     ["hierarchy-check", "--n", "4", "--points", "1", "--seed", "9"], 0),
    ("twistor-series-st-float.json",
     ["twistor-series", "--background", "st", "--order", "10", "--points", "3",
      "--mode", "float", "--seed", "23"], 0),
    # signed per-order float residuals: pins the sign of each zero
    ("twistor-series-st-float-seed1.json",
     ["twistor-series", "--background", "st", "--order", "10", "--points", "3",
      "--mode", "float", "--seed", "1"], 0),
    ("curvature-phi2-eguchi-hanson.json",
     ["curvature-report", "--background", "phi2-eguchi-hanson", "--points", "3", "--seed", "3"],
     0),
    ("curvature-flat-first.json",
     ["curvature-report", "--background", "flat-first", "--points", "3", "--seed", "3"], 0),
]


class TestGolden:
    @pytest.mark.parametrize("name,argv,code", _GOLDENS,
                             ids=[f"{g[0]}-argv{i}" for i, g in enumerate(_GOLDENS)])
    def test_matches_golden_bytes(self, name, argv, code):
        got, out = run(argv)
        assert got == code
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

    @pytest.mark.parametrize("cmd", ["verify-solution", "curvature-report"])
    def test_profile_poles_are_not_sampled(self, cmd):
        # seed 1 draws q = 0 among its first ten points; those are skipped
        code, out = run([cmd, "--background", "plane-wave", "--f", "1/q"])
        assert code == 0
        records = json.loads(out)["records"]
        assert len(records) == 10
        assert all(r["point"]["values"][2] != "0" for r in records)

    def test_curvature_report_builds_the_tetrad_once(self, monkeypatch):
        # the frame's route (the profile's geometry) is built once per run; what
        # each point then folds is bounded by TestCurvatureJetWork
        from heavenly import catalog
        real = catalog.plane_wave_geometry
        calls = []
        monkeypatch.setattr(catalog, "plane_wave_geometry", lambda f: calls.append(f) or real(f))
        code, _ = run(["curvature-report", "--background", "plane-wave", "--f", "q^2",
                       "--points", "2"])
        assert code == 0
        assert len(calls) == 1

    def test_hierarchy_records_each_points_own_residual(self, monkeypatch):
        from fractions import Fraction

        from heavenly import hierarchy
        real = hierarchy.lax_compat_from_jet
        seen = []

        def first_point_off(fields, pairs):
            res = real(fields, pairs)
            if not seen:
                res[("[delta_00, delta_10]^x00",)] = Fraction(3)
            seen.append(fields)
            return res

        monkeypatch.setattr(hierarchy, "lax_compat_from_jet", first_point_off)
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

    @pytest.mark.parametrize("mode,zero", [("exact", "0"), ("float", 0.0)])
    def test_twistor_orders_print_the_modes_zero(self, mode, zero):
        # every flat coefficient past lam^1 is the zero field; its orders are still numbers
        code, out = run(["twistor-series", "--background", "flat", "--order", "4",
                         "--points", "1", "--mode", mode])
        assert code == 0
        orders = json.loads(out)["records"][0]["interior_orders"]
        values = [v for per_order in orders.values() for v in per_order.values()]
        assert len(values) == 16
        assert all(type(v) is type(zero) and v == zero for v in values)


def _per_call_chain(background, n, sigma, seed, points, mode):
    """Wave and link maxima of the chain by one wave_residual and one
    lax_step_residual call per point, members keyed by their index n, and the
    monomial check's residuals by one lax_step_residual call (order-1 jets of
    its two fields) per pair and point."""
    exclusions = ["q_nonzero", "w_nonzero"] + (["q_unit_scale"] if mode == "float" else [])
    pts = sample_points("second", seed, points, exclusions)
    if mode == "float":
        pts, sigma = float_points(pts), float(sigma)
    if background == "flat":
        theta, params = SecondPotential(ScalarField.constant(0, "second")), None
        members = {k: flat_phi(k) for k in range(n + 1)}
    else:
        theta, params = st_potential(), {"sigma": sigma}
        members = {k: st_psi(k) for k in range(1, n + 1)}
    wave = {k: max(abs(wave_residual(theta, m, p, params)) for p in pts)
            for k, m in members.items()}
    link = {k: max(abs(r) for p in pts
                   for r in lax_step_residual(theta, members[k], members[k + 1], p, params))
            for k in members if k + 1 in members}
    pairs = monomial_action_pairs().values() if background == "st" and n >= 2 else ()
    monomial = [max(map(abs, lax_step_residual(theta, f, r_f, p, params)))
                for f, r_f in pairs for p in pts]
    return wave, link, monomial


class TestRecursionChainSharedJets:
    @settings(max_examples=30, deadline=None)
    @given(background=st.sampled_from(["flat", "st"]), mode=st.sampled_from(["exact", "float"]),
           n=st.integers(1, 6), seed=st.integers(0, 500), points=st.integers(1, 3),
           sigma=st.fractions(-3, 3, max_denominator=4))
    def test_matches_per_call_route(self, background, mode, n, seed, points, sigma):
        argv = ["recursion-chain", "--background", background, "--n", str(n),
                "--seed", str(seed), "--points", str(points), "--mode", mode]
        if background == "st":
            argv.append(f"--sigma={sigma}")
        code, out = run(argv)
        assert code in (0, 1)
        report = json.loads(out)
        records = {r["n"]: r for r in report["records"]}
        wave, link, monomial = _per_call_chain(background, n, sigma if background == "st" else 1,
                                               seed, points, mode)
        # flat reports link (n-1, n) on member n, st reports step (n, n+1) on member n
        if background == "flat":
            want = {(k + 1, "link_max_abs"): v for k, v in link.items()}
        else:
            want = {(k, "step_max_abs"): v for k, v in link.items()}
        want.update({(k, "wave_max_abs"): v for k, v in wave.items()})
        got = {(k, field): value for k, r in records.items()
               for field, value in r.items() if field.endswith("_max_abs")}
        assert got.keys() == want.keys()
        for key, value in want.items():
            if mode == "exact":
                # every member solves the wave equation and every link holds exactly
                assert Fraction(got[key]) == value == 0, key
            else:
                assert got[key].hex() == value.hex(), key
        # the monomial pairs, folded with the chain at order 2, give the bits of
        # their own order-1 folds
        worst = max([*wave.values(), *link.values(), *monomial])
        if mode == "exact":
            assert Fraction(report["max_abs_residual"]) == worst == 0
        else:
            assert report["max_abs_residual"].hex() == worst.hex()

    def test_st_chain_evaluates_each_jet_once_per_point(self, monkeypatch):
        work = JetWork(monkeypatch)
        code, _ = run(["recursion-chain", "--background", "st", "--n", "10", "--sigma", "1/2",
                       "--points", "1"])
        assert code == 0
        # the potential, the ten members and the four monomial-check fields, all
        # in one fold (a field equal to a member's tree is folded once)
        assert work.fold_count <= 1 + 10 + 4
        assert work.most_folds_of_one_tree == 1
        # the members share their powers of -y/w and of 1/(wx+zy), and each jet
        # keeps its reciprocal and squarings: folded one at a time they took 440
        # products and 66 inversions, with the memo alone 178 and 17
        assert work.products <= 91
        assert work.inversions <= 2

    def test_flat_chain_evaluates_each_jet_once_per_point(self, monkeypatch):
        work = JetWork(monkeypatch)
        code, _ = run(["recursion-chain", "--background", "flat", "--n", "6", "--points", "1"])
        assert code == 0
        assert work.fold_count <= 1 + 7
        assert work.most_folds_of_one_tree == 1
        # 48 products and 13 inversions with each member folded on its own, 31 and 8
        # with the memo alone
        assert work.products <= 15
        assert work.inversions <= 2


class TestCompiledOncePerJob:
    @pytest.mark.parametrize("argv, points, compiles", [
        # one program for the potential, the members and the monomial-check fields
        (["recursion-chain", "--background", "st", "--n", "10", "--sigma", "1/2"], 3, 1),
        (["recursion-chain", "--background", "flat", "--n", "6"], 3, 1),
        # the potential's program, kept on its field, and the curve's, kept on the curve
        (["twistor-series", "--background", "st", "--order", "10"], 3, 2),
    ])
    def test_a_job_compiles_its_trees_once(self, argv, points, compiles, monkeypatch):
        work = JetWork(monkeypatch)
        code, _ = run([*argv, "--points", str(points)])
        assert code == 0
        # compiled once for the job and run at each point, never compiled per point
        assert work.compiles == compiles
        assert work.points == points
        assert work.most_folds_of_one_tree == 1

    @pytest.mark.parametrize("argv, compiles", [
        # the profile the geometry parsed also gives the sampler its pole predicate
        (["curvature-report", "--background", "plane-wave", "--f", "q^3", "--points", "2"], 1),
        (["verify-solution", "--background", "plane-wave"], 1),
        # penrose's --f and --pole, each compiled once whatever the number of points
        (["penrose", "--f", "1/(mu0*mu1*lam^2)", "--pole=-w/y", "--points", "1"], 2),
        (["penrose", "--f", "1/(mu0*mu1*lam^2)", "--pole=-w/y", "--points", "5"], 2),
    ])
    def test_an_option_is_compiled_once(self, argv, compiles, monkeypatch):
        work = JetWork(monkeypatch)
        code, _ = run(argv)
        assert code == 0
        assert work.compiles == compiles

    @pytest.mark.parametrize("argv", [
        "recursion-chain --background st --n 10 --sigma 1/2 --points 3",
        "recursion-chain --background flat --n 6 --points 3",
        "twistor-series --background st --order 10 --points 3",
        "curvature-report --background plane-wave --f q^3 --points 2",
        "verify-solution --background plane-wave",
        "penrose --f 1/(mu0*mu1*lam^2) --pole=-w/y --points 1",
        "penrose --f 1/(mu0*mu1*lam^2) --pole=-w/y --points 5",
    ])
    def test_a_second_job_compiles_nothing(self, argv, monkeypatch, capsys):
        work = JetWork(monkeypatch)
        _rerun_builds_nothing(work, argv.split(), capsys)


def _rerun_builds_nothing(work, argv, capsys):
    """Run ``argv`` twice in one process: the second run prints the first one's bytes, and
    compiles no program and builds nothing kept (no catalog or field parse)."""
    first = run(argv), capsys.readouterr().err
    compiles, builds = work.compiles, +work.builds
    assert ("heavenly.catalog._entries" in builds) == (argv[0] in ("verify-solution",
                                                                   "curvature-report"))
    assert (run(argv), capsys.readouterr().err) == first
    assert (work.compiles, +work.builds) == (compiles, builds)


class TestPinnedJetWork:
    """The jet products and inversions of four chain-workload jobs, fixed.

    However a job builds its program, from trees or straight from the
    coefficient tables, it runs the same ring operations on the same jets, so
    these counts do not move.  The float n=12 chain exits 1 (ROADMAP item 1's
    absolute-tolerance defect) after the same work.
    """

    @pytest.mark.parametrize("argv, code, products, inversions", [
        ("recursion-chain --background st --n 10 --sigma 1/2 --points 3 --seed 24", 0, 273, 6),
        ("recursion-chain --background st --n 12 --points 2 --mode float --seed 17", 1, 256, 4),
        ("twistor-series --background st --order 10 --points 3 --seed 3", 0, 441, 12),
        ("twistor-series --background st --order 8 --sigma 2/3 --points 3 --mode float --seed 3",
         0, 288, 12),
    ])
    def test_products_and_inversions(self, argv, code, products, inversions, monkeypatch):
        work = JetWork(monkeypatch)
        assert run(argv.split())[0] == code
        assert (work.products, work.inversions) == (products, inversions)

    def test_one_program_run_at_each_point(self, monkeypatch):
        work = JetWork(monkeypatch)
        run("recursion-chain --background st --n 10 --sigma 1/2 --points 3 --seed 24".split())
        assert work.compiles == 1
        assert work.program_runs == 3

    def test_a_second_job_runs_the_kept_program(self, monkeypatch, capsys):
        work = JetWork(monkeypatch)
        argv = "recursion-chain --background st --n 10 --sigma 1/2 --points 3 --seed 24".split()
        _rerun_builds_nothing(work, argv, capsys)
        assert (work.compiles, work.program_runs) == (1, 6)

    def test_kernels_compiled_once_per_small_layout(self, monkeypatch):
        work = JetWork(monkeypatch)
        run("recursion-chain --background st --n 10 --sigma 1/2 --points 3 --seed 24".split())
        # the chain's products are on the 4-variable layouts of order 2, and of order 1 by a
        # constant only (a scaling, no kernel); each kernel is compiled once
        assert work.kernels == [(4, 2)]


class TestHierarchyCheckSharedJets:
    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_one_point_reads_jets_of_the_potential(self, n, monkeypatch):
        work = JetWork(monkeypatch)
        code, _ = run(["hierarchy-check", "--n", str(n), "--points", "1"])
        assert code == 0
        # the potential's order-3 jet, read by the compatibility and the Sato checks,
        # is the one fold; no test fields, no derivative trees
        assert work.fold_count == 1
        assert work.most_folds_of_one_tree == 1
        # the potential is a polynomial: no inversions.  With the order-1 jets of 2n
        # test fields in a second fold they took 16, 36 and 45 products; with a second,
        # order-2 fold of the potential and one fold per test field, 32, 52 and 68
        assert work.products <= 12
        assert work.inversions == 0


class TestHierarchyCheckMutations:
    """A wrong flow field fails hierarchy-check: both identities have teeth.

    D's x00 component is -Theta_{Ai,10}, so its sign shows only where the seed's
    potential gives it weight: at --n 2 and one point, seed 11 does, in both
    checks (seed 1 in neither, seed 4 in the Sato check only).
    """

    ARGV = ["hierarchy-check", "--n", "2", "--points", "1", "--seed", "11"]

    def test_wrong_sign_in_the_x00_component_of_D(self, monkeypatch, capsys):
        real = FlowFields.D

        def flipped(self, A, i):
            V = real(self, A, i)
            x00 = self.axes["x00"]
            return {**V, x00: [-x for x in V[x00]]}
        monkeypatch.setattr(FlowFields, "D", flipped)
        code, out = run(self.ARGV)
        assert code == 1
        assert json.loads(out)["verdict"] == "fail"
        assert capsys.readouterr().err.startswith("verdict failed: Sato A=")
        # the compatibility check alone catches it too
        from heavenly import hierarchy
        monkeypatch.setattr(hierarchy, "summed_lax_from_jet", lambda fields: {})
        code, _ = run(self.ARGV)
        assert code == 1
        assert capsys.readouterr().err.startswith("verdict failed: [D_0")

    def test_omega_without_its_eps_lowering(self, monkeypatch, capsys):
        real = FlowFields.omega

        def unlowered(self, A, j):
            # omega^A_j = eps^{AB} omega_{Bj} in place of omega_{Aj}
            sign = EPS[A, 1 - A]
            return [{a: [sign * x for x in comp] for a, comp in X.items()}
                    for X in real(self, 1 - A, j)]
        monkeypatch.setattr(FlowFields, "omega", unlowered)
        code, out = run(self.ARGV)
        assert code == 1
        assert json.loads(out)["verdict"] == "fail"
        assert capsys.readouterr().err.startswith("verdict failed: Sato A=")


class TestCurvatureJetWork:
    # background -> (products, inversions) of one point.  The geometry gives the
    # metric's inverse in closed form, so what is left is the potential's fold
    # (and, on the first form, det H, its reciprocal and the four products s H).
    # Folding the metric trees of the symbolic tetrad, the same points took 113/5,
    # 128/7, 51/4 and 32/4, with 66, 111, 0 and 32 diff calls; on the jet route
    # with the Gauss-Jordan inverse, 51/5, 53/6, 17/4 and 16/5 (99/5, 101/6, 49/4
    # and 40/5 with every product by a zero jet taken)
    BOUNDS = {"sparling-tod": (3, 1), "phi2-eguchi-hanson": (5, 2), "plane-wave": (1, 0),
              "flat-first": (8, 1)}
    # background -> the curvature core's multiplications at one point: its two kernels,
    # compiled once for the geometry kind's sparsity.  Summed over every table row and
    # every term, the loops took 1333 on each kind (548 of them in the block); the
    # kernels took 427, 427, 220 and 563 while they kept the sums that nothing reads
    CORE_PRODUCTS = {"sparling-tod": 410, "phi2-eguchi-hanson": 410, "plane-wave": 202,
                     "flat-first": 543}

    @pytest.mark.parametrize("background", sorted(BOUNDS))
    def test_one_point_folds_only_the_primary_field(self, background, monkeypatch):
        from heavenly.catalog import load_catalog
        entry = load_catalog()[background]
        work = JetWork(monkeypatch)
        code, _ = run(["curvature-report", "--background", background, "--points", "1"])
        assert code == 0
        # one jet of the potential (order 4) or the profile (order 2) holds every
        # metric jet and frame value; no derivative tree is built
        assert {text for _, text in work.folds} == {str(entry.geometry().field)}
        assert work.fold_count == 1
        products, inversions = self.BOUNDS[background]
        assert work.products <= products
        assert work.inversions <= inversions

    @pytest.mark.parametrize("background", sorted(CORE_PRODUCTS))
    def test_core_multiplies_only_what_the_sparsity_leaves(self, background, monkeypatch):
        from heavenly.catalog import load_catalog
        work = JetWork(monkeypatch)
        code, _ = run(["curvature-report", "--background", background, "--points", "3"])
        assert code == 0
        # the kind's block and spinor kernels, compiled from one source at the first point
        assert [key[0] for key in work.core_kernels] == [load_catalog()[background].geometry(
            ).sparsity]
        assert work.core_products == 3 * self.CORE_PRODUCTS[background]

    @pytest.mark.parametrize("background, d_jets", [
        ("sparling-tod", 0), ("phi2-eguchi-hanson", 0), ("plane-wave", 0), ("flat-first", 4)])
    def test_the_table_is_read_by_name(self, background, d_jets, monkeypatch):
        # a second-form or plane-wave table row is a read-out of the primary field's
        # jet, so no jet of a derivative is formed; the first form forms its four
        # Omega_{w^A wt^B} jets, for det H and s H
        from heavenly.jetcore import Jet
        real, calls = Jet.d_jet, []
        monkeypatch.setattr(Jet, "d_jet", lambda jet, *names: calls.append(names)
                            or real(jet, *names))
        code, _ = run(["curvature-report", "--background", background, "--points", "1"])
        assert code == 0
        assert len(calls) == d_jets

    @pytest.mark.parametrize("background", sorted(BOUNDS))
    def test_no_elimination_on_the_cli_route(self, background, monkeypatch):
        # the curvature core is handed the very inverse the geometry read in closed
        # form at each point: nothing inverts the metric between them
        from heavenly import curvature
        handed, used = [], []
        at, core = FieldGeometry.at, curvature.spinors_at
        monkeypatch.setattr(FieldGeometry, "at",
                            lambda *args: handed.append(at(*args)) or handed[-1])
        monkeypatch.setattr(curvature, "spinors_at",
                            lambda p, table, ginv, *rest: used.append(ginv)
                            or core(p, table, ginv, *rest))
        code, _ = run(["curvature-report", "--background", background, "--points", "2"])
        assert code == 0
        assert len(used) == len(handed) == 2
        assert all(ginv is inputs[1] for ginv, inputs in zip(used, handed))


def _leaves(node, key=None):
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _leaves(v, k)
    elif isinstance(node, list):
        for v in node:
            yield from _leaves(v, key)
    else:
        yield key, node


# record fields that are labels, not numbers of the point's mode
_LABELS = {"chart", "expression", "n", "pair", "pass"}

_EVERY_SUBCOMMAND = [
    ["verify-solution", "--background", "sparling-tod", "--points", "2"],
    ["verify-solution", "--background", "flat-first", "--points", "2"],
    ["verify-solution", "--background", "plane-wave", "--f", "q^3", "--points", "2"],
    ["curvature-report", "--background", "phi2-eguchi-hanson", "--points", "1"],
    ["curvature-report", "--background", "flat-second", "--points", "1"],
    ["recursion-chain", "--background", "st", "--n", "3", "--points", "2"],
    ["recursion-chain", "--background", "flat", "--n", "3", "--points", "2"],
    ["twistor-series", "--background", "st", "--order", "3", "--points", "2"],
    ["twistor-series", "--background", "flat", "--order", "4", "--points", "1"],
    ["hierarchy-check", "--n", "2", "--points", "1"],
]
_EXACT_ONLY = [
    ["penrose", "--f", "1/(mu0*mu1)", "--pole=-w/y", "--points", "2"],
    ["symplectic-check", "--degree", "2", "--pairs", "2"],
]


class TestReportTypes:
    @pytest.mark.parametrize("argv,mode", [(a, "exact") for a in _EVERY_SUBCOMMAND + _EXACT_ONLY]
                             + [(a, "float") for a in _EVERY_SUBCOMMAND])
    def test_residual_leaves_follow_the_mode(self, argv, mode):
        code, out = run(argv + ["--mode", mode])
        assert code in (0, 1)
        rep = json.loads(out)
        leaves = [(k, v) for k, v in _leaves({"records": rep["records"],
                                              "max_abs_residual": rep["max_abs_residual"]})
                  if k not in _LABELS]
        assert leaves
        kind = str if mode == "exact" else float
        assert [(k, v) for k, v in leaves if type(v) is not kind] == []


def _options(required=(), **pools):
    """Each named option drawn from its pool; one not required may be left out."""
    return st.tuples(*[(st.sampled_from(values) if name in required
                        else st.one_of(st.none(), st.sampled_from(values))).map(
        lambda v, name=name: [] if v is None else [f"--{name}={v}"])
        for name, values in pools.items()]).map(lambda parts: sum(parts, []))


_CATALOG = ["sparling-tod", "flat-first", "flat-second", "plane-wave", "poly-witness",
            "no-such-entry"]
_PROFILES = ["q^2", "q*z", "1/q", "q^", "w", "foo", "sigma*q"]
_SIGMAS = ["1", "1/2", "-2/3", "0", "1/0", "abc"]
_SUBCOMMAND_ARGV = st.one_of(
    st.tuples(st.sampled_from(["verify-solution", "curvature-report"]),
              _options(["background"], background=_CATALOG, f=_PROFILES, sigma=_SIGMAS)),
    st.tuples(st.just("recursion-chain"),
              _options(["background", "n"], background=["flat", "st", "bogus"],
                       n=["-1", "0", "1", "3"], sigma=_SIGMAS)),
    st.tuples(st.just("twistor-series"),
              _options(["background", "order"], background=["flat", "st", "bogus"],
                       order=["-1", "0", "1", "3"], sigma=_SIGMAS)),
    st.tuples(st.just("penrose"),
              _options(["f", "pole"],
                       f=["1/(mu0*mu1)", "1/(lam*mu0)", "1/((mu0", "foo", "1/(lam-lam)"],
                       pole=["-w/y", "w", "foo", "1/0"])),
    st.tuples(st.just("hierarchy-check"), _options(["n"], n=["-1", "0", "1", "2", "10"])),
    st.tuples(st.just("symplectic-check"),
              _options(degree=["-2", "-1", "0", "2"], pairs=["-1", "0", "1", "2"])),
).map(lambda t: [t[0], *t[1]])


class TestExitCodeContract:
    @settings(max_examples=60, deadline=None)
    @given(argv=_SUBCOMMAND_ARGV,
           common=_options(mode=["exact", "float"], seed=["1", "5"], points=["-1", "0", "1", "2"],
                           tol=["1e-9", "1e-6", "1e-300", "0", "-1", "nan", "inf"]))
    def test_exit_code_contract(self, argv, common):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv + common)
        lines = err.getvalue().splitlines()
        assert code in (0, 1, 2)
        if code == 2:
            # bad input: no report, one error line
            assert out.getvalue() == ""
            assert len(lines) == 1 and lines[0].startswith("error: ")
        elif code == 1:
            assert json.loads(out.getvalue())["verdict"] == "fail"
            assert len(lines) == 1 and lines[0].startswith("verdict failed: ")
        else:
            assert json.loads(out.getvalue())["verdict"] == "pass"
            assert lines == []
