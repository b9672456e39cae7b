"""Command-line front end: dispatch, exit codes, determinism, golden reports."""

import io
import json
from fractions import Fraction
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from heavenly import jetcore
from heavenly.cli import main
from heavenly.jetcore import ScalarField
from heavenly.recursion import flat_phi, st_potential, st_psi, wave_residual
from heavenly.sampling import float_points, sample_points
from heavenly.tetrads import SecondPotential, lax_step_residual

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
        ("recursion-chain-flat.json",
         ["recursion-chain", "--background", "flat", "--n", "4", "--points", "3", "--seed", "3"]),
        ("recursion-chain-st-float.json",
         ["recursion-chain", "--background", "st", "--n", "4", "--sigma", "1/2",
          "--points", "3", "--mode", "float", "--seed", "3"]),
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

    @pytest.mark.parametrize("cmd", ["verify-solution", "curvature-report"])
    def test_profile_poles_are_not_sampled(self, cmd):
        # seed 1 draws q = 0 among its first ten points; those are skipped
        code, out = run([cmd, "--background", "plane-wave", "--f", "1/q"])
        assert code == 0
        records = json.loads(out)["records"]
        assert len(records) == 10
        assert all(r["point"]["values"][2] != "0" for r in records)

    def test_curvature_report_builds_the_tetrad_once(self, monkeypatch):
        from heavenly import catalog
        real = catalog.plane_wave_tetrad
        calls = []
        monkeypatch.setattr(catalog, "plane_wave_tetrad", lambda f: calls.append(f) or real(f))
        code, _ = run(["curvature-report", "--background", "plane-wave", "--f", "q^2",
                       "--points", "1"])
        assert code == 0
        assert len(calls) == 1

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
    lax_step_residual call per point, members keyed by their index n."""
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
    return wave, link


def _jet_of_calls(monkeypatch) -> list:
    calls = []
    original = jetcore.jet_of
    monkeypatch.setattr(jetcore, "jet_of", lambda *a, **k: calls.append(a) or original(*a, **k))
    return calls


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
        records = {r["n"]: r for r in json.loads(out)["records"]}
        wave, link = _per_call_chain(background, n, sigma if background == "st" else 1,
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

    def test_st_chain_evaluates_each_jet_once_per_point(self, monkeypatch):
        calls = _jet_of_calls(monkeypatch)
        code, _ = run(["recursion-chain", "--background", "st", "--n", "10", "--sigma", "1/2",
                       "--points", "1"])
        assert code == 0
        # the potential, the ten members and the once-per-run monomial check (two
        # pairs, three jets each)
        assert len(calls) <= 1 + 10 + 6

    def test_flat_chain_evaluates_each_jet_once_per_point(self, monkeypatch):
        calls = _jet_of_calls(monkeypatch)
        code, _ = run(["recursion-chain", "--background", "flat", "--n", "6", "--points", "1"])
        assert code == 0
        assert len(calls) <= 1 + 7


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
