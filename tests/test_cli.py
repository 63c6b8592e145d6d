"""CLI behaviour: exit codes, report schema, determinism, CSV export."""

import json
from pathlib import Path

import numpy as np
import pytest

from defectgeo.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def run(args):
    return main([str(a) for a in args])


def test_check_default_scenario_passes(capsys):
    assert run(["check", SCENARIOS / "default.toml"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] levi-civita-contract" in out
    assert "[PASS] bianchi-curvature" in out


def test_check_gauge_scenario_has_flatness_check(tmp_path):
    report_path = tmp_path / "report.json"
    assert run(["check", SCENARIOS / "gauge_rotation.toml", "--json", report_path]) == 0
    report = json.loads(report_path.read_text())
    names = [c["name"] for c in report["checks"]]
    assert "gauge-flatness" in names
    assert all(c["passed"] for c in report["checks"])


def test_report_schema_fields(tmp_path):
    report_path = tmp_path / "report.json"
    run(["check", SCENARIOS / "default.toml", "--json", report_path, "--deterministic"])
    report = json.loads(report_path.read_text())
    assert report["schema"] == "defectgeo-report-v1"
    assert report["command"] == "check"
    assert len(report["scenario"]["sha256"]) == 64
    assert report["timing_s"] == 0.0
    for check in report["checks"]:
        assert set(check) == {"name", "max_residual", "tolerance", "passed"}
        assert check["passed"] == (check["max_residual"] <= check["tolerance"])


def test_scenario_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.toml"
    bad.write_text("[defects]\nrho = \"1\"\n[defects]\nb1 = \"1\"\n")
    assert run(["check", bad]) == 2
    err = capsys.readouterr().err
    assert "appears twice" in err


def test_missing_file_exit_code(capsys):
    assert run(["check", "/nonexistent/scenario.toml"]) == 2


def test_singular_coframe_exit_code(tmp_path, capsys):
    bad = tmp_path / "singular.toml"
    bad.write_text('[coframe]\nh11 = "x"\n')
    assert run(["check", bad]) == 2
    assert "triad" in capsys.readouterr().err


def test_failing_check_exit_code(tmp_path, capsys):
    # Beltrami scenario: the disclination equations hold, the dislocation
    # balance does not (no Burgers density feeding 4 rho O), so exit is 1
    # while the Beltrami check itself passes.
    code = run(["kinematics", SCENARIOS / "beltrami.toml", "--json", tmp_path / "r.json"])
    assert code == 1
    report = json.loads((tmp_path / "r.json").read_text())
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["disclination-beltrami"]["passed"]
    assert by_name["point-defect-curl"]["passed"]
    assert not by_name["dislocation-balance"]["passed"]
    assert by_name["dislocation-curvature-fit"]["passed"]
    assert report["calibration"]["dislocation_factor"] == pytest.approx(-2.0, abs=1e-9)
    err = capsys.readouterr().err
    assert "dislocation-balance" in err


def test_elastic_dilation_samples(tmp_path):
    report_path = tmp_path / "elastic.json"
    assert run(["elastic", SCENARIOS / "dilation.toml", "--json", report_path]) == 0
    report = json.loads(report_path.read_text())
    strain = np.array(report["samples"]["strain"])
    stress = np.array(report["samples"]["stress"])
    assert np.allclose(strain, np.eye(3) * 3.0 / 8.0, atol=1e-12)
    assert np.allclose(stress, np.eye(3) * 15.0 / 8.0, atol=1e-12)


def test_elastic_accepts_diagonal_forward_map(tmp_path):
    scales = (1.2, 0.9, 1.1)
    scenario = tmp_path / "forward.toml"
    lines = ["[deformation]", "kind = forward"]
    lines += [f'X{i} = "{s}*{v}"' for i, (s, v) in enumerate(zip(scales, "xyz"), start=1)]
    lines += ["[material]", "lambda = 1.0", "mu = 1.5", "[numerics]", "grid_n = 3"]
    scenario.write_text("\n".join(lines) + "\n")
    report_path = tmp_path / "forward.json"
    assert run(["elastic", scenario, "--json", report_path]) == 0
    samples = json.loads(report_path.read_text())["samples"]
    want = np.diag([(1.0 - 1.0 / s**2) / 2.0 for s in scales])
    assert np.max(np.abs(np.array(samples["strain"]) - want)) <= 1e-10
    # a homogeneous deformation has constant stress, so the static residual vanishes
    assert samples["static_momentum_residual_max"] <= 1e-12


@pytest.mark.parametrize("grid_n", [2, 3, 5, 9, 24, 48])
def test_check_points_match_strided_grid(grid_n):
    from defectgeo.cli import _check_points
    from defectgeo.fields import Point
    from defectgeo.scenario import parse_scenario

    scenario = parse_scenario(f"[numerics]\ngrid_min = -0.7\ngrid_max = 1.3\ngrid_n = {grid_n}\n")
    # the construction the flat-index version replaces: every grid node, then strided
    axis = np.linspace(-0.7, 1.3, grid_n)
    X, Y, Z = np.meshgrid(axis, axis, axis, indexing="ij")
    pts = [Point(float(x), float(y), float(z)) for x, y, z in zip(X.ravel(), Y.ravel(), Z.ravel())]
    if len(pts) > 125:
        pts = pts[:: max(1, len(pts) // 125)][:125]
    assert _check_points(scenario) == pts


def test_energy_linear_rho(tmp_path):
    report_path = tmp_path / "energy.json"
    assert run(["energy", SCENARIOS / "energy_linear_rho.toml", "--json", report_path]) == 0
    report = json.loads(report_path.read_text())
    third = 1.0 / 3.0
    assert abs(report["samples"]["coarse"] - third) <= 0.01 * third
    assert abs(report["samples"]["fine"] - third) <= 0.01 * third
    assert report["samples"]["resolution"] == [32, 64]


def test_energy_requires_sections(tmp_path, capsys):
    bare = tmp_path / "bare.toml"
    bare.write_text("[numerics]\ntolerance = 1e-6\n")
    assert run(["energy", bare]) == 2
    assert "missing required section" in capsys.readouterr().err


def test_defects_csv_export(tmp_path):
    csv_path = tmp_path / "grid.csv"
    report_path = tmp_path / "defects.json"
    code = run(
        ["defects", SCENARIOS / "mixed_defects.toml", "--csv", csv_path, "--json", report_path]
    )
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "x,y,z,b1,b2,b3,O1,O2,O3,m1,m2,m3,rho,B1,B2,B3"
    assert len(lines) == 1 + 3**3
    for line in lines[1:]:
        vals = [float(v) for v in line.split(",")]
        b = np.array(vals[3:6])
        O = np.array(vals[6:9])
        m = np.array(vals[9:12])
        B = np.array(vals[13:16])
        assert np.allclose(B, b - 3.0 * O + (2.0 / 3.0) * m, atol=1e-12)
        assert np.allclose(b, [1.0, 0.0, 0.0], atol=1e-12)
        assert np.allclose(O, [0.0, 1.0, 0.0], atol=1e-12)
        assert np.allclose(m, [0.0, 0.0, 1.0], atol=1e-12)


def test_defects_needs_inputs(tmp_path, capsys):
    bare = tmp_path / "bare.toml"
    bare.write_text("[numerics]\ntolerance = 1e-6\n")
    assert run(["defects", bare]) == 2


def test_defects_zero_scenario_all_norms_zero(tmp_path):
    zero = tmp_path / "zero.toml"
    zero.write_text('[defects]\nrho = "0"\n\n[numerics]\ngrid_n = 3\n')
    report_path = tmp_path / "zero.json"
    assert run(["defects", zero, "--json", report_path]) == 0
    report = json.loads(report_path.read_text())
    for name, value in report["samples"]["field_max_abs"].items():
        assert value == 0.0, name


def test_calibrate_passes(tmp_path):
    report_path = tmp_path / "calib.json"
    assert run(["calibrate", SCENARIOS / "default.toml", "--json", report_path]) == 0
    report = json.loads(report_path.read_text())
    calib = report["calibration"]
    assert calib["frank_scale"] == pytest.approx(3.0, abs=1e-9)
    assert calib["dislocation_factor"] == pytest.approx(-2.0, abs=1e-9)
    assert calib["disclination_factor"] == pytest.approx(1.0, abs=1e-9)
    assert calib["ansatz_flux_factor"] == pytest.approx(0.5, abs=1e-9)
    assert "quadratic_invariants" in calib


@pytest.mark.parametrize(
    "command,scenario",
    [
        ("kinematics", "beltrami.toml"),
        ("elastic", "dilation.toml"),
        ("energy", "energy_linear_rho.toml"),
    ],
)
def test_deterministic_reports_are_byte_identical(tmp_path, command, scenario):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        run([command, SCENARIOS / scenario, "--deterministic", "--json", p])
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_grid_and_tolerance_overrides(tmp_path):
    report_path = tmp_path / "r.json"
    run(
        [
            "check",
            SCENARIOS / "default.toml",
            "--grid",
            "5",
            "--tolerance",
            "1e-9",
            "--json",
            report_path,
        ]
    )
    report = json.loads(report_path.read_text())
    assert report["settings"]["grid_n"] == 5
    assert report["settings"]["tolerance"] == 1e-9


def _rho_scenario(tmp_path, rho):
    text = (SCENARIOS / "energy_linear_rho.toml").read_text().replace('rho = "x"', f'rho = "{rho}"')
    path = tmp_path / "rho.toml"
    path.write_text(text)
    return path


def test_energy_with_a_1500_term_density(tmp_path):
    rho = "+".join(f"{k + 1}*x*y" for k in range(1500))
    assert run(["energy", _rho_scenario(tmp_path, rho), "--grid", "8"]) == 0


@pytest.mark.parametrize("command", ["energy", "check", "defects"])
def test_non_finite_values_are_bad_input_with_a_point(tmp_path, capsys, command):
    with np.errstate(all="ignore"):
        code = run([command, _rho_scenario(tmp_path, "exp(800*x)"), "--grid", "8"])
    out, err = capsys.readouterr()
    assert code == 2
    assert "non-finite field value" in err and " at (" in err
    assert "nan" not in out.lower() and "inf" not in out.lower()


def test_deeply_nested_density_is_a_parse_error(tmp_path, capsys):
    rho = "(" * 300 + "x" + ")" * 300
    assert run(["energy", _rho_scenario(tmp_path, rho), "--grid", "4"]) == 2
    assert "parse error at offset" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["kinematics", "energy"])
def test_non_finite_report_values_are_not_written(tmp_path, capsys, command):
    # the fields are finite, but the fit sums and the quadrature overflow
    report_path = tmp_path / "r.json"
    code = run([command, _rho_scenario(tmp_path, "1e154*x"), "--json", report_path])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == "" and not report_path.exists()
    assert len(err.splitlines()) == 1
    assert err.startswith("error: report value report.") and "is not finite" in err


def test_unexpected_exception_is_an_internal_error(monkeypatch, capsys):
    from defectgeo import cli

    def broken(scenario, args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "check", broken)
    assert run(["check", SCENARIOS / "default.toml"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: RuntimeError: boom\n"


def test_check_evaluates_all_its_residuals_in_one_walk(monkeypatch):
    from defectgeo import sampling

    calls = []
    original = sampling.batch_components
    monkeypatch.setattr(sampling, "batch_components", lambda *a: calls.append(a) or original(*a))
    assert run(["check", SCENARIOS / "default.toml"]) == 0
    assert len(calls) == 1
