"""CLI behaviour: exit codes, report schema, determinism, CSV export."""

import argparse
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from defectgeo.cli import _build_parser, main

from test_process import _python
from util import point_array

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
README = SCENARIOS.parent / "README.md"


def run(args):
    return main([str(a) for a in args])


def test_check_default_scenario_passes(capsys):
    assert run(["check", SCENARIOS / "default.toml"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] levi-civita-contract" in out
    assert "[PASS] bianchi-curvature" in out


def test_readme_example_scenario_passes_check(tmp_path):
    block = re.search(r"```toml\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    path = tmp_path / "readme.toml"
    path.write_text(block, encoding="utf-8")
    assert run(["check", path]) == 0


def test_check_gauge_scenario_has_flatness_check(tmp_path):
    report_path = tmp_path / "report.json"
    assert run(["check", SCENARIOS / "gauge_rotation.toml", "--json", report_path]) == 0
    report = json.loads(report_path.read_text())
    names = [c["name"] for c in report["checks"]]
    assert "gauge-flatness" in names
    assert all(c["passed"] for c in report["checks"])


def test_report_schema_fields(tmp_path):
    report_path = tmp_path / "report.json"
    path = SCENARIOS / "default.toml"
    run(["check", path, "--json", report_path, "--deterministic"])
    report = json.loads(report_path.read_text())
    assert report["schema"] == "defectgeo-report-v2"
    assert list(report["settings"]) == ["tolerance", "grid_n", "grid_bounds", "deterministic"]
    assert report["command"] == "check"
    assert report["scenario"]["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
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
    assert by_name["dislocation-curvature-identity"]["passed"]
    assert report["calibration"]["dislocation_curvature_factor"] == -2.0
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
    from defectgeo.fields import Point
    from defectgeo.sampling import check_points
    from defectgeo.scenario import parse_scenario

    scenario = parse_scenario(f"[numerics]\ngrid_min = -0.7\ngrid_max = 1.3\ngrid_n = {grid_n}\n")
    # the construction the flat-index version replaces: every grid node, then strided
    axis = np.linspace(-0.7, 1.3, grid_n)
    X, Y, Z = np.meshgrid(axis, axis, axis, indexing="ij")
    pts = [Point(float(x), float(y), float(z)) for x, y, z in zip(X.ravel(), Y.ravel(), Z.ravel())]
    if len(pts) > 125:
        pts = pts[:: max(1, len(pts) // 125)][:125]
    num = scenario.numerics
    assert np.array_equal(check_points(num.grid_min, num.grid_max, num.grid_n), point_array(*pts))


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
    no_couplings = tmp_path / "no_couplings.toml"
    no_couplings.write_text('[defects]\nrho = "x"\n')
    assert run(["energy", no_couplings]) == 2
    assert capsys.readouterr().err == "error: missing required section(s): couplings\n"


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


def _strict_json(text):
    """`json.loads` that rejects NaN and Infinity, which strict JSON has no words for."""

    def reject(constant):
        raise ValueError(f"non-finite JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("command", ["kinematics", "energy"])
def test_non_finite_report_values_are_not_written(tmp_path, capsys, command):
    # the fields are finite; the energy quadrature overflows, so no report is
    # written, while every kinematics reduction stays finite and the dislocation
    # balance (linear in rho against a reference of rho) fails
    report_path = tmp_path / "r.json"
    code = run([command, _rho_scenario(tmp_path, "1e154*x"), "--json", report_path])
    out, err = capsys.readouterr()
    assert len(err.splitlines()) == 1
    if command == "energy":
        assert code == 2
        assert out == "" and not report_path.exists()
        assert err.startswith("error: free-energy quadrature at resolution 32 over the box (0.0, 0.0, 0.0)")
        assert "overflows" in err
    else:
        assert code == 1
        assert err.startswith("check failed: dislocation-balance")
        assert _strict_json(report_path.read_text())["command"] == "kinematics"


def test_a_non_finite_check_value_is_bad_input_and_writes_no_report(tmp_path, monkeypatch, capsys):
    from defectgeo import cli

    def infinite(scenario, args):
        return [cli._check("overflowing-row", float("inf"), 1.0)], None, None, {}

    monkeypatch.setitem(cli._COMMANDS, "check", infinite)
    report_path = tmp_path / "r.json"
    assert run(["check", SCENARIOS / "default.toml", "--json", report_path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and not report_path.exists()
    assert err == "error: report value report.checks[0].max_residual is not finite (inf); no report written\n"


def test_energy_quadrature_overflow_names_the_resolution_and_the_box(tmp_path, capsys):
    # every integrand value is finite; their midpoint sum is not
    scenario = tmp_path / "s.toml"
    scenario.write_text('[defects]\nb1 = "0.5"\n[couplings]\nkappa1 = 1e308\n[numerics]\ngrid_n = 4\n')
    assert run(["energy", scenario]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: free-energy quadrature at resolution 4 over the box (-1.0, -1.0, -1.0) to (1.0, 1.0, 1.0)"
        " overflows: the midpoint sum is inf\n"
    )


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


def test_kinematics_evaluates_all_its_checks_in_one_walk(monkeypatch):
    from defectgeo import sampling

    calls = []
    original = sampling.batch_components
    monkeypatch.setattr(sampling, "batch_components", lambda *a: calls.append(a) or original(*a))
    assert run(["kinematics", SCENARIOS / "mixed_defects.toml"]) == 1
    assert len(calls) == 1


@pytest.mark.parametrize("scenario", ["mixed_defects.toml", "gauge_rotation.toml"])
def test_defects_evaluates_its_check_and_its_samples_in_one_walk(monkeypatch, scenario):
    from defectgeo import sampling

    calls = []
    original = sampling.batch_components
    monkeypatch.setattr(sampling, "batch_components", lambda *a: calls.append(a) or original(*a))
    assert run(["defects", SCENARIOS / scenario]) == 0
    assert len(calls) == 1


#: a full linear triad with quadratic defects and every coupling: a DAG large
#: enough that one grid-sized array per live node would take ~100 MB at --grid 32
FULL_TRIAD = """\
[coframe]
h11 = "1 - 0.04*x - 0.044*y - 0.024*z"
h12 = "-0.042*x - 0.075*y + 0.022*z"
h13 = "-0.045*x + 0.025*y - 0.024*z"
h21 = "-0.077*x + 0.055*y - 0.023*z"
h22 = "1 - 0.023*x - 0.037*y + 0.052*z"
h23 = "-0.054*x - 0.026*y - 0.042*z"
h31 = "-0.054*x + 0.05*y + 0.067*z"
h32 = "0.055*x - 0.042*y - 0.068*z"
h33 = "1 + 0.025*x + 0.052*y + 0.064*z"
[defects]
b1 = "-0.66 + 0.29*x + 0.32*y + 0.31*z - 0.52*x*x + 0.77*x*y + 0.46*x*z + 0.65*y*y - 0.25*y*z + 0.91*z*z"
b2 = "0.41 - 0.83*x + 0.27*y - 0.58*z + 0.36*x*x - 0.44*x*y + 0.72*x*z - 0.31*y*y + 0.88*y*z - 0.23*z*z"
b3 = "-0.35 + 0.61*x - 0.47*y + 0.52*z + 0.28*x*x + 0.39*x*y - 0.66*x*z + 0.74*y*y + 0.21*y*z - 0.57*z*z"
omega1 = "0.72 - 0.26*x + 0.84*y - 0.33*z + 0.49*x*x - 0.62*x*y + 0.31*x*z - 0.45*y*y + 0.56*y*z + 0.38*z*z"
omega2 = "-0.48 + 0.37*x - 0.69*y + 0.24*z - 0.81*x*x + 0.53*x*y - 0.22*x*z + 0.67*y*y - 0.34*y*z + 0.46*z*z"
omega3 = "0.29 - 0.54*x + 0.43*y + 0.78*z + 0.33*x*x - 0.27*x*y + 0.59*x*z - 0.41*y*y - 0.73*y*z + 0.25*z*z"
m1 = "-0.57 + 0.64*x + 0.21*y - 0.39*z + 0.42*x*x + 0.58*x*y - 0.35*x*z + 0.26*y*y + 0.63*y*z - 0.48*z*z"
m2 = "0.34 - 0.28*x - 0.76*y + 0.45*z - 0.23*x*x + 0.69*x*y + 0.52*x*z - 0.37*y*y + 0.44*y*z + 0.71*z*z"
m3 = "-0.26 + 0.47*x + 0.58*y - 0.62*z + 0.55*x*x - 0.32*x*y + 0.27*x*z + 0.48*y*y - 0.59*y*z - 0.36*z*z"
rho = "0.53 - 0.35*x + 0.28*y + 0.66*z - 0.44*x*x + 0.25*x*y - 0.71*x*z + 0.39*y*y + 0.32*y*z - 0.27*z*z"
[couplings]
kappa1 = 0.8
kappa2 = 1.1
kappa3 = 0.6
kappa4 = 1.3
kappa5 = 0.4
kappa6 = 0.9
kappa7 = 0.7
"""


def test_energy_memory_does_not_grow_with_the_dag_times_the_grid(tmp_path):
    import tracemalloc

    scenario = tmp_path / "full.toml"
    scenario.write_text(FULL_TRIAD)
    tracemalloc.start()
    try:
        code = run(["energy", scenario, "--grid", "32", "--json", tmp_path / "r.json"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    # one 64^3 array (the fine integrand) is 2 MB
    assert peak < 20e6


def test_check_memory_of_a_fresh_dag(tmp_path):
    """The intern table's cost per node: `check` on FULL_TRIAD builds 36.4k nodes.

    A fresh interpreter, because a table that already holds the DAG allocates
    almost nothing.  Keyed by their kids tuples the nodes peak near 11 MB;
    keyed by (class, op, id(lhs), id(rhs)) beside their kids, near 16 MB.
    """
    scenario = tmp_path / "full.toml"
    scenario.write_text(FULL_TRIAD)
    code = (
        "import sys, tracemalloc\n"
        "from defectgeo.cli import main\n"
        "tracemalloc.start()\n"
        f"code = main(['check', {str(scenario)!r}, '--json', {str(tmp_path / 'r.json')!r}])\n"
        "print(code, tracemalloc.get_traced_memory()[1], file=sys.stderr)\n"
    )
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    exit_code, peak = map(int, proc.stderr.split())
    assert exit_code == 0
    assert peak < 13e6


# ---- the curvature identities on curved frames -------------------------------------

#: the coframe e^a = d(phi^a) of phi = (x + 0.1 y^2, y + 0.05 z x, z + 0.1 x)
PULLBACK_COFRAME = """\
[coframe]
h12 = "0.2*y"
h21 = "0.05*z"
h23 = "0.05*x"
h31 = "0.1"
"""

#: two exact solutions of all four balance laws, pulled back along phi:
#: (a) rho = 0, O = grad chi, b = (18/5) grad chi, m = grad psi with
#: chi = xy + z^2/2 and psi = xz; (b) rho = -6, b = (sin 2z, cos 2z, 0) with
#: curl b = 2b; each component is read at phi(x, y, z)
PULLED_BACK_FAMILIES = {
    "a": """\
[defects]
b1 = "3.6*(y + 0.05*z*x)"
b2 = "3.6*(x + 0.1*y^2)"
b3 = "3.6*(z + 0.1*x)"
omega1 = "y + 0.05*z*x"
omega2 = "x + 0.1*y^2"
omega3 = "z + 0.1*x"
m1 = "z + 0.1*x"
m3 = "x + 0.1*y^2"
rho = "0"
""",
    "b": """\
[defects]
b1 = "sin(2*(z + 0.1*x))"
b2 = "cos(2*(z + 0.1*x))"
rho = "-6"
""",
}

#: a curved scenario as the benchmark generates it (diagonal linear triad,
#: every quadratic monomial in every defect component)
BENCH_CURVED = """\
[coframe]
h11 = "1.000000 + 0.025570*x - 0.071053*y + 0.021399*z"
h22 = "1.000000 + 0.065517*x - 0.044580*y + 0.087177*z"
h33 = "1.000000 - 0.082007*x + 0.021397*y + 0.084590*z"
[defects]
b1 = "0.550256 - 0.502857*x + 0.798000*y + 0.323708*z + 0.486984*x*x + 0.868905*x*y + 0.464480*x*z - 0.646130*y*y + 0.619321*y*z - 0.940867*z*z"
b2 = "-0.405002 + 0.325123*x + 0.800637*y + 0.653817*z - 0.533697*x*x + 0.444833*x*y + 0.809008*x*z - 0.501646*y*y - 0.874722*y*z - 0.632128*z*z"
b3 = "-0.535412 + 0.777756*x - 0.233794*y - 0.681707*z - 0.687134*x*x - 0.406848*x*y + 0.434536*x*z - 0.217269*y*y + 0.203068*y*z + 0.541192*z*z"
omega1 = "0.260162 - 0.749055*x - 0.687925*y - 0.473634*z + 0.729123*x*x - 0.761034*x*y + 0.882970*x*z - 0.694358*y*y - 0.578828*y*z - 0.506062*z*z"
omega2 = "0.355836 + 0.257928*x + 0.746717*y - 0.368239*z - 0.403292*x*x + 0.589221*x*y - 0.657639*x*z + 0.533330*y*y - 0.586665*y*z - 0.601568*z*z"
omega3 = "-0.736449 - 0.851459*x - 0.654863*y - 0.584605*z + 0.339383*x*x + 0.205393*x*y - 0.600628*x*z + 0.720593*y*y - 0.661240*y*z - 0.311102*z*z"
m1 = "-0.437270 - 0.837869*x + 0.616437*y - 0.646234*z + 0.306449*x*x + 0.605581*x*y - 0.779314*x*z + 0.426879*y*y + 0.711273*y*z - 0.249583*z*z"
m2 = "-0.241637 - 0.733630*x + 0.292827*y - 0.485915*z - 0.786694*x*x + 0.743372*x*y + 0.675504*x*z - 0.665715*y*y - 0.860101*y*z + 0.344172*z*z"
m3 = "0.312164 - 0.851660*x + 0.826121*y + 0.705882*z + 0.541029*x*x - 0.827577*x*y + 0.702991*x*z - 0.434821*y*y - 0.379077*y*z + 0.574415*z*z"
rho = "0.642501 + 0.540650*x - 0.347142*y - 0.453453*z - 0.337946*x*x - 0.352878*x*y - 0.437459*x*z - 0.807531*y*y + 0.681711*y*z + 0.419434*z*z"
"""

BALANCE_ROWS = {"dislocation-balance", "point-defect-curl", "disclination-beltrami", "bilinear-constraint"}

#: scenarios/beltrami.toml pulled back along phi: O = (sin 2z, cos 2z, 0) with
#: rho = 2 solves *dO = rho O, so only its dislocation balance and bilinear
#: constraint fail, on every frame
PULLED_BACK_BELTRAMI = PULLBACK_COFRAME + """\
[defects]
omega1 = "sin(2*(z + 0.1*x))"
omega2 = "cos(2*(z + 0.1*x))"
rho = "2"

[numerics]
tolerance = 1e-6
grid_n = 9
"""


def _kinematics_checks(tmp_path, text):
    """(exit code, {row name: check}) of `kinematics` on a scenario text."""
    scenario, report_path = tmp_path / "s.toml", tmp_path / "r.json"
    scenario.write_text(text)
    code = run(["kinematics", scenario, "--json", report_path])
    return code, {c["name"]: c for c in json.loads(report_path.read_text())["checks"]}


def test_kinematics_passes_every_row_on_curved_frames(tmp_path):
    # where the balance laws hold, R^a_b ^ e^b is rounding noise: a fitted
    # factor regressed noise on noise there, while the identity rows stay exact
    for family, defects in PULLED_BACK_FAMILIES.items():
        code, checks = _kinematics_checks(tmp_path, PULLBACK_COFRAME + defects)
        assert code == 0, family
        assert all(c["passed"] for c in checks.values()), family
    # both sides of each identity are quadratic in the defect fields, so each
    # row is scaled against its own sides, not against the fields: x 1e4 still passes
    scaled = re.sub(r'^(\w+) = "(.*)"$', r'\1 = "1e4*(\2)"', BENCH_CURVED.split("[defects]")[1], flags=re.M)
    code, checks = _kinematics_checks(tmp_path, BENCH_CURVED.split("[defects]")[0] + "[defects]" + scaled)
    assert code == 1  # random fields violate the four balance laws
    assert {name for name, c in checks.items() if not c["passed"]} == BALANCE_ROWS
    assert checks["dislocation-curvature-identity"]["max_residual"] > 0.0  # measured, not folded to 0


def test_disclination_and_point_defect_rows_are_frame_components(tmp_path):
    # these rows read the Frank and point covectors in frame components through
    # the coframe: the pull-back leaves each row as it is on the identity frame
    _, original = _kinematics_checks(tmp_path, (SCENARIOS / "beltrami.toml").read_text())
    code, checks = _kinematics_checks(tmp_path, PULLED_BACK_BELTRAMI)
    assert code == 1
    failing = {name for name, c in checks.items() if not c["passed"]}
    assert failing == {name for name, c in original.items() if not c["passed"]} == {
        "dislocation-balance",
        "bilinear-constraint",
    }
    # read on the Cartesian coefficients, these two rows give 0.166 and 12.31
    assert checks["disclination-beltrami"]["max_residual"] <= 1e-12
    assert checks["bilinear-constraint"]["max_residual"] == pytest.approx(12.0, abs=1e-12)

    # each rewritten row can still fail on the curved frame
    _, checks = _kinematics_checks(tmp_path, PULLED_BACK_BELTRAMI.replace('rho = "2"', 'rho = "2.02"'))
    assert not checks["disclination-beltrami"]["passed"]
    _, checks = _kinematics_checks(tmp_path, PULLBACK_COFRAME + PULLED_BACK_FAMILIES["a"])
    assert checks["point-defect-curl"]["passed"]
    perturbed = PULLED_BACK_FAMILIES["a"].replace('m1 = "z + 0.1*x"', 'm1 = "z + 0.1*x + 0.01*y"')
    _, checks = _kinematics_checks(tmp_path, PULLBACK_COFRAME + perturbed)
    assert not checks["point-defect-curl"]["passed"]


@pytest.mark.parametrize("scenario", ["beltrami", "full-triad"])
@pytest.mark.parametrize(
    "factor,wrong,row,other",
    [
        ("DISLOCATION_CURVATURE_FACTOR", -1.99, "dislocation-curvature-identity", "disclination-curvature-identity"),
        ("DISCLINATION_CURVATURE_FACTOR", 1.01, "disclination-curvature-identity", "dislocation-curvature-identity"),
    ],
)
def test_each_curvature_identity_row_fails_on_a_wrong_factor(tmp_path, monkeypatch, scenario, factor, wrong, row, other):
    from defectgeo import kinematics

    monkeypatch.setattr(kinematics, factor, wrong)
    text = FULL_TRIAD if scenario == "full-triad" else (SCENARIOS / f"{scenario}.toml").read_text()
    code, checks = _kinematics_checks(tmp_path, text)
    assert code == 1
    assert checks[row]["max_residual"] > 1e-3  # 4.4e-3 to 9.7e-3, against a tolerance of 1e-12
    assert checks[other]["passed"]


# ---- no check subtracts a node from itself -----------------------------------------

#: FULL_TRIAD with a deformation and a material, so that every command runs on it
FULL_TRIAD_ELASTIC = FULL_TRIAD + (SCENARIOS / "dilation.toml").read_text().split("[numerics]")[0]

#: rows that compare two separate transcriptions of one identity: on special
#: inputs (an identity coframe, a density of rho alone) both sides hash-cons to
#: the same nodes, which proves the identity there, while a fault in either
#: transcription still shows; on the generic full triad they too must differ
TRANSCRIPTION_ROWS = {"curvature-split", "lagrangian-representations-agree"}


@pytest.mark.parametrize("scenario", sorted(p.stem for p in SCENARIOS.glob("*.toml")) + ["full-triad"])
def test_no_check_residual_subtracts_a_node_from_itself(tmp_path, monkeypatch, scenario):
    """Nodes are interned, so a residual component `Bin("-", X, X)` reads 0
    whatever X is: a check that nothing can fail."""
    from defectgeo import cli
    from defectgeo import expressions as ex

    pending, rows = [], []  # residuals awaiting their row's name; (name, residual)

    def recording(original):
        def normalized_residuals(pairs, *args):
            pairs = list(pairs)
            pending.extend(res for res, _ in pairs)
            return original(pairs, *args)

        return normalized_residuals

    def check(name, *args):
        if pending:  # the rows of a table are checked in its order, before any other row
            rows.append((name, pending.pop(0)))
        return original_check(name, *args)

    monkeypatch.setattr(cli, "normalized_residuals", recording(cli.normalized_residuals))
    original_check = cli._check
    monkeypatch.setattr(cli, "_check", check)
    path = SCENARIOS / f"{scenario}.toml"
    if scenario == "full-triad":
        path = tmp_path / "full.toml"
        path.write_text(FULL_TRIAD_ELASTIC)
    for command in ("check", "defects", "kinematics", "elastic", "energy", "calibrate"):
        run([command, path, "--json", tmp_path / "r.json"])
        assert pending == []
    assert rows
    tautologies = [
        name
        for name, residual in rows
        if scenario == "full-triad" or name not in TRANSCRIPTION_ROWS
        for field in residual
        for c in field.comps
        if type(c) is ex.Bin and c.op == "-" and c.lhs is c.rhs
    ]
    assert tautologies == []


DEFECT_GRID = """\
[coframe]
h11 = "1 + 0.1*x"
h22 = "1 - 0.05*y*z"
[defects]
b1 = "sin(2*z) + x*y"
omega2 = "cos(x - y)"
m3 = "exp(0.3*y)"
rho = "x - z^2"
"""


def test_defect_csv_is_written_block_by_block_with_the_same_bytes(tmp_path):
    from util import unblocked_defect_csv

    scenario = tmp_path / "grid.toml"
    scenario.write_text(DEFECT_GRID)
    assert run(["defects", scenario, "--grid", "21", "--csv", tmp_path / "got.csv"]) == 0
    unblocked_defect_csv(scenario, tmp_path / "want.csv", 21)
    got = (tmp_path / "got.csv").read_bytes()
    assert got.count(b"\n") == 1 + 21**3
    assert got == (tmp_path / "want.csv").read_bytes()


def test_a_bad_value_in_a_later_csv_block_leaves_no_csv(tmp_path, capsys):
    # infinite at one grid node only, in the second block and off the check points
    x = float(np.linspace(-1.0, 1.0, 21)[19])
    spike = f"exp(800 - 800*(abs(sign(x - {x!r})) + abs(sign(y - 0.5)) + abs(sign(z - 0.5))))"
    scenario = tmp_path / "spike.toml"
    scenario.write_text(f'[defects]\nrho = "{spike}"\n')
    csv_path = tmp_path / "grid.csv"
    with np.errstate(all="ignore"):
        code = run(["defects", scenario, "--grid", "21", "--csv", csv_path])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite field value ") and err.endswith(f" at ({x!r}, 0.5, 0.5, 0.0)\n")
    assert not csv_path.exists()


@pytest.mark.parametrize("numerics", ["grid_n = 513", "grid_n = 100000"])
def test_grid_above_the_bound_is_bad_input_with_its_line(tmp_path, capsys, numerics):
    scenario = tmp_path / "big.toml"
    scenario.write_text(f"[defects]\nrho = \"x\"\n[couplings]\nkappa2 = 1.0\n[numerics]\n{numerics}\n")
    assert run(["energy", scenario]) == 2
    assert capsys.readouterr().err == "error: grid_n must be between 2 and 512 (line 6)\n"


def test_non_integer_grid_n_is_bad_input_with_its_line(tmp_path, capsys):
    scenario = tmp_path / "fractional.toml"
    scenario.write_text("[numerics]\ngrid_n = 9.9\n")
    assert run(["check", scenario]) == 2
    assert capsys.readouterr().err == "error: key 'grid_n' in [numerics] must be an integer, got '9.9' (line 2)\n"


def test_grid_override_above_the_bound_is_bad_input(capsys):
    assert run(["energy", SCENARIOS / "energy_linear_rho.toml", "--grid", "513"]) == 2
    assert capsys.readouterr().err == "error: --grid must be between 2 and 512\n"


@pytest.mark.parametrize(
    "command,text,where",
    [
        ("check", "[couplings]\nkappa1 = inf\n", "'kappa1' in [couplings]"),
        ("energy", '[defects]\nrho = "x"\n[couplings]\nkappa1 = nan\n', "'kappa1' in [couplings]"),
        ("check", "[numerics]\ngrid_min = 0.0\ngrid_max = inf\n", "'grid_max' in [numerics]"),
        ("check", "[numerics]\ntolerance = nan\n", "'tolerance' in [numerics]"),
        ("elastic", '[deformation]\nX1 = "x"\nX2 = "y"\nX3 = "z"\n[material]\nmu = nan\n', "'mu' in [material]"),
    ],
    ids=["kappa1-inf", "kappa1-nan", "grid_max-inf", "tolerance-nan", "mu-nan"],
)
def test_non_finite_scenario_numbers_are_bad_input_with_their_line(tmp_path, capsys, command, text, where):
    scenario = tmp_path / "s.toml"
    scenario.write_text(text)
    assert run([command, scenario]) == 2
    out, err = capsys.readouterr()
    line = len(text.splitlines())
    raw = text.splitlines()[-1].split(" = ")[1]
    assert out == ""
    assert err == f"error: key {where} must be a finite number, got {raw!r} (line {line})\n"


@pytest.mark.parametrize("flag,value", [("--tolerance", "nan"), ("--tolerance", "inf")])
def test_non_finite_overrides_are_bad_input(capsys, flag, value):
    assert run(["check", SCENARIOS / "default.toml", flag, value]) == 2
    assert capsys.readouterr().err == f"error: {flag} must be a finite number, got {value}\n"


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--tolerance", "-1", "--grid", "1"], "--tolerance must be non-negative"),
        (["--tolerance", "-0.5"], "--tolerance must be non-negative"),
        (["--grid", "513"], "--grid must be between 2 and 512"),
        (["--grid", "1"], "--grid must be between 2 and 512"),
    ],
)
def test_out_of_range_overrides_are_bad_input(capsys, flags, message):
    assert run(["check", SCENARIOS / "default.toml", *flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "args",
    [["check", "--fd-step", "1e-4"], ["check", "--csv", "out.csv"], ["energy", "--csv", "out.csv"]],
    ids=["fd-step", "check-csv", "energy-csv"],
)
def test_unregistered_options_are_bad_input(capsys, args):
    with pytest.raises(SystemExit) as exc:
        run([args[0], SCENARIOS / "default.toml", *args[1:]])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(args[1:])}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "defects", "kinematics", "elastic", "energy", "calibrate"])
@pytest.mark.parametrize("expr", ["exp(1000)", "10^400", "sin(1e400)", "."])
def test_overflowing_constants_and_malformed_numbers_are_bad_input(tmp_path, capsys, command, expr):
    """Each command reads h12 or b1: it reports the non-finite value at its point or
    the text at its offset, and never exits 3."""
    scenario = tmp_path / "s.toml"
    scenario.write_text(
        f'[coframe]\nh12 = "{expr}"\n[defects]\nb1 = "{expr}"\n[couplings]\nkappa1 = 1.0\n'
        '[deformation]\nX1 = "x"\nX2 = "y"\nX3 = "z"\n[material]\nlambda = 1.0\nmu = 1.0\n'
    )
    assert run([command, scenario]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and err.endswith("\n")
    if expr == ".":
        assert err.startswith("error: bad expression for 'h12' in [coframe]: parse error at offset 0")
    else:
        assert err.startswith("error: non-finite field value ") and " at (" in err


def test_fd_step_in_the_file_is_bad_input(tmp_path, capsys):
    scenario = tmp_path / "s.toml"
    scenario.write_text("[numerics]\ntolerance = 1e-6\nfd_step = 1e-4\n")
    assert run(["check", scenario]) == 2
    assert capsys.readouterr().err == "error: unknown key 'fd_step' in [numerics] (line 3)\n"


def test_undecodable_scenario_is_bad_input(tmp_path, capsys):
    scenario = tmp_path / "latin1.toml"
    scenario.write_bytes(b"[numerics]\ntolerance = 1e-6\n# caf\xe9\n")
    assert run(["check", scenario]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: scenario file is not UTF-8: byte 0xe9 cannot be decoded (line 3)\n"


def test_readme_synopsis_lists_the_registered_options():
    readme = (SCENARIOS.parent / "README.md").read_text()
    synopsis = readme.split("## CLI", 1)[1].split("```")[1]
    subparsers = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    registered = {
        option
        for parser in subparsers.choices.values()
        for action in parser._actions
        for option in action.option_strings
        if option not in ("-h", "--help")
    }
    assert set(re.findall(r"--[a-z][a-z-]*", synopsis)) == registered


def test_negative_tolerance_in_the_file_is_bad_input(tmp_path, capsys):
    scenario = tmp_path / "s.toml"
    scenario.write_text("[numerics]\ntolerance = -1\n")
    assert run(["check", scenario]) == 2
    assert capsys.readouterr().err == "error: tolerance must be non-negative (line 2)\n"


# ---- forward maps in the one walk --------------------------------------------------


def _deformation_scenario(path, kind, maps):
    lines = ["[deformation]", f"kind = {kind}"]
    lines += [f'X{i} = "{m}"' for i, m in enumerate(maps, start=1)]
    lines += ["[material]", "lambda = 1.0", "mu = 1.0", "kappa = 0.0"]
    # an off-centre grid, so the sampled centre is not the origin
    lines += ["[numerics]", "grid_min = -0.5", "grid_max = 1.0"]
    path.write_text("\n".join(lines) + "\n")
    return path


def _elastic_report(scenario, tmp_path):
    report_path = tmp_path / f"{scenario.stem}.json"
    assert run(["elastic", scenario, "--json", report_path, "--deterministic"]) == 0
    return json.loads(report_path.read_text())


def _counting(monkeypatch, owner, name):
    """Count the calls of `owner.name`."""
    calls = []
    orig = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: calls.append(1) or orig(*args))
    return calls


def test_linear_forward_map_matches_its_inverse_file_without_newton(tmp_path, monkeypatch):
    from defectgeo.elasticity import _ForwardChart

    newton = _counting(monkeypatch, _ForwardChart, "_newton")
    text = (SCENARIOS / "dilation.toml").read_text().replace("kind = inverse", "kind = forward")
    for v in "xyz":
        text = text.replace(f'"{v}/2"', f'"2*{v}"')
    forward = tmp_path / "forward.toml"
    forward.write_text(text)
    got, want = _elastic_report(forward, tmp_path), _elastic_report(SCENARIOS / "dilation.toml", tmp_path)
    # its push-forward is constant, so no value needs the body point X(x)
    assert newton == []
    assert got["checks"] == want["checks"]
    assert got["samples"] == want["samples"]


#: x1 = X1 + 0.1 X2^2, whose inverse is X1 = x1 - 0.1 x2^2
TRIANGULAR = {"forward": ("x+0.1*y^2", "y", "z"), "inverse": ("x-0.1*y^2", "y", "z")}


def test_triangular_forward_map_agrees_with_its_inverse_in_as_many_walks(tmp_path, monkeypatch):
    from defectgeo import fields

    blocks = _counting(monkeypatch, fields, "_evaluate_block")
    reports, walks = {}, {}
    for kind, maps in TRIANGULAR.items():
        blocks.clear()
        reports[kind] = _elastic_report(_deformation_scenario(tmp_path / f"{kind}.toml", kind, maps), tmp_path)
        walks[kind] = len(blocks)
    assert walks["forward"] == walks["inverse"]
    fwd, inv = reports["forward"], reports["inverse"]
    assert [c["name"] for c in fwd["checks"]] == [c["name"] for c in inv["checks"]]
    for a, b in zip(fwd["checks"], inv["checks"]):
        assert a["passed"] and abs(a["max_residual"] - b["max_residual"]) <= 1e-12
    assert fwd["samples"]["at"] == inv["samples"]["at"]
    for key in ("strain", "stress", "static_momentum_residual_max"):
        assert np.max(np.abs(np.subtract(fwd["samples"][key], inv["samples"][key]))) <= 1e-12
    assert np.max(np.abs(fwd["samples"]["strain"])) > 1e-3
