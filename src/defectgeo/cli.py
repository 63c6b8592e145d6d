"""Batch front door: load a scenario file, run an analysis suite, emit reports.

    defectgeo <check|defects|kinematics|elastic|energy|calibrate> scenario.toml
              [--grid N] [--csv PATH] [--json PATH] [--deterministic]
              [--tolerance X] [--fd-step H]

Exit codes: 0 all checks passed, 1 at least one check failed, 2 the scenario
could not be parsed or validated.  The first failure detail goes to stderr.
JSON reports have a fixed key order; with --deterministic the timing field
is zeroed so byte-identical inputs give byte-identical reports.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

import numpy as np

from . import calibration
from .defects import extract_defects, reconstruct_defect_geometry
from .elasticity import (
    check_invertible,
    deformation_gradients,
    euler_strain,
    isotropic_stress,
    stress_from_elasticity_tensor,
    volume_relation_residual,
)
from .energy import lagrangian_form, lagrangian_vector, total_free_energy_estimate
from .errors import DefectGeoError, ScenarioError
from .fields import Point
from .forms import FRAME_INDICES
from .geometry import (
    bianchi_residuals,
    connection_with,
    curvature,
    curvature_split_residual,
    defect_one_form,
    levi_civita_connection,
    nonmetricity,
    pure_gauge_connection,
    torsion,
)
from .kinematics import bianchi_consistency, disclination_point_balance, dislocation_balance
from .sampling import batch_components, normalized_residual
from .scenario import Scenario, parse_scenario_file

SCHEMA = "defectgeo-report-v1"

#: fixed tolerances of the calibration-fit checks (not scenario-tunable)
FIT_RESIDUAL_TOL = 1e-4
FIT_STABILITY_TOL = 1e-3
EXACT_TOL = 1e-12


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        scenario = parse_scenario_file(args.scenario)
        scenario = _apply_overrides(scenario, args)
        runner = _COMMANDS[args.command]
        checks, calib, samples, extras = runner(scenario, args)
    except (DefectGeoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = 0.0 if args.deterministic else time.perf_counter() - started
    report = _assemble_report(args, scenario, checks, calib, samples, extras, elapsed)
    _emit(report, args)
    failures = [c for c in checks if not c["passed"]]
    if failures:
        first = failures[0]
        print(
            f"check failed: {first['name']} (max residual {first['max_residual']:.3e}"
            f" > tolerance {first['tolerance']:.3e})",
            file=sys.stderr,
        )
        return 1
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="defectgeo",
        description="Geometric crystal-defect analysis of scenario files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("check", "structure-equation and identity suite"),
        ("defects", "extract defect densities (optionally to CSV)"),
        ("kinematics", "kinematic balance residuals and curvature fits"),
        ("elastic", "deformation, strain, stress, and balance checks"),
        ("energy", "free-energy quadrature with error estimate"),
        ("calibrate", "re-measure the frozen calibration constants"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("scenario", help="path to the scenario file")
        p.add_argument("--grid", type=int, default=None, help="override grid resolution")
        p.add_argument("--csv", default=None, help="write field grids as CSV")
        p.add_argument("--json", default=None, help="write the JSON report to this path")
        p.add_argument(
            "--deterministic",
            action="store_true",
            help="zero the timing field so reports are byte-identical",
        )
        p.add_argument("--tolerance", type=float, default=None, help="override check tolerance")
        p.add_argument("--fd-step", type=float, default=None, help="override finite-difference step")
    return parser


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    from dataclasses import replace

    num = scenario.numerics
    if args.tolerance is not None:
        num = replace(num, tolerance=args.tolerance)
    if args.fd_step is not None:
        num = replace(num, fd_step=args.fd_step)
    if args.grid is not None:
        if args.grid < 2:
            raise ScenarioError("--grid must be at least 2")
        num = replace(num, grid_n=args.grid)
    return replace(scenario, numerics=num)


def _check_points(scenario: Scenario, cap=125):
    """Deterministic sample points: grid nodes, strided down to at most `cap`."""
    num = scenario.numerics
    axis = np.linspace(num.grid_min, num.grid_max, num.grid_n)
    total = num.grid_n ** 3
    flat = np.arange(0, total, max(1, total // cap))[:cap]
    i, j, k = np.unravel_index(flat, (num.grid_n,) * 3)
    return [Point(float(axis[a]), float(axis[b]), float(axis[c])) for a, b, c in zip(i, j, k)]


def _check(name, max_residual, tolerance):
    return {
        "name": name,
        "max_residual": float(max_residual),
        "tolerance": float(tolerance),
        "passed": bool(max_residual <= tolerance),
    }


# ---- commands -----------------------------------------------------------------


def _cmd_check(scenario: Scenario, args):
    tol = scenario.numerics.tolerance
    points = _check_points(scenario)
    e = scenario.coframe
    e.validate(points)

    checks = []
    gamma = levi_civita_connection(e)
    from .fields import exterior_derivative, wedge

    contract = []
    for a in FRAME_INDICES:
        acc = exterior_derivative(e.e(a))
        for b in FRAME_INDICES:
            acc = acc + wedge(gamma.entry(a, b), e.e(b))
        contract.append(acc)
    antisym = [
        (gamma.entry(a, b) + gamma.entry(b, a)) * 0.5 for a in FRAME_INDICES for b in FRAME_INDICES
    ]
    reference = [e.e(a) for a in FRAME_INDICES] + gamma.entries()
    checks.append(
        _check("levi-civita-contract", normalized_residual(contract + antisym, reference, points), tol)
    )

    T, Q = reconstruct_defect_geometry(scenario.defects, e)
    L = defect_one_form(T, Q, e)
    omega = connection_with(gamma, L)
    T_back = torsion(e, omega)
    Q_back = nonmetricity(omega)
    round_trip = [T_back.entry(a) - T.entry(a) for a in FRAME_INDICES] + [
        Q_back.entry(a, b) - Q.entry(a, b) for a in FRAME_INDICES for b in FRAME_INDICES
    ]
    checks.append(
        _check(
            "defect-round-trip",
            normalized_residual(round_trip, T.entries() + Q.entries(), points),
            tol,
        )
    )

    first, second, third = bianchi_residuals(e, omega)
    reference = omega.entries() + [e.e(a) for a in FRAME_INDICES]
    checks.append(_check("bianchi-curvature", normalized_residual(first.entries(), reference, points), tol))
    checks.append(_check("bianchi-torsion", normalized_residual(second.entries(), reference, points), tol))
    checks.append(_check("bianchi-nonmetricity", normalized_residual(third.entries(), reference, points), tol))

    split = curvature_split_residual(e, T, Q)
    checks.append(_check("curvature-split", normalized_residual(split.entries(), reference, points), tol))

    if scenario.gauge is not None:
        scenario.gauge.validate(points)
        flat = pure_gauge_connection(scenario.gauge)
        R = curvature(flat)
        checks.append(
            _check("gauge-flatness", normalized_residual(R.entries(), flat.entries(), points), tol)
        )
    return checks, None, None, {}


def _build_connection(scenario: Scenario):
    """The scenario's working connection: pure gauge if given, else gamma + L."""
    e = scenario.coframe
    if scenario.gauge is not None:
        return pure_gauge_connection(scenario.gauge)
    T, Q = reconstruct_defect_geometry(scenario.defects, e)
    return connection_with(levi_civita_connection(e), defect_one_form(T, Q, e))


def _cmd_defects(scenario: Scenario, args):
    if not (scenario.has("defects") or (scenario.has("coframe") and scenario.has("gauge"))):
        raise ScenarioError("the defects command needs [defects] or [coframe]+[gauge]")
    tol = scenario.numerics.tolerance
    points = _check_points(scenario)
    e = scenario.coframe
    e.validate(points)
    omega = _build_connection(scenario)
    extracted = extract_defects(e, omega)

    checks = []
    if scenario.gauge is None:
        residual = [
            extracted.burgers - scenario.defects.burgers,
            extracted.frank - scenario.defects.frank,
            extracted.point - scenario.defects.point,
            extracted.scalar - scenario.defects.scalar,
        ]
        reference = [
            scenario.defects.burgers,
            scenario.defects.frank,
            scenario.defects.point,
            scenario.defects.scalar,
        ]
        checks.append(
            _check("extraction-round-trip", normalized_residual(residual, reference, points), tol)
        )

    combo = extracted.burgers + extracted.frank * extracted.c1 + extracted.point * extracted.c2
    checks.append(
        _check(
            "generalized-burgers-combination",
            normalized_residual([extracted.generalized_burgers - combo], [combo], points),
            EXACT_TOL,
        )
    )

    samples = {
        "field_max_abs": {
            "burgers": batch_max(extracted.burgers, points),
            "frank": batch_max(extracted.frank, points),
            "point": batch_max(extracted.point, points),
            "rho": batch_max(extracted.scalar, points),
            "generalized_burgers": batch_max(extracted.generalized_burgers, points),
        }
    }
    extras = {}
    if args.csv:
        _write_defect_csv(args.csv, scenario, extracted)
        extras["csv"] = args.csv
    calib = {"frank_scale": calibration.FRANK_SCALE, "c1": extracted.c1, "c2": extracted.c2}
    return checks, calib, samples, extras


def batch_max(field, points) -> float:
    return float(np.max(np.abs(batch_components([field], points))))


def _write_defect_csv(path, scenario: Scenario, d):
    num = scenario.numerics
    axis = np.linspace(num.grid_min, num.grid_max, num.grid_n)
    X, Y, Z = np.meshgrid(axis, axis, axis, indexing="ij")
    xs, ys, zs = X.ravel(), Y.ravel(), Z.ravel()
    ts = np.zeros_like(xs)
    cols = [xs, ys, zs]
    for field in (d.burgers, d.frank, d.point):
        comps = field.evaluate_batch(xs, ys, zs, ts).components
        cols.extend([np.broadcast_to(c, xs.shape) for c in comps])
    cols.append(np.broadcast_to(d.scalar.evaluate_batch(xs, ys, zs, ts).components[0], xs.shape))
    comps = d.generalized_burgers.evaluate_batch(xs, ys, zs, ts).components
    cols.extend([np.broadcast_to(c, xs.shape) for c in comps])
    header = "x,y,z,b1,b2,b3,O1,O2,O3,m1,m2,m3,rho,B1,B2,B3"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in zip(*cols):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _cmd_kinematics(scenario: Scenario, args):
    scenario.require("defects")
    tol = scenario.numerics.tolerance
    points = _check_points(scenario)
    e = scenario.coframe
    e.validate(points)
    d = scenario.defects

    checks = []
    form_res, vec_res = dislocation_balance(d, e)
    if e.is_identity:
        iso_gap = [e.hodge(form_res.entry(a)) - vec_res.component(a) for a in FRAME_INDICES]
        checks.append(
            _check(
                "dislocation-form-vector-agreement",
                normalized_residual(iso_gap, list(vec_res.comps), points),
                tol,
            )
        )
    reference = [d.burgers, d.frank, d.point, d.scalar]
    checks.append(
        _check("dislocation-balance", normalized_residual(form_res.entries(), reference, points), tol)
    )
    point_curl, beltrami, algebraic = disclination_point_balance(d)
    checks.append(
        _check("point-defect-curl", normalized_residual(list(point_curl.comps), reference, points), tol)
    )
    checks.append(
        _check("disclination-beltrami", normalized_residual(list(beltrami.comps), reference, points), tol)
    )
    checks.append(
        _check(
            "bilinear-constraint",
            normalized_residual([f for row in algebraic for f in row], reference, points),
            tol,
        )
    )

    fits = bianchi_consistency(e, d, points=points)
    checks.append(
        _check("dislocation-curvature-fit", fits.dislocation.relative_residual, FIT_RESIDUAL_TOL)
    )
    checks.append(
        _check("dislocation-fit-stability", fits.dislocation.pointwise_std, FIT_STABILITY_TOL)
    )
    checks.append(
        _check("disclination-curvature-fit", fits.disclination.relative_residual, FIT_RESIDUAL_TOL)
    )
    calib = {
        "dislocation_factor": fits.dislocation.coefficient,
        "dislocation_fit_residual": fits.dislocation.relative_residual,
        "dislocation_fit_std": fits.dislocation.pointwise_std,
        "disclination_factor": fits.disclination.coefficient,
        "disclination_fit_residual": fits.disclination.relative_residual,
        "disclination_literal_factor": fits.disclination_literal.coefficient,
        "disclination_literal_fit_residual": fits.disclination_literal.relative_residual,
        "frank_scale": calibration.FRANK_SCALE,
    }
    return checks, calib, None, {}


def _cmd_elastic(scenario: Scenario, args):
    scenario.require("deformation", "material")
    tol = scenario.numerics.tolerance
    points = _check_points(scenario)
    e = scenario.coframe
    e.validate(points)
    dm = scenario.deformation
    check_invertible(dm, points, e)

    pull, push = deformation_gradients(dm, e)
    from .fields import scalar_field, zero_field

    checks = []
    gap = []
    for a in range(3):
        for b in range(3):
            acc = zero_field(0)
            for c in range(3):
                acc = acc + pull[a][c] * push[c][b]
            gap.append(acc - scalar_field(1.0 if a == b else 0.0))
    push_fields = [f for row in push for f in row]
    checks.append(_check("gradient-inverse", normalized_residual(gap, push_fields, points), 1e-10))

    checks.append(
        _check(
            "volume-relation",
            normalized_residual([volume_relation_residual(dm, e)], push_fields, points),
            max(tol, 1e-8),
        )
    )

    strain = euler_strain(dm, e)
    stress = isotropic_stress(strain, scenario.material, e)
    stress_c = stress_from_elasticity_tensor(strain, scenario.material, e)
    path_gap = [
        stress.entry(a, b) - stress_c.entry(a, b) for a in FRAME_INDICES for b in FRAME_INDICES
    ]
    strain_fields = [strain.entry(a, b) for a in FRAME_INDICES for b in FRAME_INDICES]
    checks.append(
        _check("stress-paths-agree", normalized_residual(path_gap, strain_fields, points), EXACT_TOL)
    )
    sym_gap = [
        strain.entry(a, b) - strain.entry(b, a) for a in FRAME_INDICES for b in FRAME_INDICES if a < b
    ]
    checks.append(
        _check("strain-symmetric", normalized_residual(sym_gap, strain_fields, points), EXACT_TOL)
    )

    center = Point(
        0.5 * (scenario.numerics.grid_min + scenario.numerics.grid_max),
        0.5 * (scenario.numerics.grid_min + scenario.numerics.grid_max),
        0.5 * (scenario.numerics.grid_min + scenario.numerics.grid_max),
    )
    from .elasticity import cauchy_motion_residual
    from .fields import VectorField

    static = cauchy_motion_residual(
        scalar_field(1.0), VectorField.zero(), VectorField.zero(), stress, e
    )
    samples = {
        "at": [center.x, center.y, center.z],
        "strain": [[float(strain.entry(a, b).evaluate(center).components[0]) for b in FRAME_INDICES] for a in FRAME_INDICES],
        "stress": [[float(stress.entry(a, b).evaluate(center).components[0]) for b in FRAME_INDICES] for a in FRAME_INDICES],
        # stress-divergence norm for the unforced static configuration;
        # informational, a generic deformation is not in equilibrium
        "static_momentum_residual_max": float(
            np.max(np.abs(batch_components(static, points)))
        ),
    }
    return checks, None, samples, {}


def _cmd_energy(scenario: Scenario, args):
    scenario.require("defects", "couplings")
    points = _check_points(scenario)
    e = scenario.coframe
    e.validate(points)
    num = scenario.numerics
    d, k = scenario.defects, scenario.couplings

    checks = []
    gap = [lagrangian_form(d, k, e) - lagrangian_vector(d, k, e)]
    checks.append(
        _check(
            "lagrangian-representations-agree",
            normalized_residual(gap, [lagrangian_form(d, k, e)], points),
            EXACT_TOL,
        )
    )
    estimate = total_free_energy_estimate(
        d,
        k,
        (num.grid_min,) * 3,
        (num.grid_max,) * 3,
        num.grid_n,
        e=e,
    )
    scale = max(abs(estimate.fine), 1e-8)
    checks.append(_check("richardson-consistent", estimate.error_estimate / scale, 0.01))
    samples = {
        "resolution": [num.grid_n, 2 * num.grid_n],
        "coarse": estimate.coarse,
        "fine": estimate.fine,
        "extrapolated": estimate.extrapolated,
        "error_estimate": estimate.error_estimate,
    }
    return checks, None, samples, {}


def _cmd_calibrate(scenario: Scenario, args):
    points = _check_points(scenario)
    e = scenario.coframe
    e.validate(points)
    calib = calibration.run_calibration(e, points)
    checks = [
        _check(
            "frank-scale-regression",
            abs(calib["frank_scale"] - calibration.EXPECTED_FRANK_SCALE)
            / calibration.EXPECTED_FRANK_SCALE,
            1e-3,
        ),
        _check("frank-scale-position-independent", calib["frank_scale_rel_std"], 1e-3),
        _check(
            "dislocation-factor-regression",
            abs(calib["dislocation_factor"] - calibration.DISLOCATION_CURVATURE_FACTOR),
            1e-6,
        ),
        _check("dislocation-fit-residual", calib["dislocation_fit_residual"], FIT_RESIDUAL_TOL),
        _check(
            "disclination-factor-regression",
            abs(calib["disclination_factor"] - calibration.DISCLINATION_CURVATURE_FACTOR),
            1e-6,
        ),
        _check(
            "flux-factor-regression",
            abs(calib["ansatz_flux_factor"] - calibration.ANSATZ_FLUX_FACTOR),
            1e-6,
        ),
        _check("piece1-interior-trace", calib["piece1_interior_trace"], 1e-10),
        _check("piece1-wedge-trace", calib["piece1_wedge_trace"], 1e-10),
    ]
    return checks, calib, None, {}


_COMMANDS = {
    "check": _cmd_check,
    "defects": _cmd_defects,
    "kinematics": _cmd_kinematics,
    "elastic": _cmd_elastic,
    "energy": _cmd_energy,
    "calibrate": _cmd_calibrate,
}


# ---- report assembly -------------------------------------------------------------


def _assemble_report(args, scenario: Scenario, checks, calib, samples, extras, elapsed):
    with open(args.scenario, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    report = {
        "schema": SCHEMA,
        "command": args.command,
        "scenario": {"path": args.scenario, "sha256": digest},
        "settings": {
            "tolerance": scenario.numerics.tolerance,
            "fd_step": scenario.numerics.fd_step,
            "grid_n": scenario.numerics.grid_n,
            "grid_bounds": [scenario.numerics.grid_min, scenario.numerics.grid_max],
            "deterministic": bool(args.deterministic),
        },
        "checks": checks,
        "calibration": calib,
        "samples": samples,
        "timing_s": elapsed,
    }
    report.update(extras)
    return report


def _emit(report, args):
    for c in report["checks"]:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"[{status}] {c['name']}: max_residual={c['max_residual']:.3e} tolerance={c['tolerance']:.3e}")
    text = json.dumps(report, indent=2)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
