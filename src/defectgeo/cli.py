"""Batch front door: load a scenario file, run an analysis suite, emit reports.

    defectgeo <check|defects|kinematics|elastic|energy|calibrate> scenario.toml
              [--grid N] [--json PATH] [--deterministic] [--tolerance X]
    defectgeo defects scenario.toml [--csv PATH] ...

Exit codes: 0 all checks passed, 1 at least one check failed, 2 the scenario
could not be parsed or validated, or a field or report value is not finite,
3 an unexpected internal error.  The first failure detail goes to stderr, on
one line.  JSON reports have a fixed key order and hold finite numbers only;
with --deterministic the timing field is zeroed so byte-identical inputs give
byte-identical reports.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np

# CPython's built-in SHA-256, the one hashlib falls back to: importing hashlib
# loads OpenSSL's libcrypto, which adds 3.6 MB of resident memory to every call
# to digest a scenario file of a few KB
try:
    from _sha2 import sha256  # Python 3.12 on
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from .defects import FRANK_SCALE, GENERALIZED_BURGERS_C1 as C1, GENERALIZED_BURGERS_C2 as C2
from .defects import extract_defects, reconstruct_defect_geometry
from .errors import DefectGeoError, ScenarioError
from .fields import VectorField, evaluate_fields, matrix_multiply, scalar_field
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
from .sampling import batch_groups, check_points, grid_blocks, max_abs, normalized_residuals
from .scenario import Scenario, decode_scenario, parse_scenario, validate_numerics

SCHEMA = "defectgeo-report-v2"

#: fixed tolerances of the calibration-fit and exact-identity checks (not scenario-tunable)
FIT_RESIDUAL_TOL = 1e-4
EXACT_TOL = 1e-12


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except (DefectGeoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of this program, not of the scenario
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def _run(args) -> int:
    started = time.perf_counter()
    with open(args.scenario, "rb") as fh:
        data = fh.read()
    scenario = _apply_overrides(parse_scenario(decode_scenario(data)), args)
    # non-finite values are reported as errors below, so numpy's warnings are noise
    with np.errstate(all="ignore"):
        checks, calib, samples, extras = _COMMANDS[args.command](scenario, args)
    elapsed = 0.0 if args.deterministic else time.perf_counter() - started
    digest = sha256(data).hexdigest()
    report = _assemble_report(args, scenario, digest, checks, calib, samples, extras, elapsed)
    bad = _first_non_finite(report)
    if bad is not None:
        print(f"error: report value {bad[0]} is not finite ({bad[1]}); no report written", file=sys.stderr)
        return 2
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
        ("kinematics", "kinematic balance residuals and curvature identities"),
        ("elastic", "deformation, strain, stress, and balance checks"),
        ("energy", "free-energy quadrature with error estimate"),
        ("calibrate", "re-measure the frozen calibration constants"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("scenario", help="path to the scenario file")
        p.add_argument("--grid", type=int, default=None, help="override grid resolution")
        if name == "defects":
            p.add_argument("--csv", default=None, help="write field grids as CSV")
        p.add_argument("--json", default=None, help="write the JSON report to this path")
        p.add_argument(
            "--deterministic",
            action="store_true",
            help="zero the timing field so reports are byte-identical",
        )
        p.add_argument("--tolerance", type=float, default=None, help="override check tolerance")
    return parser


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    flags = {"tolerance": "--tolerance", "grid_n": "--grid"}
    values = (args.tolerance, args.grid)
    given = {key: value for key, value in zip(flags, values) if value is not None}
    num = replace(scenario.numerics, **given)
    validate_numerics(num, names={key: flags[key] for key in given})
    return replace(scenario, numerics=num)


def _validated_points(scenario: Scenario):
    """The scenario's check points, once its coframe is found nonsingular on them."""
    num = scenario.numerics
    points = check_points(num.grid_min, num.grid_max, num.grid_n)
    scenario.coframe.validate(points)
    return points


def _residual_checks(table, points):
    """`_check` rows of (name, residual_fields, reference_fields, tolerance) entries, from one walk."""
    values = normalized_residuals([(res, ref) for _, res, ref, _ in table], points)
    return [_check(name, value, tol) for (name, _, _, tol), value in zip(table, values)]


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
    points = _validated_points(scenario)
    e = scenario.coframe

    gamma = levi_civita_connection(e)
    # the Levi-Civita connection is torsion- and nonmetricity-free
    contract = torsion(e, gamma).entries() + nonmetricity(gamma).entries()
    frame = [e.e(a) for a in FRAME_INDICES]

    T, Q = reconstruct_defect_geometry(scenario.defects, e)
    L = defect_one_form(T, Q, e)
    omega = connection_with(gamma, L)
    T_back = torsion(e, omega)
    Q_back = nonmetricity(omega)
    round_trip = [T_back.entry(a) - T.entry(a) for a in FRAME_INDICES] + [
        Q_back.entry(a, b) - Q.entry(a, b) for a in FRAME_INDICES for b in FRAME_INDICES
    ]

    first, second, third = bianchi_residuals(e, omega)
    split = curvature_split_residual(e, T, Q)
    reference = omega.entries() + frame
    table = [
        ("levi-civita-contract", contract, frame + gamma.entries(), tol),
        ("defect-round-trip", round_trip, T.entries() + Q.entries(), tol),
        ("bianchi-curvature", first.entries(), reference, tol),
        ("bianchi-torsion", second.entries(), reference, tol),
        ("bianchi-nonmetricity", third.entries(), reference, tol),
        ("curvature-split", split.entries(), reference, tol),
    ]
    if scenario.gauge is not None:
        scenario.gauge.validate(points)
        flat = pure_gauge_connection(scenario.gauge)
        table.append(("gauge-flatness", curvature(flat).entries(), flat.entries(), tol))
    return _residual_checks(table, points), None, None, {}


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
    points = _validated_points(scenario)
    e = scenario.coframe
    omega = _build_connection(scenario)
    extracted = extract_defects(e, omega)

    sampled = {
        "burgers": extracted.burgers,
        "frank": extracted.frank,
        "point": extracted.point,
        "rho": extracted.scalar,
        "generalized_burgers": extracted.generalized_burgers,
    }
    groups = [[f] for f in sampled.values()]
    if scenario.gauge is None:
        given = scenario.defects
        residual = [
            extracted.burgers - given.burgers,
            extracted.frank - given.frank,
            extracted.point - given.point,
            extracted.scalar - given.scalar,
        ]
        reference = [given.burgers, given.frank, given.point, given.scalar]
        round_trip, *values = normalized_residuals([(residual, reference)], points, groups=groups)
        checks = [_check("extraction-round-trip", round_trip, tol)]
    else:
        checks, values = [], batch_groups(groups, points)
    samples = {"field_max_abs": {name: float(np.max(np.abs(v))) for name, v in zip(sampled, values)}}
    extras = {}
    if args.csv:
        _write_defect_csv(args.csv, scenario, extracted)
        extras["csv"] = args.csv
    calib = {"frank_scale": FRANK_SCALE, "c1": C1, "c2": C2}
    return checks, calib, samples, extras


def _write_defect_csv(path, scenario: Scenario, d):
    """The five defect fields on the scenario grid, one row per node, block by block."""
    num = scenario.numerics
    fields = [d.burgers, d.frank, d.point, d.scalar, d.generalized_burgers]
    header = "x,y,z,b1,b2,b3,O1,O2,O3,m1,m2,m3,rho,B1,B2,B3"
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            for block in grid_blocks((num.grid_min,) * 3, (num.grid_max,) * 3, (num.grid_n,) * 3):
                values = evaluate_fields(fields, *block.T)
                table = np.column_stack([block[:, :3]] + [c for v in values for c in v.components])
                for row in table:
                    fh.write(",".join(map(repr, row.tolist())) + "\n")
    except DefectGeoError:
        os.remove(path)  # a value of a later block was bad: leave no partial grid
        raise


def _cmd_kinematics(scenario: Scenario, args):
    from .kinematics import (
        DISCLINATION_CURVATURE_FACTOR,
        DISLOCATION_CURVATURE_FACTOR,
        curvature_identity_sides,
        disclination_point_balance,
    )

    scenario.require("defects")
    tol = scenario.numerics.tolerance
    points = _validated_points(scenario)
    e = scenario.coframe
    d = scenario.defects

    reference = [d.burgers, d.frank, d.point, d.scalar]
    point_curl, beltrami, algebraic = disclination_point_balance(d, e)
    # A is the dislocation balance residual; each curvature identity is scaled
    # against its own two sides, which are quadratic in the defect fields
    A, B, C, R_sym = curvature_identity_sides(d, e)
    dislocation_gap = [a - b * DISLOCATION_CURVATURE_FACTOR for a, b in zip(A, B)]
    disclination_gap = [c - r * DISCLINATION_CURVATURE_FACTOR for c, r in zip(C, R_sym)]
    table = [
        ("dislocation-balance", A, reference, tol),
        ("point-defect-curl", point_curl, reference, tol),
        ("disclination-beltrami", beltrami, reference, tol),
        ("bilinear-constraint", [f for row in algebraic for f in row], reference, tol),
        ("dislocation-curvature-identity", dislocation_gap, A + B, EXACT_TOL),
        ("disclination-curvature-identity", disclination_gap, C + R_sym, EXACT_TOL),
    ]
    checks = _residual_checks(table, points)
    calib = {
        "dislocation_curvature_factor": DISLOCATION_CURVATURE_FACTOR,
        "disclination_curvature_factor": DISCLINATION_CURVATURE_FACTOR,
        "frank_scale": FRANK_SCALE,
    }
    return checks, calib, None, {}


def _cmd_elastic(scenario: Scenario, args):
    from .elasticity import (
        cauchy_motion_residual,
        check_invertible,
        deformation_gradients,
        euler_strain,
        isotropic_stress,
        stress_from_elasticity_tensor,
        volume_relation_residual,
    )

    scenario.require("deformation", "material")
    tol = scenario.numerics.tolerance
    points = _validated_points(scenario)
    e = scenario.coframe
    dm = scenario.deformation
    check_invertible(dm, points, e)

    pull, push = deformation_gradients(dm, e)
    product = matrix_multiply(pull, push)
    gap = [product[a][b] - scalar_field(1.0 if a == b else 0.0) for a in range(3) for b in range(3)]
    push_fields = [f for row in push for f in row]

    strain = euler_strain(dm, e)
    stress = isotropic_stress(strain, scenario.material, e)
    stress_c = stress_from_elasticity_tensor(strain, scenario.material, e)
    path_gap = [
        stress.entry(a, b) - stress_c.entry(a, b) for a in FRAME_INDICES for b in FRAME_INDICES
    ]
    strain_fields = [strain.entry(a, b) for a in FRAME_INDICES for b in FRAME_INDICES]
    volume_gap = [volume_relation_residual(dm, e)]
    checks = _residual_checks(
        [
            ("gradient-inverse", gap, push_fields, 1e-10),
            ("volume-relation", volume_gap, push_fields, max(tol, 1e-8)),
            ("stress-paths-agree", path_gap, strain_fields, EXACT_TOL),
        ],
        points,
    )

    center = 0.5 * (scenario.numerics.grid_min + scenario.numerics.grid_max)
    static = cauchy_motion_residual(
        scalar_field(1.0), VectorField.zero(), VectorField.zero(), stress, e
    )
    stress_fields = [stress.entry(a, b) for a in FRAME_INDICES for b in FRAME_INDICES]
    at = np.full(1, center)
    values = [float(v.components[0, 0]) for v in evaluate_fields(strain_fields + stress_fields, at, at, at)]
    samples = {
        "at": [center, center, center],
        "strain": [values[3 * a: 3 * a + 3] for a in range(3)],
        "stress": [values[9 + 3 * a: 12 + 3 * a] for a in range(3)],
        # stress-divergence norm for the unforced static configuration;
        # informational, a generic deformation is not in equilibrium
        "static_momentum_residual_max": max_abs(static, points),
    }
    return checks, None, samples, {}


def _cmd_energy(scenario: Scenario, args):
    from .energy import lagrangian_form, lagrangian_vector, total_free_energy_estimate

    scenario.require("defects", "couplings")
    points = _validated_points(scenario)
    e = scenario.coframe
    num = scenario.numerics
    d, k = scenario.defects, scenario.couplings

    form = lagrangian_form(d, k, e)
    gap = [form - lagrangian_vector(d, k, e)]
    checks = _residual_checks([("lagrangian-representations-agree", gap, [form], EXACT_TOL)], points)
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
    from . import calibration

    points = _validated_points(scenario)
    calib = calibration.run_calibration(scenario.coframe, points)
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


def _assemble_report(args, scenario: Scenario, digest, checks, calib, samples, extras, elapsed):
    report = {
        "schema": SCHEMA,
        "command": args.command,
        "scenario": {"path": args.scenario, "sha256": digest},
        "settings": {
            "tolerance": scenario.numerics.tolerance,
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


def _first_non_finite(value, key="report"):
    """(key, value) of the first non-finite number in a report, in key order, or None."""
    if isinstance(value, dict):
        items = ((f"{key}.{k}", v) for k, v in value.items())
    elif isinstance(value, (list, tuple)):
        items = ((f"{key}[{i}]", v) for i, v in enumerate(value))
    elif isinstance(value, float) and not np.isfinite(value):
        return key, value
    else:
        return None
    for sub_key, sub in items:
        found = _first_non_finite(sub, sub_key)
        if found is not None:
            return found
    return None


def _emit(report, args):
    for c in report["checks"]:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"[{status}] {c['name']}: max_residual={c['max_residual']:.3e} tolerance={c['tolerance']:.3e}")
    text = json.dumps(report, indent=2, allow_nan=False)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def entry():
    """Process entry of `python -m defectgeo.cli` and the `defectgeo` script.

    Exits with main()'s code after freezing the collector, so the
    interpreter's shutdown collections skip the heap the run built; streams
    are still flushed and `atexit` handlers still run.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":  # pragma: no cover
    entry()
