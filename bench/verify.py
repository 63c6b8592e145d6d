"""Output checks: exit codes, strict-JSON reports, verdict tables and oracles.

An invocation fails when any of these disagree with what is expected; the
benchmark counts it in `failed` and keeps measuring.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from scengen import DEFECT_KEYS, Invocation

CSV_HEADER = "x,y,z,b1,b2,b3,O1,O2,O3,m1,m2,m3,rho,B1,B2,B3"
CSV_FIELDS = ("b1", "b2", "b3", "omega1", "omega2", "omega3", "m1", "m2", "m3", "rho")

#: (exit code, checks expected to fail) of each command on generated
#: scenarios.  Every other check in the report must pass.  Random quadratic
#: defect fields violate these four balance laws by O(1) residuals, far above
#: any tolerance, so the kinematics verdict is the same for every seed.
GENERATED = {
    "check": (0, ()),
    "defects": (0, ()),
    "kinematics": (1, ("dislocation-balance", "point-defect-curl",
                       "disclination-beltrami", "bilinear-constraint")),
    "elastic": (0, ()),
    "energy": (0, ()),
    "calibrate": (0, ()),
}

#: the same for the committed reference scenarios, recorded on the seed
#: commit; a scenario or command missing here fails loudly.
REFERENCE = {
    "beltrami.toml": {
        "check": (0, ()), "defects": (0, ()),
        "kinematics": (1, ("dislocation-balance", "bilinear-constraint")),
        "elastic": (2, ()), "energy": (2, ()), "calibrate": (0, ()),
    },
    "default.toml": {
        "check": (0, ()), "defects": (2, ()), "kinematics": (2, ()),
        "elastic": (2, ()), "energy": (2, ()), "calibrate": (0, ()),
    },
    "dilation.toml": {
        "check": (0, ()), "defects": (2, ()), "kinematics": (2, ()),
        "elastic": (0, ()), "energy": (2, ()), "calibrate": (0, ()),
    },
    "energy_linear_rho.toml": {
        "check": (0, ()), "defects": (0, ()),
        "kinematics": (1, ("dislocation-balance",)),
        "elastic": (2, ()), "energy": (0, ()), "calibrate": (0, ()),
    },
    "gauge_rotation.toml": {
        "check": (0, ()), "defects": (0, ()),
        "kinematics": (1, ("dislocation-balance",)),
        "elastic": (2, ()), "energy": (2, ()), "calibrate": (0, ()),
    },
    "mixed_defects.toml": {
        "check": (0, ()), "defects": (0, ()),
        "kinematics": (1, ("bilinear-constraint",)),
        "elastic": (2, ()), "energy": (2, ()), "calibrate": (0, ()),
    },
}


def expected(inv: Invocation):
    if inv.scenario.data.get("reference"):
        return REFERENCE.get(inv.scenario.name, {}).get(inv.command)
    if inv.scenario.data.get("rejected"):
        return (2, ())
    return GENERATED[inv.command]


def _reject_constant(token):
    raise ValueError(f"non-finite number {token} in report")


def load_strict(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity (RFC 8259)."""
    return json.loads(text, parse_constant=_reject_constant)


def verify(inv: Invocation, code, report_path: Path, csv_path: Path | None, timed_out=False,
           stderr_path: Path | None = None):
    """Problems with one invocation's outcome; an empty list means it passed."""
    if timed_out:
        return ["timed out"]
    want = expected(inv)
    if want is None:
        return [f"no expected verdict for {inv.label}"]
    want_code, want_failing = want
    if code != want_code:
        return [f"exit code {code}, expected {want_code}"]
    if want_code == 2:
        if inv.error:
            try:
                err = Path(stderr_path).read_text(encoding="utf-8", errors="replace")
            except (OSError, TypeError):
                err = ""
            if inv.error not in err:
                return [f"stderr lacks the expected error {inv.error!r}"]
        return []
    try:
        report = load_strict(Path(report_path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"report unreadable: {exc}"]
    problems = []
    if report.get("command") != inv.command or not str(report.get("schema", "")).startswith("defectgeo-report-"):
        problems.append("report header does not match the invocation")
    checks = report.get("checks") or []
    names = {c.get("name") for c in checks}
    for name in want_failing:
        if name not in names:
            problems.append(f"check {name} missing")
    for c in checks:
        if bool(c.get("passed")) != (c.get("name") not in want_failing):
            problems.append(f"check {c.get('name')} passed={c.get('passed')}, expected the opposite")
    if not problems:
        problems += oracle(inv, report, csv_path)
    return problems


# ---- oracles ------------------------------------------------------------------


def poly_eval(terms, x, y, z):
    return sum(c * x ** p[0] * y ** p[1] * z ** p[2] for c, p in terms)


def free_energy_density(polys, kappas, x, y, z):
    """kappa-weighted dot products of the defect vectors (identity coframe)."""
    v = {k: poly_eval(polys[k], x, y, z) for k in DEFECT_KEYS}
    b = [v["b1"], v["b2"], v["b3"]]
    o = [v["omega1"], v["omega2"], v["omega3"]]
    m = [v["m1"], v["m2"], v["m3"]]

    def dot(p, q):
        return sum(pi * qi for pi, qi in zip(p, q))

    k1, k2, k3, k4, k5, k6, k7 = kappas
    return (k1 * dot(b, b) + k2 * v["rho"] ** 2 + k3 * dot(o, o) + k4 * dot(m, m)
            + k5 * dot(o, m) + k6 * dot(b, o) + k7 * dot(b, m))


def gauss_legendre_energy(polys, kappas, lo=-1.0, hi=1.0, order=3):
    """Exact for the degree-4 density of quadratic defects (order 3 is exact to 5)."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    half = 0.5 * (hi - lo)
    pts = lo + half * (nodes + 1.0)
    X, Y, Z = np.meshgrid(pts, pts, pts, indexing="ij")
    W = np.einsum("i,j,k->ijk", weights, weights, weights) * half ** 3
    return float(np.sum(W * free_energy_density(polys, kappas, X, Y, Z)))


#: Richardson-extrapolated midpoint quadrature of a degree-4 density keeps an
#: h^4 error term, well below this at N = 24.
ENERGY_RTOL = 1e-6
STRAIN_ATOL = 1e-6


def _close(got, want, atol, what):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape or not np.allclose(got, want, rtol=0.0, atol=atol):
        return [f"{what} differs from the oracle by {np.max(np.abs(got - want)) if got.shape == want.shape else 'shape'}"]
    return []


def _strain_stress_oracle(report, strain, lam, mu):
    strain = np.asarray(strain, dtype=float)
    stress = 2.0 * mu * strain + lam * np.trace(strain) * np.eye(3)
    samples = report.get("samples") or {}
    return (_close(samples.get("strain"), strain, STRAIN_ATOL, "strain")
            + _close(samples.get("stress"), stress, STRAIN_ATOL * (2 * mu + 3 * lam), "stress"))


def _csv_oracle(report, csv_path, polys):
    grid = int(report["settings"]["grid_n"])
    try:
        with open(csv_path, encoding="utf-8") as fh:
            header = fh.readline().strip()
        data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        return [f"csv unreadable: {exc}"]
    if header != CSV_HEADER:
        return ["csv header differs"]
    if data.shape != (grid ** 3, 16):
        return [f"csv has shape {data.shape}, expected {(grid ** 3, 16)}"]
    if polys is None:
        return []
    x, y, z = data[:, 0], data[:, 1], data[:, 2]
    want = np.stack([poly_eval(polys[k], x, y, z) for k in CSV_FIELDS], axis=1)
    return _close(data[:, 3:13], want, 1e-9 * (1.0 + np.max(np.abs(want))), "csv defect columns")


def oracle(inv: Invocation, report, csv_path):
    """Independent checks of reported numbers where they are cheap to compute."""
    data, samples = inv.scenario.data, report.get("samples") or {}
    if inv.csv and inv.command == "defects":
        return _csv_oracle(report, csv_path, data.get("defects"))
    if inv.command == "energy":
        if "kappas" in data:
            want = gauss_legendre_energy(data["defects"], data["kappas"])
        elif inv.scenario.name == "energy_linear_rho.toml":
            want = 1.0 / 3.0  # rho = x, kappa2 = 1 on the unit cube
        else:
            return []
        got = samples.get("extrapolated")
        if not isinstance(got, (int, float)) or abs(got - want) > ENERGY_RTOL * max(1.0, abs(want)):
            return [f"energy {got} differs from the Gauss-Legendre value {want}"]
        return []
    if inv.command == "elastic":
        if "scales" in data:
            strain = np.diag([0.5 * (1.0 - 1.0 / s ** 2) for s in data["scales"]])
            return _strain_stress_oracle(report, strain, data["lambda"], data["mu"])
        if "linear" in data:
            F = np.asarray(data["linear"])  # dX^A/dx^a at the grid centre (origin)
            return _strain_stress_oracle(report, 0.5 * (np.eye(3) - F.T @ F), data["lambda"], data["mu"])
        if inv.scenario.name == "dilation.toml":  # X = x/2, lambda = mu = 1
            return _strain_stress_oracle(report, np.eye(3) * 0.375, 1.0, 1.0)
    return []

