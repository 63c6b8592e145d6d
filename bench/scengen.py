"""Seeded scenario generator for the benchmark workloads.

Every generated input is a function of (workload, seed) only: the same pair
gives byte-identical scenario files.  Polynomials and their coefficients are
made here, so the oracles in `verify.py` can integrate and evaluate them
without going through defectgeo.

Coefficients keep a fixed structure (every monomial present, magnitudes kept
away from 0 and 1) so constant folding never prunes a term: the expression
DAGs, and with them the work per invocation, are the same size for every
seed.  Only the values change.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

DEFECT_KEYS = ("b1", "b2", "b3", "omega1", "omega2", "omega3", "m1", "m2", "m3", "rho")
QUADRATIC = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
             (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))
VARS = ("x", "y", "z")
COMMANDS = ("check", "defects", "kinematics", "elastic", "energy", "calibrate")


@dataclass
class Scenario:
    """One scenario file: its text plus the data the oracles need."""

    name: str
    text: str
    data: dict = field(default_factory=dict)
    path: Path | None = None


@dataclass
class Invocation:
    """One CLI call: `defectgeo <command> <scenario> <args...>`."""

    command: str
    scenario: Scenario
    args: tuple = ()
    csv: bool = False
    #: for an expected exit 2: text the error message on stderr must contain
    error: str = ""

    @property
    def label(self) -> str:
        return " ".join((self.command, self.scenario.name) + tuple(self.args))


def _coef(rng: random.Random, lo: float, hi: float) -> float:
    """A signed coefficient with |c| in [lo, hi], rounded as it is written."""
    return float(f"{rng.uniform(lo, hi) * rng.choice((-1.0, 1.0)):.6f}")


def _monomial(powers) -> str:
    return "*".join(v for v, p in zip(VARS, powers) for _ in range(p))


def poly_text(terms) -> str:
    """`[(c, (px, py, pz)), ...]` as an expression string."""
    parts = []
    for c, powers in terms:
        mono = _monomial(powers)
        parts.append(f"{c:.6f}" + (f"*{mono}" if mono else ""))
    return " + ".join(parts).replace("+ -", "- ")


def random_quadratic(rng: random.Random):
    return [(_coef(rng, 0.2, 0.95), p) for p in QUADRATIC]


def _defects_section(rng: random.Random):
    polys = {k: random_quadratic(rng) for k in DEFECT_KEYS}
    lines = ["[defects]"] + [f'{k} = "{poly_text(polys[k])}"' for k in DEFECT_KEYS]
    return polys, lines


def curved_scenario(rng: random.Random, name: str) -> Scenario:
    """Diagonal linear triad h_aa = 1 + sum_v c_av v with |c| <= 0.1.

    Each diagonal entry stays in [0.7, 1.3] on [-1, 1]^3, so the triad is
    invertible for every seed.  Off-diagonal entries would make every
    invocation several seconds long (check: 3 s with an upper-triangular
    triad, 6 s with a full one), too long to repeat often within a run.
    """
    lines = ["[coframe]"]
    for a in (1, 2, 3):
        lin = [(_coef(rng, 0.02, 0.1), tuple(int(i == v) for i in range(3))) for v in range(3)]
        lines.append(f'h{a}{a} = "{poly_text([(1.0, (0, 0, 0))] + lin)}"')
    polys, defect_lines = _defects_section(rng)
    return Scenario(name, "\n".join(lines + defect_lines) + "\n", {"defects": polys})


def flat_scenario(rng: random.Random, name: str) -> Scenario:
    """Identity coframe, quadratic defects, all seven couplings nonzero."""
    polys, lines = _defects_section(rng)
    kappas = [float(f"{rng.uniform(0.2, 1.5):.6f}") for _ in range(7)]
    lines.append("[couplings]")
    lines += [f"kappa{i} = {k:.6f}" for i, k in enumerate(kappas, start=1)]
    return Scenario(name, "\n".join(lines) + "\n", {"defects": polys, "kappas": kappas})


def _material_lines(rng: random.Random):
    lam = float(f"{rng.uniform(0.5, 2.0):.6f}")
    mu = float(f"{rng.uniform(0.5, 2.0):.6f}")
    return lam, mu, ["[material]", f"lambda = {lam:.6f}", f"mu = {mu:.6f}", "kappa = 0.0"]


def forward_scale_scenario(rng: random.Random, name: str) -> Scenario:
    """Forward map x^a = s_a X^a: Newton inversion per point, exact strain known."""
    scales = [float(f"{rng.uniform(1.05, 1.25) ** rng.choice((-1, 1)):.6f}") for _ in range(3)]
    lam, mu, material = _material_lines(rng)
    lines = ["[deformation]", "kind = forward"]
    lines += [f'X{i} = "{s:.6f}*{v}"' for i, (s, v) in enumerate(zip(scales, VARS), start=1)]
    text = "\n".join(lines + material) + "\n"
    return Scenario(name, text, {"scales": scales, "lambda": lam, "mu": mu})


def forward_stretch_scenario(rng: random.Random, name: str) -> Scenario:
    """Forward map x^a = s_a X^a with s_a in [500, 600]: rejected by elastic.

    det F^A_a = 1 / (s1 s2 s3) <= 8e-9 lies below the 1e-8 floor of
    `check_invertible`, so `elastic` exits 2 once it has evaluated the
    determinant at every check point, each entry a finite difference through
    per-point Newton inversions.
    """
    scales = [float(f"{rng.uniform(500.0, 600.0):.6f}") for _ in range(3)]
    _, _, material = _material_lines(rng)
    lines = ["[deformation]", "kind = forward"]
    lines += [f'X{i} = "{s:.6f}*{v}"' for i, (s, v) in enumerate(zip(scales, VARS), start=1)]
    return Scenario(name, "\n".join(lines + material) + "\n", {"scales": scales, "rejected": True})


def inverse_nonlinear_scenario(rng: random.Random, name: str) -> Scenario:
    """Inverse map X^A = (I + 0.1 M) x + quadratic terms; linear part known."""
    linear = [[(1.0 if A == a else 0.0) + _coef(rng, 0.02, 0.1) for a in range(3)] for A in range(3)]
    linear = [[float(f"{v:.6f}") for v in row] for row in linear]
    lam, mu, material = _material_lines(rng)
    lines = ["[deformation]", "kind = inverse"]
    for A in range(3):
        terms = [(linear[A][a], tuple(int(i == a) for i in range(3))) for a in range(3)]
        terms += [(_coef(rng, 0.01, 0.04), p) for p in QUADRATIC[4:]]
        lines.append(f'X{A + 1} = "{poly_text(terms)}"')
    text = "\n".join(lines + material) + "\n"
    return Scenario(name, text, {"linear": linear, "lambda": lam, "mu": mu})


# ---- workloads --------------------------------------------------------------
#
# Each builder returns the invocations of one pass, in order.  The comments
# say why the workload exists; README.md has the measured seed numbers.


def identities_curved(rng: random.Random, root: Path):
    # Symbolic build plus DAG evaluation is nearly all of the time, and the
    # arrays are tiny (at most 125 check points): the workload where
    # hash-consing and a shared evaluation plan show.
    s = curved_scenario(rng, "curved.toml")
    return [Invocation(c, s) for c in ("check", "kinematics", "defects", "calibrate")]


def quadrature_flat(rng: random.Random, root: Path):
    # Small DAGs over large arrays: numpy kernels, intermediate-array memory
    # and check-point construction dominate.  Sized well below machine memory
    # (energy at --grid 24 also integrates at 48, about 0.3 GB peak; --grid 64
    # would peak at 5.5 GB) and short enough to repeat often within a run.
    s = flat_scenario(rng, "flat.toml")
    return [
        Invocation("energy", s, ("--grid", "24")),
        Invocation("check", s, ("--grid", "48")),
        Invocation("defects", s, ("--grid", "24"), csv=True),
    ]


def forward_elastic(rng: random.Random, root: Path):
    # The forward path: per-point Newton inversion under finite differences,
    # the only path on which NumericFormField.evaluate runs.  An accepted
    # forward map takes 15-30 s even at --grid 2 (see forward_full), one
    # sample per run and too unsteady to gate, so the timed forward maps are
    # three that elastic rejects after the determinant check at 27 points
    # (about 1 s each; three, so that latency_p50_s is one of them).  Beside
    # them, two nonlinear inverse maps reach the same elasticity layer
    # symbolically; exact forward maps should leave them alone.
    stretch = [Invocation("elastic", forward_stretch_scenario(rng, f"stretch{i}.toml"), ("--grid", "3"),
                          error="deformation-gradient determinant") for i in range(3)]
    inverse = [Invocation("elastic", inverse_nonlinear_scenario(rng, f"inverse{i}.toml")) for i in range(2)]
    return stretch + inverse


def forward_full(rng: random.Random, root: Path):
    # An accepted forward map: Newton inversion under nested finite
    # differences (second derivatives for the static momentum residual).
    # --grid 2 is the smallest grid and still 15-30 s; general affine and
    # nonlinear forward maps take 30-145 s and are left out.
    return [Invocation("elastic", forward_scale_scenario(rng, "forward.toml"), ("--grid", "2"))]


def reference_suite(rng: random.Random, root: Path):
    # Every command on every committed scenario: start-up, parsing and report
    # assembly are most of each invocation, and the intended exit-1 and exit-2
    # outcomes are covered.  The seed only shuffles the order.
    files = sorted((root / "scenarios").glob("*.toml"))
    if not files:
        raise FileNotFoundError(f"no reference scenarios under {root / 'scenarios'}")
    out = []
    for f in files:
        s = Scenario(f.name, f.read_text(encoding="utf-8"), {"reference": True}, path=f)
        out += [Invocation(c, s, csv=(c == "defects")) for c in COMMANDS]
    rng.shuffle(out)
    return out


WORKLOADS = {
    "identities-curved": identities_curved,
    "quadrature-flat": quadrature_flat,
    "forward-elastic": forward_elastic,
    "forward-full": forward_full,
    "reference-suite": reference_suite,
}


def generate(workload: str, seed: int, root: Path, out_dir: Path):
    """Build the pass for `workload` and write its generated scenario files."""
    rng = random.Random(f"{workload}:{seed}")
    invocations = WORKLOADS[workload](rng, Path(root))
    for inv in invocations:
        s = inv.scenario
        if s.path is None:
            s.path = Path(out_dir) / s.name
            s.path.write_text(s.text, encoding="utf-8")
    return invocations
