"""Scenario files: a sectioned key-value text format describing one experiment.

Sections (all optional unless a CLI command needs them):

    [coframe]      h11..h33      triad entries, quoted expressions; default identity
    [gauge]        g11..g33      gauge matrix entries, quoted expressions
    [defects]      b1..b3, omega1..omega3, m1..m3  quoted expressions (orthonormal
                   components of the Burgers/Frank/point covectors), rho expression
    [deformation]  kind = inverse|forward (default inverse), X1..X3 quoted expressions
    [material]     lambda, mu, kappa, G, nu, R_outer, r_core   numbers
    [couplings]    kappa1..kappa7   numbers (unset ones 0)
    [numerics]     tolerance >= 0, grid_min < grid_max   numbers;
                   grid_n integer in 2..MAX_GRID_N

Expressions are always double-quoted; numbers (finite) and the kind word are bare.
Files are UTF-8 text; a '#' starts a comment that runs to the end of its
line (no value can hold one).  Bytes that are not UTF-8, duplicated sections
or keys and unknown names raise ScenarioError carrying the offending line
number(s).

A `Scenario` holds `None` for each of [gauge], [deformation], [material]
and [couplings] that the file leaves out; the other sections always have a
value.  Elasticity and energy are imported only to build the last three, so
parsing a file without them loads neither module.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .defects import DefectFields
from .errors import ParseError, ScenarioError
from .expressions import parse_expr
from .fields import FormField, SymbolicFormField, zero_field
from .forms import FRAME_INDICES
from .geometry import CoFrame, GaugeField

if TYPE_CHECKING:
    from .elasticity import DeformationMap, MaterialConstants
    from .energy import Couplings

_SECTION_RE = re.compile(r"^\[([A-Za-z_][A-Za-z0-9_]*)\]$")
_KEY_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.+)$")

_SCHEMA = {
    "coframe": {f"h{i}{j}": "expr" for i in (1, 2, 3) for j in (1, 2, 3)},
    "gauge": {f"g{i}{j}": "expr" for i in (1, 2, 3) for j in (1, 2, 3)},
    "defects": {
        **{f"b{i}": "expr" for i in (1, 2, 3)},
        **{f"omega{i}": "expr" for i in (1, 2, 3)},
        **{f"m{i}": "expr" for i in (1, 2, 3)},
        "rho": "expr",
    },
    "deformation": {"kind": "word", "X1": "expr", "X2": "expr", "X3": "expr"},
    "material": {
        "lambda": "number",
        "mu": "number",
        "kappa": "number",
        "G": "number",
        "nu": "number",
        "R_outer": "number",
        "r_core": "number",
    },
    "couplings": {f"kappa{i}": "number" for i in range(1, 8)},
    "numerics": {
        "tolerance": "number",
        "grid_min": "number",
        "grid_max": "number",
        "grid_n": "integer",
    },
}

#: the [material] keys whose MaterialConstants field has another name
_MATERIAL_FIELDS = {"lambda": "lam", "G": "shear_modulus", "nu": "poisson", "R_outer": "r_outer"}
#: largest grid_n: energy integrates at 2 * grid_n, (2 * 512)^3 ~ 1.1e9 points
MAX_GRID_N = 512


@dataclass(frozen=True)
class Numerics:
    """The check settings of [numerics]; a key the file leaves out keeps its default here."""

    tolerance: float = 1e-6
    grid_min: float = -1.0
    grid_max: float = 1.0
    grid_n: int = 9


@dataclass(frozen=True)
class Scenario:
    """A parsed experiment description with defaults applied."""

    coframe: CoFrame
    gauge: GaugeField | None
    defects: DefectFields
    deformation: DeformationMap | None
    material: MaterialConstants | None
    couplings: Couplings | None
    numerics: Numerics
    sections: frozenset = field(default_factory=frozenset)

    def has(self, section: str) -> bool:
        return section in self.sections

    def require(self, *names):
        missing = [n for n in names if n not in self.sections]
        if missing:
            raise ScenarioError(f"missing required section(s): {', '.join(missing)}")


def _parse_value(section, key, raw, line_no):
    kind = _SCHEMA[section][key]
    raw = raw.strip()
    if kind == "expr":
        if not (len(raw) >= 2 and raw[0] == '"' and raw[-1] == '"'):
            raise ScenarioError(
                f"key {key!r} in [{section}] must be a double-quoted expression", [line_no]
            )
        text = raw[1:-1]
        try:
            return parse_expr(text)
        except ParseError as exc:
            raise ScenarioError(
                f"bad expression for {key!r} in [{section}]: {exc}", [line_no]
            ) from exc
    if kind in ("number", "integer"):
        try:
            value = float(raw)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ScenarioError(
                f"key {key!r} in [{section}] must be a finite number, got {raw!r}", [line_no]
            )
        if kind == "integer" and not value.is_integer():
            raise ScenarioError(f"key {key!r} in [{section}] must be an integer, got {raw!r}", [line_no])
        return int(value) if kind == "integer" else value
    if raw.startswith('"') or any(ch.isspace() for ch in raw):
        raise ScenarioError(f"key {key!r} in [{section}] must be a bare word", [line_no])
    return raw


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text; unknown/duplicate names fail with line numbers."""
    sections: dict[str, dict] = {}
    section_lines: dict[str, int] = {}
    key_lines: dict[tuple, int] = {}
    current = None
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        m = _SECTION_RE.match(line)
        if m:
            name = m.group(1)
            if name not in _SCHEMA:
                raise ScenarioError(f"unknown section [{name}]", [line_no])
            if name in sections:
                raise ScenarioError(
                    f"section [{name}] appears twice", [section_lines[name], line_no]
                )
            sections[name] = {}
            section_lines[name] = line_no
            current = name
            continue
        m = _KEY_RE.match(line)
        if m:
            if current is None:
                raise ScenarioError("key outside of any section", [line_no])
            key, raw = m.group(1), m.group(2)
            if key not in _SCHEMA[current]:
                raise ScenarioError(f"unknown key {key!r} in [{current}]", [line_no])
            if (current, key) in key_lines:
                raise ScenarioError(
                    f"key {key!r} in [{current}] appears twice",
                    [key_lines[(current, key)], line_no],
                )
            key_lines[(current, key)] = line_no
            sections[current][key] = _parse_value(current, key, raw, line_no)
            continue
        raise ScenarioError(f"cannot parse line: {raw_line.strip()!r}", [line_no])

    return _assemble(sections, key_lines)


def parse_scenario_file(path) -> Scenario:
    with open(path, "rb") as fh:
        return parse_scenario(decode_scenario(fh.read()))


def decode_scenario(data: bytes) -> str:
    """The UTF-8 text of a scenario file's bytes; ScenarioError names the line of the first bad byte."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ScenarioError(f"scenario file is not UTF-8: byte {data[exc.start]:#04x} cannot be decoded", [line]) from exc


def _expr_or(section: dict, key, default):
    return section.get(key, parse_expr(default))


def _assemble(sections, key_lines) -> Scenario:
    cof = sections.get("coframe", {})
    triad = [
        [_expr_or(cof, f"h{i}{j}", "1" if i == j else "0") for j in (1, 2, 3)]
        for i in (1, 2, 3)
    ]
    coframe = CoFrame(triad)

    gauge = None
    if "gauge" in sections:
        g = sections["gauge"]
        gauge = GaugeField(
            [[_expr_or(g, f"g{i}{j}", "1" if i == j else "0") for j in (1, 2, 3)] for i in (1, 2, 3)]
        )

    dfs = sections.get("defects", {})
    defects = DefectFields(
        burgers=_covector(dfs, "b", coframe),
        frank=_covector(dfs, "omega", coframe),
        point=_covector(dfs, "m", coframe),
        scalar=SymbolicFormField(0, [dfs.get("rho", parse_expr("0"))]),
    )

    deformation = None
    if "deformation" in sections:
        dmap = sections["deformation"]
        kind = dmap.get("kind", "inverse")
        if kind not in ("inverse", "forward"):
            raise ScenarioError(
                f"deformation kind must be 'inverse' or 'forward', got {kind!r}",
                [key_lines.get(("deformation", "kind"), 0)],
            )
        missing = [k for k in ("X1", "X2", "X3") if k not in dmap]
        if missing:
            raise ScenarioError(
                f"[deformation] is missing {', '.join(missing)}"
            )
        from .elasticity import DeformationMap

        deformation = DeformationMap(
            tuple(SymbolicFormField(0, [dmap[k]]) for k in ("X1", "X2", "X3")), kind=kind
        )

    material = None
    if "material" in sections:
        from .elasticity import MaterialConstants

        material = MaterialConstants(**{_MATERIAL_FIELDS.get(k, k): v for k, v in sections["material"].items()})

    couplings = None
    if "couplings" in sections:
        from .energy import Couplings

        couplings = Couplings(**sections["couplings"])

    numerics = Numerics(**sections.get("numerics", {}))
    validate_numerics(numerics, lines={k: line for (s, k), line in key_lines.items() if s == "numerics"})

    return Scenario(
        coframe=coframe,
        gauge=gauge,
        defects=defects,
        deformation=deformation,
        material=material,
        couplings=couplings,
        numerics=numerics,
        sections=frozenset(sections),
    )


def validate_numerics(num: Numerics, names=None, lines=None):
    """Raise ScenarioError unless `num` is usable: every number finite, tolerance >= 0,
    grid_n in 2..MAX_GRID_N, grid_min < grid_max and their difference finite.

    A message calls a setting by `names[key]` (its command-line flag), else
    by its key, and names the file lines in `lines[key]`, where given.
    """
    names, lines = names or {}, lines or {}

    def fail(message, *keys):
        raise ScenarioError(message, [lines[k] for k in keys if k in lines])

    for key in ("tolerance", "grid_min", "grid_max"):
        value = getattr(num, key)
        if not math.isfinite(value):
            fail(f"{names.get(key, key)} must be a finite number, got {value}", key)
    for key, ok, what in (
        ("tolerance", num.tolerance >= 0.0, "non-negative"),
        ("grid_n", 2 <= num.grid_n <= MAX_GRID_N, f"between 2 and {MAX_GRID_N}"),
    ):
        if not ok:
            fail(f"{names.get(key, key)} must be {what}", key)
    if not num.grid_min < num.grid_max:
        fail("grid_min must be below grid_max", "grid_min", "grid_max")
    if not math.isfinite(num.grid_max - num.grid_min):
        fail("grid_max - grid_min must be a finite number", "grid_min", "grid_max")


def _covector(section: dict, stem: str, coframe: CoFrame) -> FormField:
    """1-form with quoted orthonormal components against the scenario coframe."""
    comps = [section.get(f"{stem}{i}", parse_expr("0")) for i in (1, 2, 3)]
    acc = zero_field(1)
    for a, comp in zip(FRAME_INDICES, comps):
        acc = acc + SymbolicFormField(0, [comp]) * coframe.e(a)
    return acc
