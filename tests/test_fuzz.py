"""Scenario fuzzer: generated scenario files through every command, in process.

A derandomised Hypothesis strategy writes scenario files from
`scenario._SCHEMA`: some of its sections and keys, expressions over x, y,
z and t with constants that may overflow (1000 under exp or ^400, 1e400),
triads near the identity or not, forward and inverse maps near the
identity, and up to two faults: a malformed value or number, a stray or
dropped line.  Now and then a flag is out of range too.  Each file runs
through `cli.main` under every command, and each run must keep the
README's contract: exit 0, 1 or 2, never 3; at most one line on stderr, and
none on exit 0; a strict JSON report on exits 0 and 1; and on exit 2 a
message that names a line, a key, a flag or a point.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from defectgeo.cli import main
from defectgeo.expressions import FUNCTIONS
from defectgeo.scenario import _SCHEMA

COMMANDS = ("check", "defects", "kinematics", "elastic", "energy", "calibrate")

EXPRS = st.recursive(
    st.sampled_from(["x", "y", "z", "t", "0", "1", "0.5", "-2", "pi", "1000", "1e400"]),
    lambda inner: st.one_of(
        st.builds("({} {} {})".format, inner, st.sampled_from("+-*/"), inner),
        st.builds("{}({})".format, st.sampled_from(FUNCTIONS), inner),
        st.builds("({})^{}".format, inner, st.sampled_from(["2", "-1", "0.5", "400"])),
    ),
    max_leaves=4,
)

#: values the schema rejects, one of each kind of fault
BAD_VALUES = ['"1 +"', "x", '"x" + "y"', "nan", "-inf", "2.5", "600", "bogus", '"(("', "-1", '"."', '"2²"']

#: lines that are not a section header or a key of the section they are in
BAD_LINES = ["[nosuch]", "nosuch = 1", "just words", '[defects]\nb1 = "1"\nb1 = "2"']

#: flag values argparse accepts, the out-of-range ones included; mostly none
FLAGS = [[]] * 6 + [["--grid", "3"], ["--tolerance", "1e-3"], ["--grid", "1"], ["--grid", "600"], ["--tolerance", "nan"]]

#: in-range numbers per key (faults bring the others); the default pool serves the rest
NUMBERS = {
    "grid_min": ["-1", "-0.5"],
    "grid_max": ["1", "2"],
    "tolerance": ["1e-6", "1e-3", "0"],
    "kappa": ["0"],
    "mu": ["1.0", "0.5", "2"],
    "nu": ["0.3", "0.25"],
    "R_outer": ["10", "2"],
    "r_core": ["0.1", "0.5"],
    None: ["1.0", "0.3", "1e-8", "0", "-1", "2.5"],
}


def _good(section, key):
    kind = _SCHEMA[section][key]
    if kind == "expr" and section == "deformation":  # X_i = x_i + a small term: near the identity
        return EXPRS.map(('"' + "xyz"[int(key[1]) - 1] + ' + 0.1*({})"').format)
    if kind == "expr":  # triad and gauge entries near the identity or not, any defect density
        near = "1 + 0.1*({})" if key[-1] == key[-2] else "0.1*({})"
        return st.one_of(EXPRS, EXPRS.map(near.format)).map('"{}"'.format)
    if kind == "number":
        return st.sampled_from(NUMBERS.get(key, NUMBERS[None]))
    if kind == "integer":
        return st.sampled_from(["2", "3", "4"])
    return st.sampled_from(["inverse", "forward"])


#: keys a section needs before its commands get past validation
NEEDED = {"deformation": ["X1", "X2", "X3"], "material": ["lambda", "mu", "kappa", "R_outer", "r_core"]}


@st.composite
def scenarios(draw):
    """Scenario text: some sections of the schema, each with some of its keys and
    the ones it needs, then up to two faults: a malformed value, a line out of
    place or a line dropped."""
    lines = []
    for section in [name for name in _SCHEMA if draw(st.booleans())]:
        lines.append(f"[{section}]")
        keys = draw(st.lists(st.sampled_from(sorted(_SCHEMA[section])), unique=True, max_size=5))
        keys += [key for key in NEEDED.get(section, ()) if key not in keys]
        lines += [f"{key} = {draw(_good(section, key))}" for key in keys]
    for fault in draw(st.lists(st.sampled_from(["value", "line", "drop"]), max_size=2)):
        at = draw(st.integers(0, len(lines)))
        if fault == "line":
            lines.insert(at, draw(st.sampled_from(BAD_LINES)))
        elif at < len(lines) and fault == "drop":
            del lines[at]
        elif at < len(lines) and " = " in lines[at]:
            lines[at] = f"{lines[at].split(' = ')[0]} = {draw(st.sampled_from(BAD_VALUES))}"
    return "\n".join(lines) + "\n"


def _strict(constant):
    raise ValueError(f"{constant} is not JSON")


def _names_a_place(message):
    """Whether an exit-2 message names a line, a scenario key or section, a flag or a point."""
    if re.search(r"\(lines? \d|--grid|--tolerance| at \(|Point\(|report value report\.", message):
        return True
    names = {name for section in _SCHEMA.values() for name in section} | set(_SCHEMA)
    return any(re.search(rf"\b{name}\b", message) for name in names)


@settings(derandomize=True, deadline=None, max_examples=50, suppress_health_check=[HealthCheck.too_slow])
@given(text=scenarios(), flags=st.sampled_from(FLAGS))
def test_every_command_keeps_the_exit_contract_on_generated_scenarios(text, flags):
    with tempfile.TemporaryDirectory() as tmp:
        path, report = Path(tmp) / "s.toml", Path(tmp) / "r.json"
        path.write_text(text, encoding="utf-8")
        for command in COMMANDS:
            report.unlink(missing_ok=True)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, str(path), "--json", str(report), *flags])
            message = err.getvalue()
            assert code in (0, 1, 2), (command, message)
            assert message.count("\n") == (code != 0) and message.endswith("\n") == (code != 0), message
            if code in (0, 1):
                assert json.loads(report.read_text(), parse_constant=_strict)["command"] == command
            else:
                assert not report.exists()
                assert _names_a_place(message), message
