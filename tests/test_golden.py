"""Byte-identity guard: every command on every reference scenario, against stored output.

`tests/golden/` holds, for each `scenarios/*.toml` and each command, the
`--deterministic` stdout, stderr and exit code, plus the `defects --csv`
output of two scenarios.  Each run starts from the repo root with the path
`scenarios/<name>.toml`, because reports record the path as given.

A change that alters a report on purpose regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and says in its description which outputs changed and why.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
SCENARIOS = sorted(p.stem for p in (ROOT / "scenarios").glob("*.toml"))
COMMANDS = ("check", "defects", "kinematics", "elastic", "energy", "calibrate")
CSV_SCENARIOS = ("mixed_defects", "gauge_rotation")


def _run(args):
    """(exit code, stdout, stderr) of one in-process CLI run from the repo root."""
    from defectgeo.cli import main

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with np.errstate(all="ignore"):
                code = main(args)
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def _report_run(scenario, command):
    return _run([command, f"scenarios/{scenario}.toml", "--deterministic"])


def _csv_bytes(scenario, directory):
    path = Path(directory) / f"{scenario}.csv"
    code, _, _ = _run(["defects", f"scenarios/{scenario}.toml", "--deterministic", "--csv", str(path)])
    assert code == 0
    return path.read_bytes()


def _golden(scenario, command, stream):
    return GOLDEN / f"{scenario}.{command}.{stream}"


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_report_bytes_match_golden(scenario, command):
    code, out, err = _report_run(scenario, command)
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == codes[f"{scenario}.{command}"]
    assert out.encode() == _golden(scenario, command, "out").read_bytes()
    assert err.encode() == _golden(scenario, command, "err").read_bytes()


@pytest.mark.parametrize("scenario", CSV_SCENARIOS)
def test_defect_csv_bytes_match_golden(tmp_path, scenario):
    assert _csv_bytes(scenario, tmp_path) == (GOLDEN / f"{scenario}.csv").read_bytes()


def regenerate():
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for scenario in SCENARIOS:
        for command in COMMANDS:
            code, out, err = _report_run(scenario, command)
            codes[f"{scenario}.{command}"] = code
            _golden(scenario, command, "out").write_bytes(out.encode())
            _golden(scenario, command, "err").write_bytes(err.encode())
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
    with tempfile.TemporaryDirectory() as tmp:
        for scenario in CSV_SCENARIOS:
            (GOLDEN / f"{scenario}.csv").write_bytes(_csv_bytes(scenario, tmp))


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    regenerate()
