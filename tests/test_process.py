"""The CLI as a process: its exit, its output streams, and what start-up loads.

Each test starts a fresh interpreter, because an in-process `main()` call
neither exits nor shows which modules a bare import loads.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
# without PYTHONUNBUFFERED, stdout into a pipe is block-buffered, so the golden
# stdout shows that the process flushed its streams on the way out
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
ENV["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))


def _python(*args):
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=ENV, capture_output=True, timeout=120)


def _console_script_target():
    tomllib = pytest.importorskip("tomllib")
    target = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]["defectgeo"]
    module, func = target.split(":")
    # what an installed console script runs
    return ["-c", f"import sys; from {module} import {func}; sys.exit({func}())"]


@pytest.mark.parametrize("launcher", ["module", "console-script"])
@pytest.mark.parametrize("scenario, command", [("default", "check"), ("beltrami", "kinematics"), ("default", "energy")])
def test_cli_process_matches_golden(tmp_path, launcher, scenario, command):
    """Exit 0, 1 and 2: the exit code, the flushed stdout plus the report, and stderr are the golden bytes."""
    entry = ["-m", "defectgeo.cli"] if launcher == "module" else _console_script_target()
    report = tmp_path / "report.json"
    proc = _python(*entry, command, f"scenarios/{scenario}.toml", "--json", str(report), "--deterministic")
    golden = f"{scenario}.{command}"
    assert proc.returncode == json.loads((GOLDEN / "exit_codes.json").read_text())[golden]
    # the golden stdout is the check lines followed by the report that --json writes to a file
    written = report.read_bytes() if report.exists() else b""
    assert proc.stdout + written == (GOLDEN / f"{golden}.out").read_bytes()
    assert proc.stderr == (GOLDEN / f"{golden}.err").read_bytes()
    assert proc.stderr.count(b"\n") == (1 if proc.returncode else 0)


def test_importing_the_cli_loads_no_command_module():
    proc = _python("-c", "import json, sys, defectgeo.cli; print(json.dumps(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    for name in ("elasticity", "energy", "kinematics", "calibration"):
        assert f"defectgeo.{name}" not in loaded


def test_a_check_call_loads_no_openssl(tmp_path):
    """The scenario digest comes from CPython's own SHA-256: hashlib's OpenSSL costs 3.6 MB resident."""
    code = (
        "import json, sys\n"
        "from defectgeo.cli import main\n"
        f"assert main(['check', 'scenarios/default.toml', '--json', {str(tmp_path / 'r.json')!r}]) == 0\n"
        "print(json.dumps(sorted(sys.modules)), file=sys.stderr)\n"
    )
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert "_hashlib" not in json.loads(proc.stderr)


def test_a_couplings_section_loads_no_elasticity():
    code = (
        "import json, sys\n"
        "from defectgeo.scenario import parse_scenario\n"
        "assert parse_scenario('[couplings]\\nkappa1 = 1.0\\n').couplings.kappa1 == 1.0\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert "defectgeo.energy" in loaded
    assert "defectgeo.elasticity" not in loaded


def test_package_names_resolve_lazily():
    code = (
        "import defectgeo\n"
        "missing = [n for n in defectgeo.__all__ if not hasattr(defectgeo, n)]\n"
        "assert not missing, missing\n"
        "assert set(defectgeo.__all__) <= set(dir(defectgeo))\n"
        "try:\n"
        "    defectgeo.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('no AttributeError')\n"
        "from defectgeo import calibration\n"
        "assert calibration.FRANK_SCALE == defectgeo.FRANK_SCALE\n"
    )
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs_in_a_fresh_interpreter():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library quick start\s+```python\n(.*?)```", readme, re.S).group(1)
    assert "from defectgeo import (" in block
    proc = _python("-c", block)
    assert proc.returncode == 0, proc.stderr
