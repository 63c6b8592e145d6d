"""Tests of the benchmark itself: python -m pytest bench (from the repo root)."""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import scengen  # noqa: E402
import spans  # noqa: E402
import verify  # noqa: E402

GENERATED_WORKLOADS = ("identities-curved", "quadrature-flat", "forward-elastic", "forward-full")


def _files(workload, seed, out):
    out.mkdir()
    scengen.generate(workload, seed, ROOT, out)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("workload", GENERATED_WORKLOADS)
def test_generator_is_byte_deterministic(tmp_path, workload):
    first = _files(workload, 7, tmp_path / "a")
    again = _files(workload, 7, tmp_path / "b")
    other = _files(workload, 8, tmp_path / "c")
    assert first and first == again
    assert first != other


def _report(tmp_path, checks, extra=""):
    body = json.dumps({"schema": "defectgeo-report-v1", "command": "check",
                       "checks": checks, "samples": None})
    path = tmp_path / "report.json"
    path.write_text(body[:-1] + extra + "}")
    return path


def _check_invocation():
    return scengen.Invocation("check", scengen.Scenario("s.toml", "", {}))


def test_checker_accepts_expected_outcome(tmp_path):
    report = _report(tmp_path, [{"name": "levi-civita-contract", "passed": True}])
    assert verify.verify(_check_invocation(), 0, report, None) == []


def test_checker_flags_flipped_verdict(tmp_path):
    report = _report(tmp_path, [{"name": "levi-civita-contract", "passed": False}])
    assert verify.verify(_check_invocation(), 0, report, None)


def test_checker_flags_nan_report(tmp_path):
    report = _report(tmp_path, [{"name": "levi-civita-contract", "passed": True}], ', "x": NaN')
    problems = verify.verify(_check_invocation(), 0, report, None)
    assert problems and "NaN" in problems[0]


def test_checker_flags_wrong_exit_code(tmp_path):
    report = _report(tmp_path, [{"name": "levi-civita-contract", "passed": True}])
    assert verify.verify(_check_invocation(), 1, report, None)
    assert verify.verify(_check_invocation(), 0, report, None, timed_out=True)


def test_checker_wants_the_named_error_on_exit_2(tmp_path):
    inv = next(i for i in scengen.generate("forward-elastic", 1, ROOT, tmp_path) if i.error)
    err = tmp_path / "err.txt"
    err.write_text("error: deformation-gradient determinant 5.0e-09 below 1e-08 at Point(...)\n")
    assert verify.verify(inv, 2, tmp_path / "none.json", None, stderr_path=err) == []
    err.write_text("error: forward-map inversion stalled\n")
    assert verify.verify(inv, 2, tmp_path / "none.json", None, stderr_path=err)
    assert verify.verify(inv, 0, tmp_path / "none.json", None, stderr_path=err)


def test_energy_oracle_integrates_exactly():
    zero = [(0.0, (0, 0, 0))]
    polys = {k: zero for k in scengen.DEFECT_KEYS}
    polys["rho"] = [(1.0, (1, 0, 0))]
    got = verify.gauss_legendre_energy(polys, [0, 1, 0, 0, 0, 0, 0], lo=0.0, hi=1.0)
    assert math.isclose(got, 1.0 / 3.0, rel_tol=1e-14)


def test_self_times_subtract_direct_children():
    # root [0, 10] -> a [1, 4] -> b [2, 3]; root -> c [5, 9]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    got = spans.self_times(np.zeros(4, np.int32), parent, start, end)
    assert np.allclose(got, [3.0, 2.0, 1.0, 4.0])


def test_child_environment_drops_thread_knob(monkeypatch):
    monkeypatch.setenv("DEFECTGEO_THREADS", "4")
    env = run.child_env(ROOT)
    assert "DEFECTGEO_THREADS" not in env
    assert env["PYTHONPATH"].split(":")[0] == str(ROOT / "src")


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "quadrature-flat", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_traced_run_reports_every_layer(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert run.main(["--workload", "quadrature-flat", "--seed", "1", "--seconds", "1", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in declared} <= set(metrics)
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"]
    # layer self times plus process time outside main account for the pass
    assert abs(metrics["trace.unaccounted_s"]["value"]) < 0.05 * metrics["trace.wall_s"]["value"]
    assert metrics["energy.quadrature_points"]["value"] == 24 ** 3 + 48 ** 3
    assert metrics["fields.numeric_point_evals"]["value"] == 0


def test_traced_forward_elastic_reaches_the_numeric_path(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert run.main(["--workload", "forward-elastic", "--seed", "1", "--seconds", "1", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["fields.numeric_point_evals"]["value"] > 0
