#!/usr/bin/env python3
"""defectgeo benchmark: time the real CLI, one fresh process per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload's scenario files are generated
from the seed into a scratch directory under `.bench_work/`; the CLI is run
from `src/` (no install needed) one invocation at a time, closed loop, one
client.  Passes over the workload's invocation list repeat while another
pass fits in S seconds (at least one pass always runs).  Every report is
checked (exit code, strict JSON, per-check verdicts, oracles) after its pass,
outside the timed region.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 each round runs one untraced pass and one traced pass (spans from
`spans.py`) and the last line carries the per-layer metrics.  A fuller
record, environment included, goes to `.bench_out/`.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import scengen
import spans
import verify

HERE = Path(__file__).resolve().parent

#: fresh-interpreter imports timed for setup_s (median reported)
SETUP_SAMPLES = 9
#: an invocation still running after this is killed and counted as failed
TIMEOUT_S = 150.0

#: layers whose self time the traced run reports as "<layer>_s"; cli.main's
#: own time is reported as cli.self_s
LAYER_TIMES = sorted(set(spans.LAYERS.values()) - {"cli.main"})


@dataclass
class Record:
    """Outcome of one invocation."""

    label: str
    code: int
    wall_s: float
    rss_mb: float
    timed_out: bool
    problems: list = field(default_factory=list)
    layers: dict | None = None


@dataclass
class Pass:
    wall_s: float
    traced: bool
    records: list


def child_env(root: Path):
    """The caller's environment minus DEFECTGEO_THREADS, with src importable."""
    env = {k: v for k, v in os.environ.items() if k != "DEFECTGEO_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(root / "src"), env.get("PYTHONPATH"))))
    return env


def spawn(argv, env, cwd, stderr_path, timeout=TIMEOUT_S):
    """Run one child to its exit: (exit code, wall s, max RSS MB, timed out)."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, killed.is_set()


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, work: Path):
        self.root, self.workload, self.seed, self.work = root, workload, seed, work
        self.env = child_env(root)
        self.invocations = scengen.generate(workload, seed, root, work)
        self.passes_run = 0

    def setup_times(self):
        """Warm up once (byte-code cache), then time fresh `import defectgeo.cli`."""
        argv = [sys.executable, "-c", "import defectgeo.cli"]
        err = self.work / "setup.err"
        samples = []
        for i in range(SETUP_SAMPLES + 1):
            code, wall, _, _ = spawn(argv, self.env, self.root, err, timeout=60.0)
            if code != 0:
                raise RuntimeError(f"importing defectgeo.cli failed: {err.read_text(errors='replace')[-400:]}")
            if i:
                samples.append(wall)
        return samples

    def run_pass(self, traced: bool) -> Pass:
        self.passes_run += 1
        pdir = self.work / f"pass{self.passes_run}"
        pdir.mkdir()
        runs = []
        t0 = time.perf_counter()
        for i, inv in enumerate(self.invocations):
            report, csv, npz = pdir / f"{i}.json", pdir / f"{i}.csv", pdir / f"{i}.npz"
            cli = [inv.command, str(inv.scenario.path), *inv.args, "--json", str(report)]
            if inv.csv:
                cli += ["--csv", str(csv)]
            if traced:
                argv = [sys.executable, str(HERE / "spans.py"), "--spans", str(npz),
                        "--invocation", str(i), "--"] + cli
            else:
                argv = [sys.executable, "-m", "defectgeo.cli"] + cli
            code, wall, rss, timed_out = spawn(argv, self.env, self.root, pdir / f"{i}.err")
            runs.append((inv, Record(inv.label, code, wall, rss, timed_out)))
            if timed_out:
                break
        wall = time.perf_counter() - t0
        for i, (inv, rec) in enumerate(runs):
            rec.problems = verify.verify(inv, rec.code, pdir / f"{i}.json", pdir / f"{i}.csv", rec.timed_out,
                                         pdir / f"{i}.err")
            if traced and (pdir / f"{i}.npz").exists():
                rec.layers = spans.aggregate(pdir / f"{i}.npz")
            elif traced:
                rec.problems.append("traced run wrote no spans")
        shutil.rmtree(pdir)
        return Pass(wall, traced, [rec for _, rec in runs])

    def measure(self, seconds: float, trace: bool):
        """Rounds of passes while another round fits in `seconds` (at least one)."""
        rounds = []
        t0 = time.perf_counter()
        while True:
            r0 = time.perf_counter()
            rnd = [self.run_pass(traced=False)]
            if trace:
                rnd.append(self.run_pass(traced=True))
            rounds.append((rnd, time.perf_counter() - r0))
            if any(rec.timed_out for p in rnd for rec in p.records):
                break
            typical = statistics.median(d for _, d in rounds)
            if time.perf_counter() - t0 + typical > seconds:
                break
        return [p for rnd, _ in rounds for p in rnd]


# ---- metrics ------------------------------------------------------------------


def invocation_medians(passes):
    """Each invocation's median wall time over the given passes."""
    times = {}
    for p in passes:
        for i, rec in enumerate(p.records):
            times.setdefault(i, []).append(rec.wall_s)
    return [statistics.median(times[i]) for i in sorted(times)]


def end_to_end(passes, setup):
    """Medians throughout: unlike a minimum, a median does not drift with the
    number of passes that fit in a run, so a faster commit is not favoured by
    getting more samples (see README.md)."""
    plain = [p for p in passes if not p.traced]
    records = [r for p in passes for r in p.records]
    failed = sum(1 for r in records if r.problems)
    return {
        "wall_s": (statistics.median(p.wall_s for p in plain), "s"),
        "latency_p50_s": (statistics.median(invocation_medians(plain)), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(r.rss_mb for p in plain for r in p.records), "MB"),
        "ok_frac": (1.0 - failed / len(records), "ratio"),
    }


def pass_layers(p: Pass):
    """Per-layer totals of one traced pass (sums over its invocations)."""
    out = {f"{name}_s": 0.0 for name in LAYER_TIMES}
    out.update({"cli.self_s": 0.0, "trace.dag_walk_s": 0.0, "process.outside_main_s": 0.0,
                "expressions.differentiate_calls": 0, "expressions.evaluate_calls": 0})
    out.update({name: 0 for name in spans.COUNTERS})
    for rec in p.records:
        lay = rec.layers
        if lay is None:
            continue
        for name, secs in lay["self_s"].items():
            key = "cli.self_s" if name == "cli.main" else f"{name}_s"
            out[key] = out.get(key, 0.0) + secs
        out["expressions.differentiate_calls"] += lay["calls"].get("expressions.differentiate", 0)
        out["expressions.evaluate_calls"] += lay["calls"].get("expressions.evaluate", 0)
        for name, n in lay["counts"].items():
            out[name] += n
        out["process.outside_main_s"] += rec.wall_s - lay["main_s"]
    nodes = out["expressions.dag_nodes"]
    out["expressions.dag_sharing"] = out["expressions.dag_unique_nodes"] / nodes if nodes else 0.0
    accounted = sum(v for k, v in out.items() if k.endswith("_s"))
    out["trace.wall_s"] = p.wall_s
    out["trace.unaccounted_s"] = p.wall_s - accounted
    return out


def per_layer(passes):
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    layers = [pass_layers(p) for p in traced]
    out = {}
    for key in layers[0]:
        unit = "s" if key.endswith("_s") else "bytes" if key.endswith("_bytes_computed") else \
            "ratio" if key.endswith("_sharing") else "count"
        out[key] = (statistics.median(lay[key] for lay in layers), unit)
    overhead = statistics.median(p.wall_s for p in traced) - statistics.median(p.wall_s for p in plain)
    out["trace.overhead_s"] = (overhead, "s")
    return out


def environment(root: Path):
    import numpy

    digest = hashlib.sha256()
    for path in sorted((root / "src" / "defectgeo").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (root / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = got.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2 ** 20),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(scengen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "defectgeo" / "cli.py").is_file():
        print(f"error: no defectgeo sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    (root / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / ".bench_work"))
    try:
        bench = Bench(root, args.workload, args.seed, work)
        setup = bench.setup_times()
        passes = bench.measure(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = [r for p in passes for r in p.records]
    failed = [r for r in records if r.problems]
    for r in failed:
        print(f"FAILED {r.label}: {'; '.join(r.problems)}", file=sys.stderr)
    metrics = per_layer(passes) if args.trace else end_to_end(passes, setup)
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(root),
        "setup_samples_s": setup,
        "passes": [{"traced": p.traced, "wall_s": p.wall_s,
                    "invocations": [{"label": r.label, "exit": r.code, "wall_s": r.wall_s,
                                     "rss_mb": r.rss_mb, "problems": r.problems} for r in p.records]}
                   for p in passes],
        "result": result,
    }
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    plain = [p for p in passes if not p.traced]
    print(f"{args.workload} seed={args.seed}: {len(records)} invocations in {len(passes)} passes; "
          f"wall_s the median of {len(plain)} untraced passes; latency_p50_s the median over "
          f"{len(invocation_medians(plain))} invocations of each one's median over those passes; "
          f"setup_s the median of {len(setup)} samples")
    print(json.dumps({"environment": detail["environment"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
