"""Traced CLI invocation: per-layer spans recorded from outside the program.

Run as

    python bench/spans.py --spans OUT.npz --invocation N -- <defectgeo args>

with `src` on PYTHONPATH.  Before `defectgeo.cli.main` runs, the public
functions of each module are replaced by wrappers that record a span (name,
start, end, parent) in memory, and every name another module imported with
`from .x import f` is rebound to the wrapper as well.  When main returns the
spans are written to OUT.npz; `aggregate` turns such a file into layer
self times and counts.  Nothing here runs unless traced mode is asked
for, so untraced timings never pay for it.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array

import numpy as np

#: layer name of each wrapped function; modules not listed keep their time in
#: the caller's layer.  "<mod>.*" means every public function defined there.
LAYERS = {
    "scenario.parse_scenario_file": "scenario.parse",
    "expressions.differentiate": "expressions.differentiate",
    "expressions.evaluate": "expressions.evaluate",
    "expressions.evaluate_many": "expressions.evaluate",
    "fields.SymbolicFormField.evaluate_batch": "fields.evaluate_batch",
    "fields.NumericFormField.evaluate_batch": "fields.evaluate_batch",
    "fields.exterior_derivative": "fields.exterior_derivative",
    "geometry.*": "geometry.build",
    "defects.*": "defects.build",
    "kinematics.*": "kinematics.build",
    "kinematics.bianchi_consistency": "kinematics.fit",
    "kinematics.fit_scale": "kinematics.fit",
    "elasticity.*": "elasticity.build",
    "elasticity.check_invertible": "elasticity.invertibility",
    "energy.*": "energy.build",
    "energy.total_free_energy": "energy.quadrature",
    "energy.total_free_energy_estimate": "energy.quadrature",
    "sampling.normalized_residual": "sampling.reduce",
    "sampling.batch_components": "sampling.reduce",
    "sampling.max_abs": "sampling.reduce",
    "calibration.*": "calibration.run",
    "cli.main": "cli.main",
}

#: span name of the structural DAG walk, which only traced mode does
DAG_WALK = "trace.dag_walk"

COUNTERS = (
    "expressions.dag_nodes",
    "expressions.dag_unique_nodes",
    "fields.points_evaluated",
    "fields.array_bytes_computed",
    "fields.numeric_point_evals",
    "energy.quadrature_points",
    "sampling.points_checked",
)


class Tracer:
    """In-memory span store for one process; compact parallel arrays."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = dict.fromkeys(COUNTERS, 0)

    def _id(self, name):
        got = self._ids.get(name)
        if got is None:
            got = self._ids[name] = len(self.names)
            self.names.append(name)
        return got

    def wrap(self, fn, name):
        nid = self._id(name)
        clock = time.perf_counter
        stack, name_id, parent, start, end = self.stack, self.name_id, self.parent, self.start, self.end

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(clock())
            end.append(0.0)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                end[idx] = clock()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def current_layer(self):
        top = self.stack[-1]
        return None if top < 0 else self.names[self.name_id[top]]

    def save(self, path, invocation):
        meta = {"names": self.names, "counts": self.counts, "invocation": invocation}
        np.savez(path, name_id=np.asarray(self.name_id), parent=np.asarray(self.parent),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 meta=np.array(json.dumps(meta)))


def dag_counts(exprs):
    """(identity-distinct nodes, structurally distinct nodes) reachable from exprs.

    Iterative, so deep expressions cannot hit the recursion limit.
    """
    from defectgeo import expressions as ex

    struct_of: dict[int, int] = {}
    table: dict[tuple, int] = {}
    stack = list(exprs)
    while stack:
        node = stack[-1]
        if id(node) in struct_of:
            stack.pop()
            continue
        if isinstance(node, ex.Bin):
            kids, label = (node.lhs, node.rhs), node.op
        elif isinstance(node, ex.Pow):
            kids, label = (node.base,), repr(node.exponent)
        elif isinstance(node, ex.Neg):
            kids, label = (node.arg,), ""
        elif isinstance(node, ex.Fun):
            kids, label = (node.arg,), node.name
        elif isinstance(node, ex.Num):
            kids, label = (), repr(node.value)
        else:
            kids, label = (), node.name
        pending = [k for k in kids if id(k) not in struct_of]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        key = (type(node).__name__, label, tuple(struct_of[id(k)] for k in kids))
        struct_of[id(node)] = table.setdefault(key, len(table))
    return len(struct_of), len(table)


def _public_functions(module):
    for attr, obj in vars(module).items():
        if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield attr, obj


def install(tracer: Tracer):
    """Wrap the layer functions of every defectgeo module and rebind imports."""
    import importlib

    mods = {n: importlib.import_module(f"defectgeo.{n}") for n in
            ("scenario", "expressions", "fields", "geometry", "defects", "kinematics",
             "elasticity", "energy", "sampling", "calibration", "cli")}
    replaced = {}
    for short, module in mods.items():
        default = LAYERS.get(f"{short}.*")
        for attr, fn in _public_functions(module):
            layer = LAYERS.get(f"{short}.{attr}", default)
            if layer is not None:
                replaced[fn] = tracer.wrap(fn, layer)
    _wrap_fields(tracer, mods["fields"])
    _count_points(tracer, mods, replaced)
    for module in mods.values():
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(module, attr, replaced[obj])


def _count_points(tracer: Tracer, mods, replaced):
    """Counters at the sampling and quadrature boundaries, outside their spans."""
    counts = tracer.counts
    sampling, energy = mods["sampling"], mods["energy"]

    def points_wrapper(orig, wrapped, points_arg):
        sig = inspect.signature(orig)

        def wrapper(*args, **kwargs):
            if tracer.current_layer() != "sampling.reduce":
                points = sig.bind(*args, **kwargs).arguments[points_arg]
                counts["sampling.points_checked"] += len(points)
            return wrapped(*args, **kwargs)

        return wrapper

    for attr in ("normalized_residual", "batch_components", "max_abs"):
        orig = getattr(sampling, attr)
        replaced[orig] = points_wrapper(orig, replaced[orig], "points")

    orig = energy.total_free_energy
    wrapped = replaced[orig]
    sig = inspect.signature(orig)

    def quadrature(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        counts["energy.quadrature_points"] += int(bound.arguments["resolution"]) ** 3
        return wrapped(*args, **kwargs)

    replaced[orig] = quadrature


def _wrap_fields(tracer: Tracer, fields):
    counts = tracer.counts
    sym, num = fields.SymbolicFormField, fields.NumericFormField
    walk = tracer.wrap(dag_counts, DAG_WALK)
    sym_batch = tracer.wrap(sym.evaluate_batch, LAYERS["fields.SymbolicFormField.evaluate_batch"])
    num_batch = tracer.wrap(num.evaluate_batch, LAYERS["fields.NumericFormField.evaluate_batch"])
    num_point = num.evaluate

    def symbolic_batch(self, xs, ys, zs, ts=0.0):
        points = int(np.size(xs))
        nodes, unique = walk(self.comps)
        counts["expressions.dag_nodes"] += nodes
        counts["expressions.dag_unique_nodes"] += unique
        counts["fields.points_evaluated"] += points
        counts["fields.array_bytes_computed"] += nodes * points * 8
        return sym_batch(self, xs, ys, zs, ts)

    def numeric_batch(self, xs, ys, zs, ts=0.0):
        counts["fields.points_evaluated"] += int(np.size(xs))
        return num_batch(self, xs, ys, zs, ts)

    def numeric_point(self, point):
        counts["fields.numeric_point_evals"] += 1
        return num_point(self, point)

    sym.evaluate_batch = symbolic_batch
    num.evaluate_batch = numeric_batch
    num.evaluate = numeric_point


# ---- aggregation --------------------------------------------------------------


def self_times(name_id, parent, start, end):
    """Per-span self time: duration minus the time its direct children cover.

    Spans of one process are strictly nested (one thread), so the children
    of a span never overlap and their durations add up.
    """
    dur = end - start
    if dur.size == 0:
        return dur
    covered = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=dur.size)
    return dur - covered


def aggregate(path):
    """Layer totals of one traced invocation: self seconds, call counts, counters."""
    with np.load(path) as data:
        meta = json.loads(str(data["meta"]))
        name_id, parent = data["name_id"], data["parent"]
        start, end = data["start"], data["end"]
    own = self_times(name_id, parent, start, end)
    names = meta["names"]
    self_s = dict.fromkeys(names, 0.0)
    calls = dict.fromkeys(names, 0)
    for i, name in enumerate(names):
        mask = name_id == i
        self_s[name] = float(own[mask].sum())
        calls[name] = int(mask.sum())
    top = parent < 0
    return {
        "self_s": self_s,
        "calls": calls,
        "counts": meta["counts"],
        "main_s": float((end[top] - start[top]).sum()),
    }


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1:]
    out = opts[opts.index("--spans") + 1]
    invocation = int(opts[opts.index("--invocation") + 1])
    tracer = Tracer()
    install(tracer)
    from defectgeo import cli

    code = 1
    try:
        code = cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.save(out, invocation)
    return code


if __name__ == "__main__":
    sys.exit(main())
