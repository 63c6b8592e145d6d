"""Every module of the package uses each name it imports, and reads each
private name it defines; the package reads each public function and class
it defines, or keeps it for a stated reason; and no public function makes
up a coframe, a point set or a time for its caller."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "defectgeo"
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str):
    """(line, name) for each imported name that no expression of `source` reads.

    `from m import X as X` is an explicit re-export, kept for other modules
    to read, so the scan passes it over."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names if a.asname != a.name]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


def test_the_scan_finds_an_unused_import():
    source = (
        "from __future__ import annotations\nimport numpy as np\nfrom . import ex\nfrom .f import a, b\n"
        "from .g import c as c, d as e\nex.add(a)\n"
    )
    assert unused_imports(source) == [(2, "np"), (4, "b"), (5, "e")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(source: str):
    """(line, name) for each module-level `_name` that no expression of `source` reads."""
    tree = ast.parse(source)
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [(n.lineno, n.id) for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [
        (line, name)
        for line, name in defined
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


def test_the_scan_finds_an_unread_private_name():
    source = "_A = 1\n_B, C = 2, 3\n__all__ = []\n\ndef _f():\n    return _A\n\nclass _K:\n    pass\n\n_K()\n"
    assert unread_private_names(source) == [(2, "_B"), (5, "_f")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_each_private_name(path):
    assert unread_private_names(path.read_text()) == []


#: public names that no package module reads, each kept for the reason given
KEEP = {
    "NumericFormField": "acceptance criterion 2 imports it",
    "constant_field": "acceptance criterion 1 imports it",
    "extra_matter": "acceptance criterion 8 imports it",
    "map_couplings": "acceptance criterion 10 imports it",
    "dislocation_energy_coefficient": "acceptance criterion 10 imports it",
    "mass_conservation_residual": "acceptance criterion 9 imports it",
    "normalized_residual": "acceptance criteria 3 to 7 import it",
    "transform_coframe": "frame covariance in orthonormal frames, checked by test_frame_transform_*",
    "transform_connection": "frame covariance in orthonormal frames, checked by test_frame_transform_*",
    "transform_tensor": "frame covariance in orthonormal frames, checked by test_frame_transform_*",
    "contortion": "frame covariance in orthonormal frames, checked by test_frame_transform_*",
    "parse_scenario_file": "bench/spans.py names it and tests/util.py uses it",
    "depends_on": "ROADMAP item 2 builds on it",
    "sample_points": "the README quick start and the tests build point sets with it",
}


def unread_public_names(sources: dict):
    """(module, line, name) for each module-level public function or class of
    `sources` (module name -> source) that no module reads as a name or an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
    return [
        (module, node.lineno, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in read
    ]


def test_the_scan_finds_an_unread_public_name():
    sources = {
        "a": "def f():\n    return g()\n\ndef g():\n    pass\n\nclass K:\n    pass\n\ndef unread():\n    pass\n",
        "b": "from . import a\n\ndef h(x: K):\n    return a.f()\n\ndef _private():\n    pass\n",
    }
    assert unread_public_names(sources) == [("a", 10, "unread"), ("b", 3, "h")]


def test_every_public_name_is_read_or_kept():
    unread = unread_public_names({path.stem: path.read_text() for path in MODULES})
    assert sorted(name for _, _, name in unread) == sorted(KEEP)
    assert all(KEEP.values())


#: parameters whose value only the caller knows: the coframe, the point set, the time
CALLER_DECIDES = ("e", "points", "t")


def defaulted_caller_parameters(source: str):
    """(line, function, parameter) for each default that a public module-level function,
    or a public method of a module-level class, gives a parameter in CALLER_DECIDES."""
    tree = ast.parse(source)
    scopes = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
    found = []
    for body in scopes:
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or node.name.startswith("_"):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            found += [(node.lineno, node.name, a.arg) for a in defaulted if a.arg in CALLER_DECIDES]
    return found


def test_the_scan_finds_a_defaulted_caller_parameter():
    source = (
        "def f(x, e=None, *, points=None, t=0.0, n=3):\n    pass\n\n"
        "def g(e, points, t, ts=0.0):\n    pass\n\n"
        "def _h(e=None):\n    pass\n\n"
        "class K:\n    def m(self, t=0.0):\n        pass\n\n    def _n(self, points=None):\n        pass\n"
    )
    assert defaulted_caller_parameters(source) == [(1, "f", "e"), (1, "f", "points"), (1, "f", "t"), (11, "m", "t")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_public_function_defaults_a_coframe_points_or_time(path):
    assert defaulted_caller_parameters(path.read_text()) == []
