"""Shared generators and independent oracles for the test-suite.

Oracles here deliberately avoid the library code paths they check: the
wedge oracle expands basis products with its own permutation-sign routine,
and derivatives are checked against plain central differences.
"""

import operator

import numpy as np

from defectgeo import expressions as ex
from defectgeo.defects import DefectFields
from defectgeo.errors import EvaluationError
from defectgeo.fields import Point, symbolic, zero_field
from defectgeo.forms import BASIS, COMPONENT_COUNTS, KForm
from defectgeo.geometry import CoFrame, TensorFormField


def all_basis_forms():
    """Every basis form e^I as a KForm, degree by degree."""
    for p in range(4):
        for idx in BASIS[p]:
            yield KForm.basis(*idx)


def point_array(*points: Point):
    """The (n, 4) point set with rows (x, y, z, t) of the given points."""
    return np.array([(p.x, p.y, p.z, p.t) for p in points], dtype=float).reshape(-1, 4)


def random_points(rng, count, lo=-1.0, hi=1.0, t=0.0):
    pts = rng.uniform(lo, hi, size=(count, 3))
    return [Point(float(p[0]), float(p[1]), float(p[2]), t) for p in pts]


def poly_text(rng, degree=2, amplitude=1.0):
    """Random polynomial in x, y, z up to the given total degree."""
    monomials = ["1", "x", "y", "z"]
    if degree >= 2:
        monomials += ["x*y", "y*z", "x*z", "x^2", "y^2", "z^2"]
    terms = []
    for m in monomials:
        c = rng.uniform(-amplitude, amplitude)
        terms.append(f"({c:.8f})*{m}" if m != "1" else f"({c:.8f})")
    return "+".join(terms)


def random_scalar_field(rng, degree=2, amplitude=1.0):
    return symbolic(0, poly_text(rng, degree, amplitude))


def random_form_field(rng, form_degree, poly_degree=2, amplitude=1.0):
    return symbolic(
        form_degree,
        *(poly_text(rng, poly_degree, amplitude) for _ in range(COMPONENT_COUNTS[form_degree])),
    )


def random_defects(rng, amplitude=0.6):
    return DefectFields(
        burgers=random_form_field(rng, 1, 2, amplitude),
        frank=random_form_field(rng, 1, 2, amplitude),
        point=random_form_field(rng, 1, 2, amplitude),
        scalar=random_scalar_field(rng, 2, amplitude),
    )


def random_triad(rng, amplitude=0.2):
    """Identity plus a small linear perturbation; determinant stays near 1."""
    entries = []
    for i in range(3):
        row = []
        for j in range(3):
            base = "1" if i == j else "0"
            c = rng.uniform(-amplitude, amplitude, 3)
            row.append(f"{base}+({c[0]:.8f})*x+({c[1]:.8f})*y+({c[2]:.8f})*z")
        entries.append(row)
    return entries


def random_coframe(rng, amplitude=0.2):
    return CoFrame(random_triad(rng, amplitude))


def connection(rows):
    """The connection omega^a_b = rows[a-1][b-1]: a ("u", "d") TensorFormField of 1-forms."""
    return TensorFormField.build(("u", "d"), 1, lambda a, b: rows[a - 1][b - 1])


def random_symmetric_tensor(rng, degree=1, poly_degree=2, amplitude=0.8):
    comps = {}
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            if (b, a) in comps:
                comps[(a, b)] = comps[(b, a)]
            else:
                comps[(a, b)] = random_form_field(rng, degree, poly_degree, amplitude)
    return TensorFormField(("d", "d"), degree, comps)


# ---- independent oracles ------------------------------------------------------


def permutation_sign(seq):
    sign = 1
    items = list(seq)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[i] > items[j]:
                sign = -sign
    return sign


def oracle_wedge(alpha: KForm, beta: KForm) -> KForm:
    """Wedge by brute-force expansion over all basis index pairs."""
    p, q = alpha.degree, beta.degree
    out = np.zeros(COMPONENT_COUNTS[p + q])
    for i, idx_a in enumerate(BASIS[p]):
        for j, idx_b in enumerate(BASIS[q]):
            merged = idx_a + idx_b
            if len(set(merged)) != len(merged):
                continue
            sign = permutation_sign(merged)
            slot = BASIS[p + q].index(tuple(sorted(merged)))
            out[slot] += sign * alpha.components[i] * beta.components[j]
    return KForm(p + q, out)


# ---- flat Cartesian oracle for the kinematic balance laws ----------------------
#
# The library states the balance laws in frame components, through the
# coframe.  These transcriptions read the Cartesian coefficients of the defect
# 1-forms as vectors and use the textbook curl, gradient, dot and cross
# products, each partial derivative taken by expressions.differentiate, so they
# share no Hodge or interior-product table with the library.  Both must agree
# on the identity frame, and on a constant rotation once the Cartesian vectors
# are rotated into the frame.  A vector is a list of three 0-form fields.


def levi_civita_symbol(i, j, k):
    return float((i - j) * (j - k) * (k - i)) / 2.0


def flat_vector(alpha):
    """The Cartesian coefficients of a 1-form field."""
    return [symbolic(0, c) for c in alpha.comps]


def flat_partial(f, var):
    return symbolic(0, ex.differentiate(f.comps[0], var))


def flat_grad(f):
    return [flat_partial(f, var) for var in "xyz"]


def flat_curl(v):
    """(d_y v3 - d_z v2, d_z v1 - d_x v3, d_x v2 - d_y v1)."""
    v1, v2, v3 = v
    return [
        flat_partial(v3, "y") - flat_partial(v2, "z"),
        flat_partial(v1, "z") - flat_partial(v3, "x"),
        flat_partial(v2, "x") - flat_partial(v1, "y"),
    ]


def flat_dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def flat_cross(u, v):
    return [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]


def flat_dislocation_balance(d: DefectFields):
    """curl b + (1/3) rho b - 4 rho O - (2/3) grad rho + (2/9) rho m."""
    b, O, m = (flat_vector(f) for f in (d.burgers, d.frank, d.point))
    rho = d.scalar
    curl_b, grad_rho = flat_curl(b), flat_grad(rho)
    return [
        curl_b[i] + b[i] * rho * (1.0 / 3.0) - O[i] * rho * 4.0 - grad_rho[i] * (2.0 / 3.0) + m[i] * rho * (2.0 / 9.0)
        for i in range(3)
    ]


def flat_disclination_point_balance(d: DefectFields):
    """(curl m, curl O - rho O, the bilinear 3x3 constraint on b and O)."""
    b, O, m = (flat_vector(f) for f in (d.burgers, d.frank, d.point))
    curl_O = flat_curl(O)
    beltrami = [curl_O[i] - O[i] * d.scalar for i in range(3)]
    OO, bO = flat_dot(O, O), flat_dot(b, O)
    algebraic = [
        [
            (OO * 18.0 - bO * 5.0 if i == j else zero_field(0)) - O[i] * O[j] * 54.0 + (b[i] * O[j] + b[j] * O[i]) * 7.5
            for j in range(3)
        ]
        for i in range(3)
    ]
    return flat_curl(m), beltrami, algebraic


def disclination_balance_tensor(d: DefectFields):
    """The symmetrised three-index residual tensor S_(ab)c as 0-form fields,
    indexed from 0.

    Term-by-term transcription; its delta / epsilon contractions reproduce
    the three residuals of the disclination/point-defect balance with the
    fixed rational coefficients calibration.PROJECTION_*.
    """
    b, O, m = (flat_vector(f) for f in (d.burgers, d.frank, d.point))
    rho = d.scalar
    curl_O, curl_m = flat_curl(O), flat_curl(m)

    def entry(a, bb, c):
        acc = zero_field(0)
        if a == c:
            acc = acc - curl_O[bb] * (9.0 / 20.0)
            acc = acc + O[bb] * rho * (9.0 / 20.0)
        if bb == c:
            acc = acc - curl_O[a] * (9.0 / 20.0)
            acc = acc + O[a] * rho * (9.0 / 20.0)
        if a == bb:
            acc = acc + curl_O[c] * (3.0 / 10.0)
            acc = acc + curl_m[c] * (1.0 / 3.0)
            acc = acc - O[c] * rho * (3.0 / 10.0)
        for k in range(3):
            e_kbc = levi_civita_symbol(k, bb, c)
            e_kac = levi_civita_symbol(k, a, c)
            if e_kbc:
                acc = acc - (b[k] * O[a]) * (9.0 / 40.0 * e_kbc)
                acc = acc - (b[a] * O[k]) * (9.0 / 40.0 * e_kbc)
                acc = acc + (O[k] * O[a]) * (81.0 / 50.0 * e_kbc)
            if e_kac:
                acc = acc - (b[k] * O[bb]) * (9.0 / 40.0 * e_kac)
                acc = acc - (b[bb] * O[k]) * (9.0 / 40.0 * e_kac)
                acc = acc + (O[k] * O[bb]) * (81.0 / 50.0 * e_kac)
        return acc

    return [[[entry(a, bb, c) for c in range(3)] for bb in range(3)] for a in range(3)]


def fd_partial(fn, point: Point, var: str, h=1e-5):
    """Central difference of a scalar function of a Point."""
    deltas = {"x": (h, 0, 0, 0), "y": (0, h, 0, 0), "z": (0, 0, h, 0), "t": (0, 0, 0, h)}[var]
    plus = fn(Point(point.x + deltas[0], point.y + deltas[1], point.z + deltas[2], point.t + deltas[3]))
    minus = fn(Point(point.x - deltas[0], point.y - deltas[1], point.z - deltas[2], point.t - deltas[3]))
    return (plus - minus) / (2.0 * h)


def max_abs_at(fields, points):
    return max(f.evaluate(p).max_abs() for f in fields for p in points)


def random_expr(rng, depth=4):
    """Random domain-safe expression tree (for parser/derivative oracles).

    ln and sqrt only see manifestly positive arguments, divisions only
    denominators bounded away from zero on [-1, 1]^3.
    """
    if depth == 0:
        leaf = rng.integers(0, 4)
        if leaf == 0:
            return f"{rng.uniform(-2, 2):.6f}"
        return str(rng.choice(["x", "y", "z"]))
    kind = rng.integers(0, 8)
    a = random_expr(rng, depth - 1)
    b = random_expr(rng, depth - 1)
    if kind == 0:
        return f"({a}+{b})"
    if kind == 1:
        return f"({a}-{b})"
    if kind == 2:
        return f"({a})*({b})"
    if kind == 3:
        return f"({a})/(4+({b})^2)"
    if kind == 4:
        return f"sin({a})"
    if kind == 5:
        return f"cos({a})"
    if kind == 6:
        return f"ln(2+({a})^2)"
    return f"sqrt(1+({a})^2)"


def reference_evaluate(e, env):
    """Plain recursive, unmemoised evaluation of an expression node: the oracle
    for `expressions.evaluate_many`.

    Each node applies the same floating-point primitive as the library (numpy
    on 0-d and n-d values alike), so agreement is bit for bit; what is
    checked is the walk, the sharing of nodes and the early release of
    values.  Undefined values raise EvaluationError without a point.  A
    Sample calls its source's `values` directly, once per leaf.
    """
    if isinstance(e, ex.Num):
        return e.value
    if isinstance(e, ex.Var):
        return env[e.name]
    if isinstance(e, ex.Bin):
        a, b = reference_evaluate(e.lhs, env), reference_evaluate(e.rhs, env)
        if e.op == "/" and np.any(np.asarray(b) == 0.0):
            raise EvaluationError("division by zero")
        return {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}[e.op](a, b)
    if isinstance(e, ex.Sample):
        coords = [np.asarray(reference_evaluate(kid, env), dtype=float) for kid in e.kids]
        return e.source.values(*np.broadcast_arrays(*coords))[e.slot]
    a = reference_evaluate(e.base if isinstance(e, ex.Pow) else e.arg, env)
    if isinstance(e, ex.Neg):
        return -a
    arr = np.asarray(a)
    if isinstance(e, ex.Pow):
        c = e.exponent
        if (c < 0.0 and np.any(arr == 0.0)) or (not c.is_integer() and np.any(arr < 0.0)):
            raise EvaluationError("power outside its domain")
        return arr**c
    if (e.name == "ln" and np.any(arr <= 0.0)) or (e.name == "sqrt" and np.any(arr < 0.0)):
        raise EvaluationError(f"{e.name} outside its domain")
    return (np.log if e.name == "ln" else getattr(np, e.name))(arr)


def two_walk_normalized_residual(residual_fields, reference_fields, points):
    """The residual scale max_p max|residual(p)| / (1 + max|reference(p)|), with
    residual and reference fields evaluated in separate walks: the oracle for
    `sampling.normalized_residuals`, which evaluates every pair in one walk."""
    from defectgeo.sampling import batch_components

    res = np.abs(batch_components(residual_fields, points))
    scale = 1.0 + np.abs(batch_components(reference_fields, points)).max(axis=0) if reference_fields else 1.0
    return float(np.max(res.max(axis=0) / scale))


def unblocked_defect_csv(scenario_path, csv_path, grid_n):
    """`defectgeo defects --grid grid_n --csv csv_path` written from one walk over
    every grid node at once, the grid built by meshgrid: the oracle for the
    bytes of the blocked writer."""
    from dataclasses import replace

    from defectgeo.cli import _build_connection
    from defectgeo.defects import extract_defects
    from defectgeo.scenario import parse_scenario_file

    scenario = parse_scenario_file(scenario_path)
    num = replace(scenario.numerics, grid_n=grid_n)
    d = extract_defects(scenario.coframe, _build_connection(scenario))
    axis = np.linspace(num.grid_min, num.grid_max, num.grid_n)
    xs, ys, zs = (a.ravel() for a in np.meshgrid(axis, axis, axis, indexing="ij"))
    fields = [d.burgers, d.frank, d.point, d.scalar, d.generalized_burgers]
    values = ex.evaluate_many([c for f in fields for c in f.comps], xs, ys, zs, np.zeros(xs.size))
    table = np.column_stack([xs, ys, zs] + [np.broadcast_to(v, xs.shape) for v in values])
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("x,y,z,b1,b2,b3,O1,O2,O3,m1,m2,m3,rho,B1,B2,B3\n")
        for row in table:
            fh.write(",".join(map(repr, row.tolist())) + "\n")
