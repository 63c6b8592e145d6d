"""Fields of forms over R^3 (optionally time dependent).

A FormField evaluates to a KForm of fixed degree at every Point.  Three
concrete kinds exist:

* SymbolicFormField - components are expression ASTs; exterior and time
  derivatives differentiate the ASTs exactly, so identities such as
  d(d(alpha)) = 0 hold to rounding error at any nesting depth.
* BodyFormField - components are expression ASTs in the body coordinates X
  of a forward map x(X, t) (the chart); the value at a spatial point is
  their value at the solved X(x, t).  Derivatives follow the chain rule
  through the chart's exact inverse Jacobian.
* NumericFormField - components come from an opaque callable; derivatives
  either use a caller-supplied exact derivative field or second-order
  central differences with step `fd_step`.  Finite differencing nests at a
  geometric cost per level and is capped at depth 3.

Components are stored against the fixed Cartesian coordinate coframe
dx^1, dx^2, dx^3, which doubles as the global orthonormal basis of the
ambient Euclidean space.  Position-dependent orthonormal coframes are
handled by the geometry module on top of this one.

All algebra (wedge, Hodge, interior product, Lie derivative, the vector
calculus isomorphisms) stays symbolic whenever every operand is symbolic in
one chart - spatial symbolic operands join a body chart by substituting
x = x(X) - and otherwise falls back to pointwise closures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expressions as ex
from .errors import DerivativeDepthExceeded, EvaluationError
from .forms import (
    BASIS,
    COMPONENT_COUNTS,
    FRAME_INDICES,
    HODGE_TERMS,
    INTERIOR_TERMS,
    WEDGE_TERMS,
    KForm,
)
from .forms import hodge as kform_hodge
from .forms import interior as kform_interior
from .forms import wedge as kform_wedge

#: default finite-difference step: balances h^2 truncation against eps/h round-off
DEFAULT_FD_STEP = 1e-4

#: nesting cap for finite-difference derivatives (cost grows like 6^depth)
MAX_FD_DEPTH = 3


@dataclass(frozen=True)
class Point:
    """Eulerian coordinates on the spatial manifold, plus time."""

    x: float
    y: float
    z: float
    t: float = 0.0

    def __post_init__(self):
        if not all(np.isfinite(v) for v in (self.x, self.y, self.z, self.t)):
            raise ValueError(f"point coordinates must be finite, got {self!r}")

    def shifted(self, dx=0.0, dy=0.0, dz=0.0, dt=0.0):
        return Point(self.x + dx, self.y + dy, self.z + dz, self.t + dt)


ORIGIN = Point(0.0, 0.0, 0.0)


def _as_expr(value):
    if isinstance(value, ex.Expr):
        return value
    if isinstance(value, str):
        return ex.parse_expr(value)
    if isinstance(value, (int, float, np.floating)):
        return ex.Num(float(value))
    raise TypeError(f"cannot interpret {value!r} as an expression")


class FormField:
    """Base class; see SymbolicFormField, BodyFormField and NumericFormField."""

    degree: int

    # -- linear structure ------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, FormField):
            return NotImplemented
        if other.degree != self.degree:
            raise ValueError(f"cannot add degree {self.degree} and degree {other.degree} fields")
        exprs = _in_common_chart(self, other)
        if exprs is not None:
            (lhs, rhs), build = exprs
            return build(self.degree, [ex.add(a, b) for a, b in zip(lhs, rhs)])
        return _combine(self.degree, (self, other), lambda a, b: a + b)

    def __sub__(self, other):
        if not isinstance(other, FormField):
            return NotImplemented
        if other.degree != self.degree:
            raise ValueError(f"cannot subtract degree {other.degree} from degree {self.degree} fields")
        exprs = _in_common_chart(self, other)
        if exprs is not None:
            (lhs, rhs), build = exprs
            return build(self.degree, [ex.sub(a, b) for a, b in zip(lhs, rhs)])
        return _combine(self.degree, (self, other), lambda a, b: a - b)

    def __neg__(self):
        exprs = _in_common_chart(self)
        if exprs is not None:
            (comps,), build = exprs
            return build(self.degree, [ex.neg(a) for a in comps])
        return _combine(self.degree, (self,), lambda a: -a)

    def __mul__(self, factor):
        """Multiply by a number, an expression, or a 0-form field."""
        if isinstance(factor, FormField):
            if factor.degree == 0:
                return wedge(factor, self)
            if self.degree == 0:
                return wedge(self, factor)
            raise ValueError("one factor must be a scalar (degree-0) field; use wedge")
        f = _as_expr(factor)
        if isinstance(self, SymbolicFormField):
            return SymbolicFormField(self.degree, [ex.mul(f, a) for a in self.comps])
        return wedge(SymbolicFormField(0, [f]), self)

    __rmul__ = __mul__

    # -- evaluation --------------------------------------------------------

    def evaluate(self, point: Point) -> KForm:
        raise NotImplementedError

    def evaluate_batch(self, xs, ys, zs, ts=0.0) -> KForm:
        """Evaluate on aligned coordinate arrays; returns a KForm with array components."""
        raise NotImplementedError

    def __call__(self, point: Point) -> KForm:
        return self.evaluate(point)


class SymbolicFormField(FormField):
    def __init__(self, degree, comps):
        comps = tuple(_as_expr(c) for c in comps)
        if len(comps) != COMPONENT_COUNTS[degree]:
            raise ValueError(
                f"degree-{degree} field needs {COMPONENT_COUNTS[degree]} components, got {len(comps)}"
            )
        self.degree = degree
        self.comps = comps

    def evaluate(self, point):
        coords = (point.x, point.y, point.z, point.t)
        vals = np.asarray(ex.evaluate_many(self.comps, *coords), dtype=float)
        return KForm(self.degree, _finite(vals, coords))

    def evaluate_batch(self, xs, ys, zs, ts=0.0):
        return evaluate_fields([self], xs, ys, zs, ts)[0]

    def __repr__(self):
        return f"SymbolicFormField({self.degree}, [{', '.join(map(str, self.comps))}])"


def evaluate_fields(fields, xs, ys, zs, ts=0.0):
    """`[f.evaluate_batch(xs, ys, zs, ts) for f in fields]`, the symbolic ones in one DAG walk."""
    xs = np.asarray(xs, dtype=float)
    symbolic = [f for f in fields if isinstance(f, SymbolicFormField)]
    vals = iter(ex.evaluate_many([c for f in symbolic for c in f.comps], xs, ys, zs, ts))
    out = []
    for f in fields:
        if isinstance(f, SymbolicFormField):
            comps = np.stack([np.broadcast_to(np.asarray(next(vals), dtype=float), xs.shape) for _ in f.comps])
            out.append(KForm(f.degree, _finite(comps, (xs, ys, zs, ts))))
        else:
            out.append(f.evaluate_batch(xs, ys, zs, ts))
    return out


def _finite(comps, coords):
    """`comps` (components first), or EvaluationError at the first point where one is not finite."""
    flat = comps.reshape(len(comps), -1)
    bad = ~np.isfinite(flat)
    if bad.any():
        first = int(np.argmax(bad.any(axis=0)))
        value = flat[np.argmax(bad[:, first]), first]
        point = tuple(float(np.broadcast_to(c, comps.shape[1:]).flat[first]) for c in coords)
        raise EvaluationError(f"non-finite field value {value}", point)
    return comps


class NumericFormField(FormField):
    def __init__(self, degree, func, fd_step=DEFAULT_FD_STEP, fd_depth=0, d_field=None, dt_field=None):
        if fd_step <= 0.0:
            raise ValueError("finite-difference step must be positive")
        self.degree = degree
        self.func = func
        self.fd_step = fd_step
        self.fd_depth = fd_depth
        #: exact exterior derivative supplied by the caller, if any
        self.d_field = d_field
        #: exact time derivative supplied by the caller, if any
        self.dt_field = dt_field

    def evaluate(self, point):
        value = self.func(point)
        if not isinstance(value, KForm):
            raise TypeError(f"evaluator returned {type(value).__name__}, expected KForm")
        if value.degree != self.degree:
            raise ValueError(f"evaluator returned degree {value.degree}, declared {self.degree}")
        return value

    def evaluate_batch(self, xs, ys, zs, ts=0.0):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        zs = np.asarray(zs, dtype=float)
        ts = np.broadcast_to(np.asarray(ts, dtype=float), xs.shape)
        points = [
            Point(float(x), float(y), float(z), float(t))
            for x, y, z, t in zip(xs.ravel(), ys.ravel(), zs.ravel(), ts.ravel())
        ]
        flat = [self.evaluate(p).components for p in points]
        stacked = np.stack(flat, axis=-1).reshape((COMPONENT_COUNTS[self.degree],) + xs.shape)
        return KForm(self.degree, stacked)


class BodyFormField(FormField):
    """A field whose components are expressions in the body coordinates of a chart.

    The variables x, y, z of `comps` stand for X^1, X^2, X^3.  The chart
    provides `solve(xs, ys, zs, ts)` (the body coordinates X(x, t) of
    spatial coordinate arrays), `partial(expr, var)` (the spatial or time
    derivative of expr(X(x, t), t), again in body coordinates) and
    `lift(expr)` (a spatial expression rewritten in body coordinates).
    """

    def __init__(self, degree, comps, chart):
        self.body = SymbolicFormField(degree, comps)
        self.degree = degree
        self.comps = self.body.comps
        self.chart = chart

    def evaluate_batch(self, xs, ys, zs, ts=0.0):
        xs = np.asarray(xs, dtype=float)
        ts = np.broadcast_to(np.asarray(ts, dtype=float), xs.shape)
        X = self.chart.solve(xs, ys, zs, ts)
        return self.body.evaluate_batch(X[0], X[1], X[2], ts)

    def evaluate(self, point):
        value = self.evaluate_batch([point.x], [point.y], [point.z], [point.t])
        return KForm(self.degree, value.components[:, 0])


def _in_common_chart(*fields):
    """Component expressions of `fields` in one chart, with a builder for results.

    Returns (comps per field, build(degree, comps)) when every operand is
    symbolic: all spatial, or body fields of one chart plus spatial fields,
    which are lifted into it.  Returns None when an operand is numeric or
    two body charts differ.
    """
    chart = None
    for f in fields:
        if isinstance(f, BodyFormField):
            if chart is not None and f.chart is not chart:
                return None
            chart = f.chart
        elif not isinstance(f, SymbolicFormField):
            return None
    if chart is None:
        return [f.comps for f in fields], SymbolicFormField
    comps = [
        f.comps if isinstance(f, BodyFormField) else tuple(chart.lift(c) for c in f.comps)
        for f in fields
    ]
    return comps, lambda degree, cs: BodyFormField(degree, cs, chart)


def constant_field(kform: KForm) -> SymbolicFormField:
    return SymbolicFormField(kform.degree, [ex.Num(float(c)) for c in kform.components])


def zero_field(degree: int) -> SymbolicFormField:
    return SymbolicFormField(degree, [ex.ZERO] * COMPONENT_COUNTS[degree])


def symbolic(degree: int, *comps) -> SymbolicFormField:
    """Build a symbolic field from expression strings or ASTs, e.g. symbolic(1, "y", "0", "x*z")."""
    return SymbolicFormField(degree, comps)


def field_sum(items):
    """items[0] + items[1] + ... in order, or None when there are none.

    The sum starts from the first item, not from a zero field: adding a zero
    first can flip the sign of a zero through constant folding.
    """
    acc = None
    for f in items:
        acc = f if acc is None else acc + f
    return acc


def scalar_field(value) -> SymbolicFormField:
    return SymbolicFormField(0, [value])


def coordinate_coframe():
    """The constant identity coframe dx^1, dx^2, dx^3."""
    return tuple(constant_field(KForm.basis(a)) for a in FRAME_INDICES)


def _numeric_operands(fields):
    return [f for f in fields if isinstance(f, NumericFormField)]


def _combined_meta(fields):
    numeric = _numeric_operands(fields)
    depth = max((f.fd_depth for f in numeric), default=0)
    step = min((f.fd_step for f in numeric), default=DEFAULT_FD_STEP)
    return depth, step


def _combine(degree, fields, op):
    depth, step = _combined_meta(fields)

    def func(point):
        return op(*(f.evaluate(point) for f in fields))

    return NumericFormField(degree, func, fd_step=step, fd_depth=depth)


# ---- exterior algebra on fields ---------------------------------------------


def wedge(alpha: FormField, beta: FormField) -> FormField:
    p, q = alpha.degree, beta.degree
    if p + q > 3:
        # fail fast with the pointwise error message
        kform_wedge(KForm.zero(p), KForm.zero(q))
    exprs = _in_common_chart(alpha, beta)
    if exprs is not None:
        (a, b), build = exprs
        out = [ex.ZERO] * COMPONENT_COUNTS[p + q]
        for i, j, k, sign in WEDGE_TERMS[(p, q)]:
            term = ex.mul(a[i], b[j])
            if sign < 0:
                term = ex.neg(term)
            out[k] = ex.add(out[k], term)
        return build(p + q, out)
    return _combine(p + q, (alpha, beta), kform_wedge)


def hodge(alpha: FormField) -> FormField:
    """Hodge dual against the fixed Cartesian orthonormal background."""
    p = alpha.degree
    exprs = _in_common_chart(alpha)
    if exprs is not None:
        (a,), build = exprs
        out = [ex.ZERO] * COMPONENT_COUNTS[3 - p]
        for i, k, sign in HODGE_TERMS[p]:
            out[k] = ex.neg(a[i]) if sign < 0 else a[i]
        return build(3 - p, out)
    return _combine(3 - p, (alpha,), kform_hodge)


def interior(index: int, alpha: FormField) -> FormField:
    """Contraction with the fixed Cartesian frame vector `index` (1..3)."""
    if index not in FRAME_INDICES:
        raise ValueError(f"frame index must be 1, 2 or 3, got {index}")
    p = alpha.degree
    if p == 0:
        return zero_field(0)
    exprs = _in_common_chart(alpha)
    if exprs is not None:
        (a,), build = exprs
        out = [ex.ZERO] * COMPONENT_COUNTS[p - 1]
        for i, k, sign in INTERIOR_TERMS[index][p]:
            term = ex.neg(a[i]) if sign < 0 else a[i]
            out[k] = ex.add(out[k], term)
        return build(p - 1, out)
    return _combine(p - 1, (alpha,), lambda a: kform_interior(index, a))


# ---- derivatives -------------------------------------------------------------


def exterior_derivative(alpha: FormField) -> FormField:
    """d(alpha).  A 3-form input returns the zero field of degree 3.

    Many generic tensor loops legitimately apply d to top-degree forms, so
    that case degenerates silently instead of raising.
    """
    p = alpha.degree
    if p == 3:
        return zero_field(3)
    exprs = _in_common_chart(alpha)
    if exprs is not None:
        (comps,), build = exprs
        partial = _partial_derivative(alpha)
        out = [ex.ZERO] * COMPONENT_COUNTS[p + 1]
        for a, var in zip(FRAME_INDICES, ("x", "y", "z")):
            for i, j, k, sign in WEDGE_TERMS[(1, p)]:
                if i != a - 1:
                    continue
                term = partial(comps[j], var)
                if sign < 0:
                    term = ex.neg(term)
                out[k] = ex.add(out[k], term)
        return build(p + 1, out)
    if alpha.d_field is not None:
        return alpha.d_field
    if alpha.fd_depth >= MAX_FD_DEPTH:
        raise DerivativeDepthExceeded(
            f"finite-difference derivatives nest at most {MAX_FD_DEPTH} deep"
        )
    h = alpha.fd_step

    def func(point):
        acc = KForm.zero(p + 1)
        for a, axis in zip(FRAME_INDICES, ("dx", "dy", "dz")):
            plus = alpha.evaluate(point.shifted(**{axis: +h}))
            minus = alpha.evaluate(point.shifted(**{axis: -h}))
            partial = (plus - minus) * (0.5 / h)
            acc = acc + kform_wedge(KForm.basis(a), partial)
        return acc

    return NumericFormField(p + 1, func, fd_step=h, fd_depth=alpha.fd_depth + 1)


def time_derivative(alpha: FormField) -> FormField:
    """Componentwise d/dt; structurally time-independent symbolic fields give exact zero."""
    exprs = _in_common_chart(alpha)
    if exprs is not None:
        (comps,), build = exprs
        partial = _partial_derivative(alpha)
        return build(alpha.degree, [partial(c, "t") for c in comps])
    if alpha.dt_field is not None:
        return alpha.dt_field
    if alpha.fd_depth >= MAX_FD_DEPTH:
        raise DerivativeDepthExceeded(
            f"finite-difference derivatives nest at most {MAX_FD_DEPTH} deep"
        )
    h = alpha.fd_step

    def func(point):
        plus = alpha.evaluate(point.shifted(dt=+h))
        minus = alpha.evaluate(point.shifted(dt=-h))
        return (plus - minus) * (0.5 / h)

    return NumericFormField(alpha.degree, func, fd_step=h, fd_depth=alpha.fd_depth + 1)


def _partial_derivative(alpha):
    """(expr, var) -> d expr / d var at fixed other spatial coordinates, in alpha's chart."""
    return alpha.chart.partial if isinstance(alpha, BodyFormField) else ex.differentiate


# ---- vector fields and the vector-calculus isomorphisms ----------------------


@dataclass(frozen=True)
class VectorField:
    """Three scalar component fields v^1, v^2, v^3 in the orthonormal frame."""

    comps: tuple

    def __post_init__(self):
        if len(self.comps) != 3:
            raise ValueError("a vector field needs exactly 3 components")
        object.__setattr__(
            self, "comps", tuple(c if isinstance(c, FormField) else scalar_field(c) for c in self.comps)
        )

    @classmethod
    def of(cls, c1, c2, c3):
        return cls((c1, c2, c3))

    @classmethod
    def zero(cls):
        return cls((zero_field(0), zero_field(0), zero_field(0)))

    def component(self, index):
        return self.comps[index - 1]

    def evaluate(self, point):
        return np.asarray([c.evaluate(point).components[0] for c in self.comps])

    def as_one_form(self) -> FormField:
        """The 1-form with the same orthonormal components."""
        exprs = _in_common_chart(*self.comps)
        if exprs is not None:
            comps, build = exprs
            return build(1, [c[0] for c in comps])
        return _combine(1, tuple(self.comps), lambda a, b, c: KForm(
            1, np.stack([a.components[0], b.components[0], c.components[0]])
        ))

    def __add__(self, other):
        return VectorField(tuple(a + b for a, b in zip(self.comps, other.comps)))

    def __sub__(self, other):
        return VectorField(tuple(a - b for a, b in zip(self.comps, other.comps)))

    def __neg__(self):
        return VectorField(tuple(-a for a in self.comps))

    def __mul__(self, factor):
        return VectorField(tuple(c * factor for c in self.comps))

    __rmul__ = __mul__

    def dot(self, other) -> FormField:
        acc = zero_field(0)
        for a, b in zip(self.comps, other.comps):
            acc = acc + a * b
        return acc

    def cross(self, other) -> "VectorField":
        a1, a2, a3 = self.comps
        b1, b2, b3 = other.comps
        return VectorField.of(a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1)


def one_form_to_vector(alpha: FormField) -> VectorField:
    """Inverse of VectorField.as_one_form (orthonormal components coincide)."""
    if alpha.degree != 1:
        raise ValueError("expected a 1-form field")
    return VectorField.of(*(_component_field(alpha, i) for i in range(3)))


def _component_field(alpha: FormField, slot: int) -> FormField:
    exprs = _in_common_chart(alpha)
    if exprs is not None:
        (comps,), build = exprs
        return build(0, [comps[slot]])
    return _combine(0, (alpha,), lambda a: KForm(0, a.components[slot: slot + 1]))


def component_field(alpha: FormField, *indices) -> FormField:
    """Scalar field of one component, addressed by basis index tuple, e.g. (1,3)."""
    slot = BASIS[alpha.degree].index(tuple(indices))
    return _component_field(alpha, slot)


def interior_with_vector(v: VectorField, alpha: FormField) -> FormField:
    """iota_v = sum_a v^a iota_a against the fixed Cartesian frame."""
    if alpha.degree == 0:
        return zero_field(0)
    acc = zero_field(alpha.degree - 1)
    for a in FRAME_INDICES:
        acc = acc + v.component(a) * interior(a, alpha)
    return acc


def lie_derivative(v: VectorField, alpha: FormField) -> FormField:
    """Cartan formula: L_v alpha = iota_v d(alpha) + d(iota_v alpha)."""
    first = interior_with_vector(v, exterior_derivative(alpha))
    if alpha.degree == 0:
        return first
    return first + exterior_derivative(interior_with_vector(v, alpha))


def grad(f: FormField) -> VectorField:
    """Gradient of a scalar field via df."""
    return one_form_to_vector(exterior_derivative(f))


def curl(v: VectorField) -> VectorField:
    """Curl via *(d v-flat)."""
    return one_form_to_vector(hodge(exterior_derivative(v.as_one_form())))


def divergence(v: VectorField) -> FormField:
    """Divergence via *(d * v-flat); returns a scalar field."""
    return hodge(exterior_derivative(hodge(v.as_one_form())))


# ---- scalar 3x3 matrix helpers ------------------------------------------------


def matrix_of_scalar_fields(entries):
    """Normalise a 3x3 of expressions/strings/numbers/fields to 0-form fields."""
    out = []
    for row in entries:
        cells = list(row)
        if len(cells) != 3:
            raise ValueError("expected a 3x3 matrix")
        out.append([c if isinstance(c, FormField) else scalar_field(c) for c in cells])
    if len(out) != 3:
        raise ValueError("expected a 3x3 matrix")
    return out


def matrix_determinant(matrix):
    """Determinant of a 3x3 of 0-form fields, as a 0-form field."""
    m = matrix
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def matrix_inverse(matrix):
    """Pointwise inverse of a 3x3 of 0-form fields (adjugate over determinant)."""
    m = matrix
    det = matrix_determinant(m)
    exprs = _in_common_chart(det, *(c for row in m for c in row))
    if exprs is not None:
        ((det_expr,), *cells), build = exprs
        e = [[cells[3 * r + c][0] for c in range(3)] for r in range(3)]
        out = []
        for i in range(3):
            row = []
            for j in range(3):
                # adjugate: cofactor of (j, i)
                r = [k for k in range(3) if k != j]
                c = [k for k in range(3) if k != i]
                minor = ex.sub(
                    ex.mul(e[r[0]][c[0]], e[r[1]][c[1]]),
                    ex.mul(e[r[0]][c[1]], e[r[1]][c[0]]),
                )
                cof = minor if (i + j) % 2 == 0 else ex.neg(minor)
                row.append(build(0, [ex.div(cof, det_expr)]))
            out.append(row)
        return out

    depth, step = _combined_meta([c for row in m for c in row])

    def entry(i, j):
        def func(point):
            vals = np.array([[m[r][c].evaluate(point).components[0] for c in range(3)] for r in range(3)])
            return KForm(0, np.asarray([np.linalg.inv(vals)[i][j]]))

        return NumericFormField(0, func, fd_step=step, fd_depth=depth)

    return [[entry(i, j) for j in range(3)] for i in range(3)]


def quotient(numerator: FormField, denominator: FormField) -> FormField:
    """Pointwise ratio of two scalar (0-form) fields."""
    exprs = _in_common_chart(numerator, denominator)
    if exprs is not None:
        ((n,), (d,)), build = exprs
        return build(0, [ex.div(n, d)])
    return _combine(0, (numerator, denominator), lambda n, d: KForm(0, n.components / d.components))


def matrix_multiply(a, b):
    """Product of two 3x3s of 0-form fields."""
    return [
        [a[i][0] * b[0][j] + a[i][1] * b[1][j] + a[i][2] * b[2][j] for j in range(3)]
        for i in range(3)
    ]


def identity_matrix_fields():
    one = scalar_field(1.0)
    zero = zero_field(0)
    return [[one if i == j else zero for j in range(3)] for i in range(3)]


def substitute_basis(alpha: FormField, matrix) -> FormField:
    """Re-express `alpha` after replacing each basis covector.

    `matrix[j][a]` (0-form fields, 0-based) is the coefficient of the new
    basis covector `a` in the expansion of the old covector `j`; the field
    analogue of KForm.substitute.
    """
    p = alpha.degree
    if p == 0:
        return alpha
    m = matrix
    if p == 3:
        return matrix_determinant(matrix_of_scalar_fields(m)) * alpha
    exprs = _in_common_chart(alpha, *(cell for row in m for cell in row))
    if exprs is not None:
        (c, *cells), build = exprs
        a_expr = [[cells[3 * i + j][0] for j in range(3)] for i in range(3)]
        if p == 1:
            out = []
            for col in range(3):
                acc = ex.ZERO
                for j in range(3):
                    acc = ex.add(acc, ex.mul(c[j], a_expr[j][col]))
                out.append(acc)
            return build(1, out)
        if p == 2:
            out = []
            for (a, b) in BASIS[2]:
                acc = ex.ZERO
                for i, (j, k) in enumerate(BASIS[2]):
                    minor = ex.sub(
                        ex.mul(a_expr[j - 1][a - 1], a_expr[k - 1][b - 1]),
                        ex.mul(a_expr[j - 1][b - 1], a_expr[k - 1][a - 1]),
                    )
                    acc = ex.add(acc, ex.mul(c[i], minor))
                out.append(acc)
            return build(2, out)

    depth, step = _combined_meta([alpha] + [cell for row in m for cell in row])

    def func(point):
        vals = [[m[i][j].evaluate(point).components[0] for j in range(3)] for i in range(3)]
        return alpha.evaluate(point).substitute(vals)

    return NumericFormField(p, func, fd_step=step, fd_depth=depth)
