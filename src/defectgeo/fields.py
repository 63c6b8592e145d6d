"""Fields of forms over R^3 (optionally time dependent).

A FormField evaluates to a KForm of fixed degree at every point.  Its
components are expressions of the interned DAG (see expressions) in the
spatial coordinates x, y, z, t, so all algebra - wedge, Hodge, interior
product - builds expressions, and one walk evaluates any set of fields.
This is the one exterior algebra of the package: a value at a point is a
constant_field, and the sign tables come from forms.  Exterior and time
derivatives differentiate the components, exactly on symbolic parts, so
identities such as d(d(alpha)) = 0 hold to rounding error at any nesting
depth.  Components may hold sampled leaves (expressions.Sample), which
differentiate through their source:

* the body coordinates X(x, t) of a forward map (see elasticity) are
  leaves with exact derivatives;
* NumericFormField builds the leaves of an opaque vectorised callable,
  which a walk calls once for all components and points.  Their
  derivatives are central differences with step `fd_step`, nested at most
  expressions.MAX_FD_DEPTH deep.

Evaluation at a Point is a walk over one-element arrays, so it gives the
same bits as the same point inside any array.

Every field, and every result of the algebra, is a SymbolicFormField; the
finite-difference step and depth of any field are read off its leaves.

Components are stored against the fixed Cartesian coordinate coframe
dx^1, dx^2, dx^3, which doubles as the global orthonormal basis of the
ambient Euclidean space.  Position-dependent orthonormal coframes are
handled by the geometry module on top of this one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expressions as ex
from .errors import DegreeOverflow, EvaluationError
from .forms import (
    BASIS,
    COMPONENT_COUNTS,
    FRAME_INDICES,
    HODGE_TERMS,
    INTERIOR_TERMS,
    WEDGE_TERMS,
    KForm,
)

#: default finite-difference step: balances h^2 truncation against eps/h round-off
DEFAULT_FD_STEP = 1e-4

#: points per DAG walk in evaluate_fields: bounds every node's array, so a
#: walk's memory does not grow with the number of points
BLOCK = 8192


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



def _as_expr(value):
    if isinstance(value, ex.Expr):
        return value
    if isinstance(value, str):
        return ex.parse_expr(value)
    if isinstance(value, (int, float, np.floating)):
        return ex.Num(float(value))
    raise TypeError(f"cannot interpret {value!r} as an expression")


class FormField:
    """Base class: the algebra of SymbolicFormField."""

    degree: int

    # -- linear structure ------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, FormField):
            return NotImplemented
        if other.degree != self.degree:
            raise ValueError(f"cannot add degree {self.degree} and degree {other.degree} fields")
        return SymbolicFormField(self.degree, [ex.add(a, b) for a, b in zip(self.comps, other.comps)])

    def __sub__(self, other):
        if not isinstance(other, FormField):
            return NotImplemented
        if other.degree != self.degree:
            raise ValueError(f"cannot subtract degree {other.degree} from degree {self.degree} fields")
        return SymbolicFormField(self.degree, [ex.sub(a, b) for a, b in zip(self.comps, other.comps)])

    def __neg__(self):
        return SymbolicFormField(self.degree, [ex.neg(a) for a in self.comps])

    def __mul__(self, factor):
        """Multiply by a number, an expression, or a 0-form field."""
        if isinstance(factor, FormField):
            if factor.degree == 0:
                return wedge(factor, self)
            if self.degree == 0:
                return wedge(self, factor)
            raise ValueError("one factor must be a scalar (degree-0) field; use wedge")
        f = _as_expr(factor)
        return SymbolicFormField(self.degree, [ex.mul(f, a) for a in self.comps])

    __rmul__ = __mul__

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

    def evaluate(self, point: Point) -> KForm:
        return self.evaluate_batch(point.x, point.y, point.z, point.t)

    def evaluate_batch(self, xs, ys, zs, ts=0.0) -> KForm:
        """Evaluate on aligned coordinate arrays; returns a KForm with array components."""
        return evaluate_fields([self], xs, ys, zs, ts)[0]

    def __repr__(self):
        return f"{type(self).__name__}({self.degree}, [{', '.join(map(str, self.comps))}])"

    @property
    def fd_depth(self):
        """The deepest finite difference among the sampled leaves."""
        return max((s.depth for s in self._differenced()), default=0)

    @property
    def fd_step(self):
        return min((s.step for s in self._differenced()), default=DEFAULT_FD_STEP)

    def _differenced(self):
        """Sources of the sampled leaves that differentiate by finite differences."""
        return [s.source for s in ex.samples(self.comps) if s.source.step is not None]


def evaluate_fields(fields, xs, ys, zs, ts=0.0):
    """`[f.evaluate_batch(xs, ys, zs, ts) for f in fields]`, in one DAG walk per block of at
    most BLOCK points.

    Blocks are walked in input order and their values concatenated, so the
    result does not depend on BLOCK, and an error names the first bad point
    of the first block that has one.
    """
    coords = [np.asarray(c, dtype=float) for c in (xs, ys, zs, ts)]
    shape = np.broadcast_shapes(*(c.shape for c in coords))
    # a 0-d coordinate (t, say) becomes a zero-stride view, so it costs no memory
    flat = [np.broadcast_to(c, shape).reshape(-1) for c in coords]
    blocks = [
        _evaluate_block(fields, *(c[lo:lo + BLOCK] for c in flat))
        for lo in range(0, max(math.prod(shape), 1), BLOCK)
    ]
    out = []
    for i, f in enumerate(fields):
        comps = np.concatenate([b[i] for b in blocks], axis=-1)
        out.append(KForm(f.degree, comps.reshape((len(comps),) + shape)))
    return out


def _evaluate_block(fields, xs, ys, zs, ts):
    """Components of each field, shape (components, points), on one block of equally long coordinates."""
    vals = iter(ex.evaluate_many([c for f in fields for c in f.comps], xs, ys, zs, ts))
    out = []
    for f in fields:
        comps = np.stack([np.broadcast_to(next(vals), xs.shape) for _ in f.comps])
        out.append(_finite(comps, (xs, ys, zs, ts)))
    return out


def _finite(comps, coords):
    """`comps` (components first), or EvaluationError at the first point where one is not finite."""
    bad = ~np.isfinite(comps)
    if bad.any():
        first = int(np.argmax(bad.any(axis=0)))
        value = comps[np.argmax(bad[:, first]), first]
        raise EvaluationError(f"non-finite field value {value}", tuple(float(c[first]) for c in coords))
    return comps


class NumericFormField(SymbolicFormField):
    """Components sampled from a vectorised `func(xs, ys, zs, ts) -> KForm`.

    `func` gets equally shaped coordinate arrays and is called once per walk
    for all components, so once per block of at most BLOCK points.
    Derivatives difference the samples with step `fd_step`, which must be
    finite and positive.
    """

    def __init__(self, degree, func, fd_step=DEFAULT_FD_STEP):
        if not 0.0 < fd_step < math.inf:
            raise ValueError(f"finite-difference step must be positive and finite, got {fd_step!r}")

        def values(xs, ys, zs, ts):
            value = func(xs, ys, zs, ts)
            if not isinstance(value, KForm):
                raise TypeError(f"evaluator returned {type(value).__name__}, expected KForm")
            if value.degree != degree:
                raise ValueError(f"evaluator returned degree {value.degree}, declared {degree}")
            return value.components

        coords = [ex.Var(v) for v in ex.VARIABLES]
        source = ex.Sampler(values, fd_step)
        super().__init__(degree, [ex.Sample(source, slot, coords) for slot in range(COMPONENT_COUNTS[degree])])


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


# ---- exterior algebra on fields ---------------------------------------------


def wedge(alpha: FormField, beta: FormField) -> FormField:
    p, q = alpha.degree, beta.degree
    if p + q > 3:
        raise DegreeOverflow(f"wedge of degrees {p} and {q} exceeds 3")
    a, b = alpha.comps, beta.comps
    out = [ex.ZERO] * COMPONENT_COUNTS[p + q]
    for i, j, k, sign in WEDGE_TERMS[(p, q)]:
        term = ex.mul(a[i], b[j])
        if sign < 0:
            term = ex.neg(term)
        out[k] = ex.add(out[k], term)
    return SymbolicFormField(p + q, out)


def hodge(alpha: FormField) -> FormField:
    """Hodge dual against the fixed Cartesian orthonormal background."""
    p = alpha.degree
    a = alpha.comps
    out = [ex.ZERO] * COMPONENT_COUNTS[3 - p]
    for i, k, sign in HODGE_TERMS[p]:
        out[k] = ex.neg(a[i]) if sign < 0 else a[i]
    return SymbolicFormField(3 - p, out)


def interior(index: int, alpha: FormField) -> FormField:
    """Contraction with the fixed Cartesian frame vector `index` (1..3)."""
    if index not in FRAME_INDICES:
        raise ValueError(f"frame index must be 1, 2 or 3, got {index}")
    p = alpha.degree
    if p == 0:
        return zero_field(0)
    a = alpha.comps
    out = [ex.ZERO] * COMPONENT_COUNTS[p - 1]
    for i, k, sign in INTERIOR_TERMS[index][p]:
        term = ex.neg(a[i]) if sign < 0 else a[i]
        out[k] = ex.add(out[k], term)
    return SymbolicFormField(p - 1, out)


# ---- derivatives -------------------------------------------------------------


def exterior_derivative(alpha: FormField) -> FormField:
    """d(alpha).  A 3-form input returns the zero field of degree 3.

    Many generic tensor loops legitimately apply d to top-degree forms, so
    that case degenerates silently instead of raising.
    """
    p = alpha.degree
    if p == 3:
        return zero_field(3)
    out = [ex.ZERO] * COMPONENT_COUNTS[p + 1]
    for a, var in zip(FRAME_INDICES, ("x", "y", "z")):
        for i, j, k, sign in WEDGE_TERMS[(1, p)]:
            if i != a - 1:
                continue
            term = ex.differentiate(alpha.comps[j], var)
            if sign < 0:
                term = ex.neg(term)
            out[k] = ex.add(out[k], term)
    return SymbolicFormField(p + 1, out)


def time_derivative(alpha: FormField) -> FormField:
    """Componentwise d/dt; structurally time-independent symbolic fields give exact zero."""
    return SymbolicFormField(alpha.degree, [ex.differentiate(c, "t") for c in alpha.comps])


# ---- vector fields ------------------------------------------------------------


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
    def of(cls, *comps):
        return cls(comps)

    @classmethod
    def zero(cls):
        return cls((zero_field(0), zero_field(0), zero_field(0)))

    def component(self, index):
        return self.comps[index - 1]

    def evaluate(self, point):
        values = evaluate_fields(self.comps, point.x, point.y, point.z, point.t)
        return np.concatenate([v.components for v in values])

    def as_one_form(self) -> FormField:
        """The 1-form with the same orthonormal components."""
        return SymbolicFormField(1, [c.comps[0] for c in self.comps])

    def __mul__(self, factor):
        return VectorField(tuple(c * factor for c in self.comps))

    __rmul__ = __mul__

    def dot(self, other) -> FormField:
        acc = zero_field(0)
        for a, b in zip(self.comps, other.comps):
            acc = acc + a * b
        return acc


def component_field(alpha: FormField, *indices) -> FormField:
    """Scalar field of one component, addressed by basis index tuple, e.g. (1,3)."""
    return SymbolicFormField(0, [alpha.comps[BASIS[alpha.degree].index(tuple(indices))]])


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
    det = matrix_determinant(m).comps[0]
    e = [[cell.comps[0] for cell in row] for row in m]
    out = []
    for i in range(3):
        row = []
        for j in range(3):
            # adjugate: cofactor of (j, i)
            minor = _minor(e, [k for k in range(3) if k != j], [k for k in range(3) if k != i])
            cof = minor if (i + j) % 2 == 0 else ex.neg(minor)
            row.append(SymbolicFormField(0, [ex.div(cof, det)]))
        out.append(row)
    return out


def _minor(e, rows, cols):
    """The 2x2 minor of a matrix of expressions on rows (r, s) and columns (c, d):
    e_rc e_sd - e_rd e_sc."""
    (r, s), (c, d) = rows, cols
    return ex.sub(ex.mul(e[r][c], e[s][d]), ex.mul(e[r][d], e[s][c]))


def quotient(numerator: FormField, denominator: FormField) -> FormField:
    """Pointwise ratio of two scalar (0-form) fields."""
    return SymbolicFormField(0, [ex.div(numerator.comps[0], denominator.comps[0])])


def matrix_multiply(a, b):
    """Product of two 3x3s of 0-form fields."""
    return [
        [a[i][0] * b[0][j] + a[i][1] * b[1][j] + a[i][2] * b[2][j] for j in range(3)]
        for i in range(3)
    ]


def substitute_basis(alpha: FormField, matrix) -> FormField:
    """Re-express `alpha` after replacing each basis covector.

    `matrix[j][a]` (0-form fields, 0-based) is the coefficient of the new
    basis covector `a` in the expansion of the old covector `j`.  Used for
    frame changes and for pull-backs along linear maps.
    """
    p = alpha.degree
    if p == 0:
        return alpha
    m = matrix
    if p == 3:
        return matrix_determinant(m) * alpha
    c = alpha.comps
    a_expr = [[cell.comps[0] for cell in row] for row in m]
    if p == 1:
        out = []
        for col in range(3):
            acc = ex.ZERO
            for j in range(3):
                acc = ex.add(acc, ex.mul(c[j], a_expr[j][col]))
            out.append(acc)
        return SymbolicFormField(1, out)
    out = []
    for (a, b) in BASIS[2]:
        acc = ex.ZERO
        for i, (j, k) in enumerate(BASIS[2]):
            acc = ex.add(acc, ex.mul(c[i], _minor(a_expr, (j - 1, k - 1), (a - 1, b - 1))))
        out.append(acc)
    return SymbolicFormField(2, out)
