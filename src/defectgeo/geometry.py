"""Coframes, connections, torsion, non-metricity, curvature, and their identities.

Conventions (all verified by the identity test-suite):

* A coframe is three 1-form fields e^a = h^a_b dx^b built from a triad
  matrix h acting on the fixed Cartesian coordinate coframe.  The metric is
  the identity in the e-frame, so frame indices move freely.
* Interior products and Hodge duals taken "physically" (against the
  e-frame) are exposed as CoFrame methods; the plain fields-module
  operations act against the Cartesian background and agree with them only
  for identity (or constant-rotation) triads.
* A connection omega^a_b is a TensorFormField with variance ("u", "d") and
  degree 1, with no symmetry imposed; symmetric/antisymmetric
  specialisations are asserted by tests, not encoded in the storage.  It
  changes frame by transform_connection, never by transform_tensor.

Structure equations used throughout:

    T^a   = de^a + omega^a_b ^ e^b
    Q_ab  = omega_(ab)
    R^a_b = d omega^a_b + omega^a_c ^ omega^c_b

with the three identities D R^a_b = 0, D T^a = R^a_b ^ e^b and
D Q_ab = R_(ab) holding for every connection.
"""

from __future__ import annotations

import functools
import itertools

from . import expressions as ex
from .errors import SingularGauge, SingularTriad
from .fields import (
    FormField,
    VectorField,
    exterior_derivative,
    hodge,
    interior,
    matrix_determinant,
    matrix_inverse,
    matrix_multiply,
    matrix_of_scalar_fields,
    scalar_field,
    substitute_basis,
    wedge,
    zero_field,
)
from .forms import FRAME_INDICES
from .sampling import require_nonsingular


def _is_identity_matrix(m):
    for i in range(3):
        for j in range(3):
            c = m[i][j].comps[0]
            if not isinstance(c, ex.Num):
                return False
            if c.value != (1.0 if i == j else 0.0):
                return False
    return True


class _MatrixField:
    """Shared plumbing for CoFrame and GaugeField: a 3x3 of scalar fields with inverse."""

    def __init__(self, entries):
        self.matrix = matrix_of_scalar_fields(entries)
        self.is_identity = _is_identity_matrix(self.matrix)

    @classmethod
    def identity(cls):
        return cls([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])

    @functools.cached_property
    def inverse_matrix(self):
        return self.matrix if self.is_identity else matrix_inverse(self.matrix)

    @functools.cached_property
    def determinant(self) -> FormField:
        return matrix_determinant(self.matrix)

    def _check_invertible(self, points, error_cls, what):
        if not self.is_identity:
            require_nonsingular(self.determinant, points, error_cls, what)


class CoFrame(_MatrixField):
    """Orthonormal coframe e^a = h^a_b dx^b for a triad matrix h."""

    def __init__(self, triad):
        super().__init__(triad)
        self._coframe = tuple(VectorField(tuple(row)).as_one_form() for row in self.matrix)

    def e(self, a: int) -> FormField:
        """The coframe 1-form e^a, a in 1..3.  Lowered e_a coincides numerically."""
        return self._coframe[a - 1]

    def interior(self, a: int, alpha: FormField) -> FormField:
        """Contraction with the frame vector dual to e^a."""
        if self.is_identity:
            return interior(a, alpha)
        hinv = self.inverse_matrix
        acc = zero_field(max(alpha.degree - 1, 0))
        for b in FRAME_INDICES:
            acc = acc + hinv[b - 1][a - 1] * interior(b, alpha)
        return acc

    def hodge(self, alpha: FormField) -> FormField:
        """Hodge dual for the metric in which this coframe is orthonormal.

        Orientation follows the coframe itself (eps_123 = +1 in the e-frame).
        """
        if self.is_identity:
            return hodge(alpha)
        to_frame = [[self.inverse_matrix[j][a] for a in range(3)] for j in range(3)]
        from_frame = [[self.matrix[a][b] for b in range(3)] for a in range(3)]
        return substitute_basis(hodge(substitute_basis(alpha, to_frame)), from_frame)

    def volume(self) -> FormField:
        """The invariant volume 3-form *1."""
        return self.hodge(scalar_field(1.0))

    def validate(self, points):
        """Raise SingularTriad if |det h| drops below 1e-8 at any sampled point."""
        self._check_invertible(points, SingularTriad, "coframe triad")


class GaugeField(_MatrixField):
    """Invertible 3x3 matrix of scalar fields; generates flat connections."""

    def entry(self, a: int, b: int) -> FormField:
        return self.matrix[a - 1][b - 1]

    def validate(self, points):
        self._check_invertible(points, SingularGauge, "gauge matrix")


class TensorFormField:
    """Frame-indexed collection of equal-degree form fields.

    `variance` lists the slots, 'u' for an upper index and 'd' for a lower
    one; components are addressed with 1-based frame index tuples.  A
    connection is the ("u", "d") degree-1 case; it is not a tensor, so it
    changes frame by transform_connection, never by transform_tensor.
    """

    def __init__(self, variance, degree, comps):
        self.variance = tuple(variance)
        self.degree = degree
        size = 3 ** len(self.variance)
        if len(comps) != size:
            raise ValueError(f"expected {size} components, got {len(comps)}")
        self._c = dict(comps)
        for idx in itertools.product(FRAME_INDICES, repeat=len(self.variance)):
            if idx not in self._c:
                raise ValueError(f"missing component {idx}")
            if self._c[idx].degree != degree:
                raise ValueError(f"component {idx} has degree {self._c[idx].degree}, expected {degree}")

    @classmethod
    def build(cls, variance, degree, fn):
        comps = {
            idx: fn(*idx) for idx in itertools.product(FRAME_INDICES, repeat=len(variance))
        }
        return cls(variance, degree, comps)

    @classmethod
    def zero(cls, variance, degree):
        return cls.build(variance, degree, lambda *idx: zero_field(degree))

    def entry(self, *idx) -> FormField:
        return self._c[tuple(idx)]

    def entries(self):
        return list(self._c.values())


# ---- connection constructions -------------------------------------------------


def _antisymmetric_from(e: CoFrame, two_forms):
    """The antisymmetric 1-form matrix A_ab solving A^a_b ^ e^b = S^a.

    `two_forms[a]` holds the source 2-forms S^a; this is the contortion
    pattern A_ab = (1/2)[i_a S_b - i_b S_a - (i_a i_b S_c) e^c].
    """

    def entry(a, b):
        first = e.interior(a, two_forms[b - 1])
        second = e.interior(b, two_forms[a - 1])
        acc = first - second
        for c in FRAME_INDICES:
            coeff = e.interior(a, e.interior(b, two_forms[c - 1]))
            acc = acc - wedge(coeff, e.e(c))
        return acc * 0.5

    return TensorFormField.build(("u", "d"), 1, entry)


def levi_civita_connection(e: CoFrame) -> TensorFormField:
    """The unique antisymmetric connection with gamma^a_b ^ e^b = -de^a."""
    de = [exterior_derivative(e.e(a)) for a in FRAME_INDICES]
    return _antisymmetric_from(e, [-f for f in de])


def contortion(e: CoFrame, torsion_tensor: TensorFormField) -> TensorFormField:
    """Antisymmetric K_ab with K^a_b ^ e^b = T^a."""
    return _antisymmetric_from(e, [torsion_tensor.entry(a) for a in FRAME_INDICES])


def pure_gauge_connection(gauge: GaugeField) -> TensorFormField:
    """omega = Lambda^-1 d(Lambda); its curvature vanishes identically."""
    inv = gauge.inverse_matrix
    d_entries = [[exterior_derivative(gauge.matrix[c][b]) for b in range(3)] for c in range(3)]

    def entry(a, b):
        acc = zero_field(1)
        for c in range(3):
            acc = acc + inv[a - 1][c] * d_entries[c][b - 1]
        return acc

    return TensorFormField.build(("u", "d"), 1, entry)


# ---- curvature, torsion, non-metricity ----------------------------------------


def torsion(e: CoFrame, omega: TensorFormField) -> TensorFormField:
    def entry(a):
        acc = exterior_derivative(e.e(a))
        for b in FRAME_INDICES:
            acc = acc + wedge(omega.entry(a, b), e.e(b))
        return acc

    return TensorFormField.build(("u",), 2, entry)


def nonmetricity(omega: TensorFormField) -> TensorFormField:
    """Q_ab = omega_(ab); symmetric by construction."""

    def entry(a, b):
        return (omega.entry(a, b) + omega.entry(b, a)) * 0.5

    return TensorFormField.build(("d", "d"), 1, entry)


def curvature(omega: TensorFormField) -> TensorFormField:
    def entry(a, b):
        acc = exterior_derivative(omega.entry(a, b))
        for c in FRAME_INDICES:
            acc = acc + wedge(omega.entry(a, c), omega.entry(c, b))
        return acc

    return TensorFormField.build(("u", "d"), 2, entry)


def covariant_exterior_derivative(X: TensorFormField, omega: TensorFormField) -> TensorFormField:
    """DX = dX + omega ^ X per upper slot - omega ^ X per lower slot."""

    def entry(*idx):
        acc = exterior_derivative(X.entry(*idx))
        for slot, kind in enumerate(X.variance):
            a = idx[slot]
            for c in FRAME_INDICES:
                replaced = idx[:slot] + (c,) + idx[slot + 1:]
                if kind == "u":
                    acc = acc + wedge(omega.entry(a, c), X.entry(*replaced))
                else:
                    acc = acc - wedge(omega.entry(c, a), X.entry(*replaced))
        return acc

    return TensorFormField.build(X.variance, X.degree + 1, entry)


def defect_one_form(T: TensorFormField, Q: TensorFormField, e: CoFrame) -> TensorFormField:
    """Non-Riemannian part L_ab of a connection with torsion T and non-metricity Q.

    L_ab = (1/2)[i_a T_b - i_b T_a - (i_a i_b T_c) e^c]   (contortion)
         + (i_b Q_ac - i_a Q_bc) e^c + Q_ab               (disformation)
    """

    def entry(a, b):
        acc = (e.interior(a, T.entry(b)) - e.interior(b, T.entry(a))) * 0.5
        for c in FRAME_INDICES:
            coeff = e.interior(a, e.interior(b, T.entry(c))) * 0.5
            acc = acc - wedge(coeff, e.e(c))
            disf = e.interior(b, Q.entry(a, c)) - e.interior(a, Q.entry(b, c))
            acc = acc + wedge(disf, e.e(c))
        return acc + Q.entry(a, b)

    return TensorFormField.build(("d", "d"), 1, entry)


def connection_with(gamma: TensorFormField, L: TensorFormField) -> TensorFormField:
    """omega^a_b = gamma^a_b + L^a_b (indices move freely in orthonormal frames)."""
    return TensorFormField.build(("u", "d"), 1, lambda a, b: gamma.entry(a, b) + L.entry(a, b))


# ---- frame transformations ----------------------------------------------------


def transform_coframe(h: GaugeField, e: CoFrame) -> CoFrame:
    """e'^a = h^a_b e^b, realised as a new triad (h . h_old)."""
    return CoFrame(matrix_multiply(h.matrix, e.matrix))


def transform_connection(h: GaugeField, omega: TensorFormField) -> TensorFormField:
    """omega' = h omega h^-1 + h d(h^-1): the inhomogeneous connection law."""
    hinv = h.inverse_matrix

    def entry(a, b):
        acc = zero_field(1)
        for c in range(3):
            for d in range(3):
                acc = acc + (h.matrix[a - 1][c] * hinv[d][b - 1]) * omega.entry(c + 1, d + 1)
        for c in range(3):
            acc = acc + h.matrix[a - 1][c] * exterior_derivative(hinv[c][b - 1])
        return acc

    return TensorFormField.build(("u", "d"), 1, entry)


def transform_tensor(h: GaugeField, X: TensorFormField) -> TensorFormField:
    """Homogeneous slot-by-slot transformation: h per upper, (h^-1)^T per lower."""
    hinv = h.inverse_matrix

    def entry(*idx):
        acc = zero_field(X.degree)
        for old in itertools.product(FRAME_INDICES, repeat=len(idx)):
            coeff = None
            for slot, kind in enumerate(X.variance):
                cell = (
                    h.matrix[idx[slot] - 1][old[slot] - 1]
                    if kind == "u"
                    else hinv[old[slot] - 1][idx[slot] - 1]
                )
                coeff = cell if coeff is None else coeff * cell
            acc = acc + coeff * X.entry(*old)
        return acc

    return TensorFormField.build(X.variance, X.degree, entry)


# ---- identities ----------------------------------------------------------------


def bianchi_residuals(e: CoFrame, omega: TensorFormField):
    """(D R^a_b,  D T^a - R^a_b ^ e^b,  D Q_ab - R_(ab)); all vanish identically."""
    R = curvature(omega)
    T = torsion(e, omega)
    Q = nonmetricity(omega)
    first = covariant_exterior_derivative(R, omega)
    DT = covariant_exterior_derivative(T, omega)

    def second_entry(a):
        acc = DT.entry(a)
        for b in FRAME_INDICES:
            acc = acc - wedge(R.entry(a, b), e.e(b))
        return acc

    second = TensorFormField.build(("u",), 3, second_entry)
    DQ = covariant_exterior_derivative(Q, omega)

    def third_entry(a, b):
        sym = (R.entry(a, b) + R.entry(b, a)) * 0.5
        return DQ.entry(a, b) - sym

    third = TensorFormField.build(("d", "d"), 2, third_entry)
    return first, second, third


def curvature_split_residual(e: CoFrame, T: TensorFormField, Q: TensorFormField) -> TensorFormField:
    """R(gamma + L) - [R(gamma) + D(gamma)L + L ^ L]; vanishes identically.

    D(gamma) is the Levi-Civita covariant exterior derivative of the
    one-up/one-down matrix L^a_b.
    """
    gamma = levi_civita_connection(e)
    L = defect_one_form(T, Q, e)
    omega = connection_with(gamma, L)
    R_full = curvature(omega)
    R_riem = curvature(gamma)
    L_ud = TensorFormField.build(("u", "d"), 1, lambda a, b: L.entry(a, b))
    DL = covariant_exterior_derivative(L_ud, gamma)

    def entry(a, b):
        LL = zero_field(2)
        for c in FRAME_INDICES:
            LL = LL + wedge(L.entry(a, c), L.entry(c, b))
        return R_full.entry(a, b) - R_riem.entry(a, b) - DL.entry(a, b) - LL

    return TensorFormField.build(("u", "d"), 2, entry)
