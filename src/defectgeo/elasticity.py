"""Riemannian elastic pipeline: deformation gradients, Euler strain, isotropic
stress, and the balance-law residuals.

The description is Eulerian: scenarios supply the inverse map X^A(x) whose
direct derivative is the push-forward F^A_a, or the forward map x^a(X).  For
a forward map the implicit function theorem gives the push-forward exactly,
F = (dx/dX)^-1 at X(x).  The body coordinates X^B(x, t) are sampled leaves
(expressions.Sample) of the map's chart: their values come from one damped
Newton solve per point array, their derivatives substitute the leaves into
the symbolic inverse Jacobian, so a forward map's fields stay exact and
spatial, and are walked with every other field.

The body manifold is taken in Cartesian orthonormal coordinates (its triad
is the identity), so with an identity spatial coframe the coordinate and
orthonormal deformation gradients coincide; a non-identity spatial triad h
enters via the sandwich F^A_a(orth) = F^A_b (h^-1)^b_a.

Strain and stress:

    e_ab    = (1/2)(delta_ab - F^A_a F^A_b)
    sigma   = 2 mu e + lambda tr(e) delta        (isotropic Hooke law)
    tau^a   = sigma^ab *e_b                      (Cauchy stress 2-form)

and the balance laws evaluated as residual fields:

    mass:    d(rho_m)/dt + div(rho_m v)
    Cauchy:  m (dv^a/dt + i_v D v^a) - m f^a - D tau^a,   m = rho_m *1

with D the Levi-Civita covariant exterior derivative of the coframe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expressions as ex
from .errors import (
    AnisotropyNotSupported,
    InvalidMaterial,
    NewtonFailure,
    SingularDeformation,
)
from .fields import (
    FormField,
    Point,
    SymbolicFormField,
    VectorField,
    component_field,
    divergence,
    exterior_derivative,
    matrix_determinant,
    matrix_inverse,
    matrix_multiply,
    matrix_of_scalar_fields,
    quotient,
    scalar_field,
    time_derivative,
    wedge,
    zero_field,
)
from .forms import FRAME_INDICES
from .geometry import CoFrame, levi_civita_connection
from .sampling import require_nonsingular

_NEWTON_MAX_ITER = 50
_NEWTON_TOL = 1e-12
_BODY_VARS = ("x", "y", "z")


@dataclass(frozen=True)
class MaterialConstants:
    """Isotropic elastic moduli plus the dislocation-energy geometry factors.

    Unused entries may stay None; provided values are range-checked.
    """

    lam: float | None = None
    mu: float | None = None
    kappa: float = 0.0
    shear_modulus: float | None = None
    poisson: float | None = None
    r_outer: float | None = None
    r_core: float | None = None

    def __post_init__(self):
        for name, value in vars(self).items():
            if value is not None and not np.isfinite(value):
                raise InvalidMaterial(f"{name} must be finite, got {value}")
        if self.mu is not None and self.mu <= 0.0:
            raise InvalidMaterial(f"shear Lame constant mu must be positive, got {self.mu}")
        if self.poisson is not None and not (0.0 < self.poisson < 0.5):
            raise InvalidMaterial(f"Poisson ratio nu must lie in (0, 0.5), got {self.poisson}")
        if self.r_outer is not None or self.r_core is not None:
            if self.r_outer is None or self.r_core is None:
                raise InvalidMaterial("outer and core radii R_outer and r_core must be given together")
            if not (self.r_outer > self.r_core > 0.0):
                raise InvalidMaterial(
                    f"radii must satisfy r_outer > r_core > 0, got {self.r_outer}, {self.r_core}"
                )


class _ForwardChart(ex.Sampler):
    """Body coordinates X^B(x, t) of a forward map x^a(X, t), as the source of Sample leaves.

    Values invert the map on whole coordinate arrays by damped Newton; a walk
    reads the three slots off one solve.
    The Jacobian J^a_B = dx^a/dX^B, its symbolic inverse and the body-point
    velocity dX^B/dt at fixed x = -(J^-1 dx/dt)^B are built once, and
    `partial` reads the derivatives of the leaves off them exactly.
    """

    def __init__(self, exprs):
        super().__init__(self._solve, None, name="X")
        self.exprs = exprs
        self.jac = [ex.differentiate(xa, v) for xa in exprs for v in _BODY_VARS]
        inv = matrix_inverse(matrix_of_scalar_fields([self.jac[3 * a: 3 * a + 3] for a in range(3)]))
        self.inv_jac = [[inv[B][a].comps[0] for a in range(3)] for B in range(3)]
        rate = [ex.differentiate(xa, "t") for xa in exprs]
        self.body_rate = [ex.neg(_dot(self.inv_jac[B], rate)) for B in range(3)]

    def partial(self, slot, axis, args):
        """dX^slot/dx^axis (dX^slot/dt for axis 3) at the spatial point `args`, exact."""
        body = {v: ex.Sample(self, B, args) for B, v in enumerate(_BODY_VARS)}
        rate = self.body_rate[slot] if axis == 3 else self.inv_jac[slot][axis]
        return ex.substitute(rate, {**body, "t": args[3]})

    def _solve(self, xs, ys, zs, ts):
        """Body coordinates X(x, t), shape (3,) + the common shape of the inputs."""
        X = self._newton(np.stack([xs, ys, zs]).reshape(3, -1), ts.reshape(-1))
        return X.reshape((3,) + xs.shape)

    def _residual(self, X, target, ts):
        vals = ex.evaluate_many(self.exprs, X[0], X[1], X[2], ts)
        return np.stack([np.broadcast_to(v, ts.shape) for v in vals]) - target

    def _newton(self, target, ts):
        """Solve x(X, t) = target column by column, all columns at once, from X = target."""
        X = target.copy()
        err = self._residual(X, target, ts)
        norm = np.linalg.norm(err, axis=0)
        for _ in range(_NEWTON_MAX_ITER):
            act = np.flatnonzero(~(norm <= _NEWTON_TOL))
            if act.size == 0:
                break
            Xa, ta, goal, start = X[:, act], ts[act], target[:, act], norm[act]
            jac = self._jacobian(Xa, ta)
            try:
                step = np.linalg.solve(jac, err[:, act].T[..., None])[..., 0].T
            except np.linalg.LinAlgError as exc:
                raise _singular(jac, act, target, ts) from exc
            # per column: halve the step until the residual drops, at most 30 times,
            # and take the last trial if it never does
            damping = np.ones(act.size)
            pending = np.arange(act.size)
            for _ in range(30):
                trial = Xa[:, pending] - damping[pending] * step[:, pending]
                trial_err = self._residual(trial, goal[:, pending], ta[pending])
                trial_norm = np.linalg.norm(trial_err, axis=0)
                cols = act[pending]
                X[:, cols], err[:, cols] = trial, trial_err
                norm[cols] = trial_norm
                better = trial_norm < start[pending]
                pending = pending[~better]
                if pending.size == 0:
                    break
                damping[pending] *= 0.5
        stalled = np.flatnonzero(~(norm <= _NEWTON_TOL))
        if stalled.size:
            first = stalled[0]
            raise NewtonFailure(
                f"forward-map inversion stalled at residual {norm[first]:.3e} after {_NEWTON_MAX_ITER}"
                f" iterations at {_point(target, ts, first)}"
            )
        # the loop factorises the Jacobian only before a step, never at the
        # solution, and a point may be solved before any step (x = X^3 at 0)
        jac = self._jacobian(X, ts)
        if np.any(np.linalg.det(jac) == 0.0):
            raise _singular(jac, np.arange(ts.size), target, ts)
        return X

    def _jacobian(self, X, ts):
        vals = ex.evaluate_many(self.jac, X[0], X[1], X[2], ts)
        return np.stack([np.broadcast_to(v, ts.shape) for v in vals], axis=-1).reshape(-1, 3, 3)


def _dot(exprs, coeffs):
    acc = ex.ZERO
    for e, c in zip(exprs, coeffs):
        acc = ex.add(acc, ex.mul(e, c))
    return acc


def _singular(jac, cols, target, ts):
    first = cols[int(np.argmax(np.linalg.det(jac) == 0.0))]
    return SingularDeformation(f"singular forward-map Jacobian at {_point(target, ts, first)}")


def _point(target, ts, i):
    return Point(float(target[0, i]), float(target[1, i]), float(target[2, i]), float(ts[i]))


@dataclass(frozen=True)
class DeformationMap:
    """Eulerian deformation data: the inverse map X^A(x), or a forward map.

    `maps` holds three scalar fields; with kind="inverse" they are X^A as
    functions of the spatial point, with kind="forward" they are symbolic
    x^a as functions of the body point (read x, y, z as X^1, X^2, X^3),
    without sampled leaves, whose Jacobian the chart could not build.  A
    forward map's X^A are the leaves of its chart, exact under
    differentiation and solved by vectorised Newton.
    """

    maps: tuple
    kind: str = "inverse"

    def __post_init__(self):
        if self.kind not in ("inverse", "forward"):
            raise ValueError(f"kind must be 'inverse' or 'forward', got {self.kind!r}")
        if len(self.maps) != 3:
            raise ValueError("a deformation map needs exactly 3 components")
        maps = tuple(m if isinstance(m, FormField) else scalar_field(m) for m in self.maps)
        object.__setattr__(self, "maps", maps)
        if self.kind == "forward":
            if not all(m.degree == 0 and not ex.samples(m.comps) for m in maps):
                raise ValueError("forward-map components must be symbolic scalar fields without sampled leaves")
            object.__setattr__(self, "_chart", _ForwardChart(tuple(m.comps[0] for m in maps)))

    def inverse_fields(self):
        """The three scalar fields X^A(x, y, z, t)."""
        if self.kind == "inverse":
            return list(self.maps)
        coords = [ex.Var(v) for v in ex.VARIABLES]
        return [SymbolicFormField(0, [ex.Sample(self._chart, B, coords)]) for B in range(3)]


def _partial(f: FormField, axis: int) -> FormField:
    """d f / d x^axis for a scalar field, axis in 1..3."""
    return component_field(exterior_derivative(f), axis)


def deformation_gradients(dm: DeformationMap, e: CoFrame):
    """(pull-back F^a_A, push-forward F^A_a) as 3x3 matrices of scalar fields.

    Rows of the push-forward are body indices A, columns spatial indices a.
    With an identity spatial coframe both coincide with the coordinate
    gradients of the inverse map and its matrix inverse.
    """
    X = dm.inverse_fields()
    push_coord = [[_partial(X[A], a) for a in FRAME_INDICES] for A in range(3)]
    push = matrix_multiply(push_coord, e.inverse_matrix)
    pull = matrix_inverse(push)
    return pull, push


def check_invertible(dm: DeformationMap, points, e: CoFrame):
    """Raise SingularDeformation when |det F^A_a| < 1e-8 at a sampled point."""
    _, push = deformation_gradients(dm, e)
    det = matrix_determinant(push)
    require_nonsingular(det, points, SingularDeformation, "deformation-gradient")


@dataclass(frozen=True)
class StrainState:
    """Euler strain, symmetric 3x3 scalar fields."""

    strain: list

    def entry(self, a, b):
        return self.strain[a - 1][b - 1]


@dataclass(frozen=True)
class StressState:
    """Cauchy stress components sigma^ab and the stress 2-forms tau^a = sigma^ab *e_b."""

    sigma: list
    tau: list

    def entry(self, a, b):
        return self.sigma[a - 1][b - 1]


def euler_strain(dm: DeformationMap, e: CoFrame) -> StrainState:
    """e_ab = (1/2)(delta_ab - F^A_a F^A_b); symmetric by construction."""
    _, push = deformation_gradients(dm, e)
    half = 0.5

    def entry(a, b):
        acc = scalar_field(half if a == b else 0.0)
        for A in range(3):
            acc = acc - push[A][a - 1] * push[A][b - 1] * half
        return acc

    cache = {}
    out = []
    for a in FRAME_INDICES:
        row = []
        for b in FRAME_INDICES:
            key = (min(a, b), max(a, b))
            if key not in cache:
                cache[key] = entry(*key)
            row.append(cache[key])
        out.append(row)
    return StrainState(out)


def strain_trace(strain: StrainState) -> FormField:
    acc = zero_field(0)
    for a in FRAME_INDICES:
        acc = acc + strain.entry(a, a)
    return acc


def isotropic_stress(strain: StrainState, mat: MaterialConstants, e: CoFrame) -> StressState:
    """sigma^ab = 2 mu e^ab + lambda tr(e) delta^ab; requires kappa = 0."""
    if mat.kappa != 0.0:
        raise AnisotropyNotSupported(
            f"the isotropic constitutive law requires kappa = 0, got {mat.kappa}"
        )
    if mat.lam is None or mat.mu is None:
        raise InvalidMaterial("isotropic stress needs both Lame constants, lambda and mu")
    tr = strain_trace(strain)
    sigma = [
        [
            strain.entry(a, b) * (2.0 * mat.mu) + (tr * mat.lam if a == b else zero_field(0))
            for b in FRAME_INDICES
        ]
        for a in FRAME_INDICES
    ]
    tau = [_stress_two_form(sigma, a, e) for a in FRAME_INDICES]
    return StressState(sigma, tau)


def _stress_two_form(sigma, a, e: CoFrame):
    acc = zero_field(2)
    for b in FRAME_INDICES:
        acc = acc + sigma[a - 1][b - 1] * e.hodge(e.e(b))
    return acc


def elasticity_tensor(mat: MaterialConstants):
    """C_abcd = lam d_ab d_cd + mu (d_ac d_bd + d_ad d_bc) + kappa (d_ac d_bd - d_ad d_bc)."""
    if mat.lam is None or mat.mu is None:
        raise InvalidMaterial("the elasticity tensor needs both Lame constants, lambda and mu")

    def delta(i, j):
        return 1.0 if i == j else 0.0

    def C(a, b, c, d):
        return (
            mat.lam * delta(a, b) * delta(c, d)
            + mat.mu * (delta(a, c) * delta(b, d) + delta(a, d) * delta(b, c))
            + mat.kappa * (delta(a, c) * delta(b, d) - delta(a, d) * delta(b, c))
        )

    return C


def stress_from_elasticity_tensor(strain: StrainState, mat: MaterialConstants, e: CoFrame) -> StressState:
    """Full C_abcd contraction; agrees with isotropic_stress whenever kappa = 0."""
    C = elasticity_tensor(mat)
    sigma = []
    for a in FRAME_INDICES:
        row = []
        for b in FRAME_INDICES:
            acc = zero_field(0)
            for c in FRAME_INDICES:
                for d in FRAME_INDICES:
                    coeff = C(a, b, c, d)
                    if coeff != 0.0:
                        acc = acc + strain.entry(c, d) * coeff
            row.append(acc)
        sigma.append(row)
    tau = [_stress_two_form(sigma, a, e) for a in FRAME_INDICES]
    return StressState(sigma, tau)


# ---- balance laws ---------------------------------------------------------------


def mass_conservation_residual(rho_m: FormField, v: VectorField) -> FormField:
    """d(rho_m)/dt + div(rho_m v), a scalar residual field."""
    return time_derivative(rho_m) + divergence(v * rho_m)


def cauchy_motion_residual(
    rho_m: FormField,
    v: VectorField,
    f: VectorField,
    stress: StressState,
    e: CoFrame,
):
    """Residual 3-forms m (dv^a/dt + i_v D v^a) - m f^a - D tau^a per index.

    The mass 3-form m multiplies the scalar acceleration; D is the
    Levi-Civita covariant exterior derivative of the supplied coframe.
    """
    gamma = levi_civita_connection(e)
    vol = e.volume()
    mass = rho_m * vol

    def Dv(a):
        acc = exterior_derivative(v.component(a))
        for b in FRAME_INDICES:
            acc = acc + gamma.entry(a, b) * v.component(b)
        return acc

    def Dtau(a):
        acc = exterior_derivative(stress.tau[a - 1])
        for b in FRAME_INDICES:
            acc = acc + wedge(gamma.entry(a, b), stress.tau[b - 1])
        return acc

    out = []
    for a in FRAME_INDICES:
        accel = time_derivative(v.component(a))
        Dva = Dv(a)
        for b in FRAME_INDICES:
            accel = accel + v.component(b) * e.interior(b, Dva)
        residual = mass * accel - mass * f.component(a) - Dtau(a)
        out.append(residual)
    return out


def volume_relation_residual(dm: DeformationMap, e: CoFrame) -> FormField:
    """det(F^a_A) minus the ratio of the spatial to pulled-back body volume forms."""
    pull, push = deformation_gradients(dm, e)
    det_pull = matrix_determinant(pull)
    X = dm.inverse_fields()
    push_coord = [[_partial(X[A], a) for a in FRAME_INDICES] for A in range(3)]
    det_push_coord = matrix_determinant(push_coord)
    ratio = quotient(component_field(e.volume(), 1, 2, 3), det_push_coord)
    return det_pull - ratio

