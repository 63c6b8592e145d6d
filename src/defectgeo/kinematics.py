"""Kinematic equations among the defect densities, evaluated as residual fields.

The identities verified here follow from the three structure identities of
the geometry module once torsion and non-metricity are restricted to the
defect ansatz.  With vanishing curvature the dislocation balance reads, per
frame index a,

    db ^ e^a + (1/3) rho b ^ *e^a - 4 rho O ^ *e^a
             - (2/3) drho ^ *e^a + (2/9) rho m ^ *e^a  =  0,

equivalently curl b = -(1/3) rho b + 4 rho O + (2/3) grad rho - (2/9) rho m,
and the disclination/point-defect balance splits into curl m = 0, the
generalized Beltrami equation curl O = rho O, and an algebraic bilinear
constraint on b and O.

For curved connections (generic defect fields) the same combinations are
proportional to curvature contractions instead of zero; `bianchi_consistency`
measures the proportionality factors by least squares rather than asserting
numbers the displays do not fix.  The vector representations use the flat
Cartesian operators and agree with the exterior-form residuals whenever the
coframe is the identity (or any constant rotation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .defects import DefectFields, reconstruct_defect_geometry
from .fields import (
    FormField,
    curl,
    evaluate_fields,
    exterior_derivative,
    field_sum,
    grad,
    hodge,
    one_form_to_vector,
    wedge,
    zero_field,
)
from .forms import FRAME_INDICES
from .geometry import (
    CoFrame,
    TensorFormField,
    connection_with,
    curvature,
    defect_one_form,
    levi_civita_connection,
)
from .sampling import grid_blocks, grid_counts, normalized_residuals


def _eps(i, j, k):
    return float((i - j) * (j - k) * (k - i)) / 2.0


# ---- balance laws ---------------------------------------------------------------


def dislocation_balance(d: DefectFields, e: CoFrame):
    """(form residuals per index, vector residual) of the dislocation balance."""
    db = exterior_derivative(d.burgers)
    drho = exterior_derivative(d.scalar)

    def entry(a):
        star_ea = e.hodge(e.e(a))
        acc = wedge(db, e.e(a))
        acc = acc + wedge(d.burgers, star_ea) * d.scalar * (1.0 / 3.0)
        acc = acc - wedge(d.frank, star_ea) * d.scalar * 4.0
        acc = acc - wedge(drho, star_ea) * (2.0 / 3.0)
        acc = acc + wedge(d.point, star_ea) * d.scalar * (2.0 / 9.0)
        return acc

    form_residual = TensorFormField.build(("u",), 3, entry)

    b = one_form_to_vector(d.burgers)
    O = one_form_to_vector(d.frank)
    m = one_form_to_vector(d.point)
    rho = d.scalar
    vector_residual = (
        curl(b)
        + b * rho * (1.0 / 3.0)
        - O * rho * 4.0
        - grad(rho) * (2.0 / 3.0)
        + m * rho * (2.0 / 9.0)
    )
    return form_residual, vector_residual


def disclination_point_balance(d: DefectFields):
    """(curl m, curl O - rho O, bilinear 3x3 constraint) as residual fields."""
    O = one_form_to_vector(d.frank)
    b = one_form_to_vector(d.burgers)
    m = one_form_to_vector(d.point)
    point_curl = curl(m)
    beltrami = curl(O) - O * d.scalar

    OO = O.dot(O)
    bO = b.dot(O)

    def entry(a, c):
        acc = zero_field(0)
        if a == c:
            acc = acc + OO * 18.0 - bO * 5.0
        acc = acc - O.component(a) * O.component(c) * 54.0
        acc = acc + (b.component(a) * O.component(c) + b.component(c) * O.component(a)) * 7.5
        return acc

    algebraic = [[entry(a, c) for c in FRAME_INDICES] for a in FRAME_INDICES]
    return point_curl, beltrami, algebraic


def disclination_balance_tensor(d: DefectFields):
    """The symmetrised three-index residual tensor S_(ab)c as 0-form fields.

    Term-by-term transcription; its delta / epsilon contractions reproduce
    the three residuals of disclination_point_balance with fixed rational
    coefficients (pinned by the projection tests).
    """
    b = one_form_to_vector(d.burgers)
    O = one_form_to_vector(d.frank)
    m = one_form_to_vector(d.point)
    rho = d.scalar
    curl_O = curl(O)
    curl_m = curl(m)

    def entry(a, bb, c):
        acc = zero_field(0)
        if a == c:
            acc = acc - curl_O.component(bb) * (9.0 / 20.0)
            acc = acc + O.component(bb) * rho * (9.0 / 20.0)
        if bb == c:
            acc = acc - curl_O.component(a) * (9.0 / 20.0)
            acc = acc + O.component(a) * rho * (9.0 / 20.0)
        if a == bb:
            acc = acc + curl_O.component(c) * (3.0 / 10.0)
            acc = acc + curl_m.component(c) * (1.0 / 3.0)
            acc = acc - O.component(c) * rho * (3.0 / 10.0)
        for k in FRAME_INDICES:
            e_kbc = _eps(k, bb, c)
            e_kac = _eps(k, a, c)
            if e_kbc:
                acc = acc - (b.component(k) * O.component(a)) * (9.0 / 40.0 * e_kbc)
                acc = acc - (b.component(a) * O.component(k)) * (9.0 / 40.0 * e_kbc)
                acc = acc + (O.component(k) * O.component(a)) * (81.0 / 50.0 * e_kbc)
            if e_kac:
                acc = acc - (b.component(k) * O.component(bb)) * (9.0 / 40.0 * e_kac)
                acc = acc - (b.component(bb) * O.component(k)) * (9.0 / 40.0 * e_kac)
                acc = acc + (O.component(k) * O.component(bb)) * (81.0 / 50.0 * e_kac)
        return acc

    return [
        [[entry(a, bb, c) for c in FRAME_INDICES] for bb in FRAME_INDICES]
        for a in FRAME_INDICES
    ]


# ---- curvature-coupled consistency ------------------------------------------------


@dataclass(frozen=True)
class ScaleFit:
    """Least-squares proportionality fit A = coefficient * B over sample points."""

    coefficient: float
    relative_residual: float
    pointwise_std: float  # std of per-point coefficients relative to |coefficient|


def fit_scale(A, B) -> ScaleFit:
    """Fit A ~ c*B for stacked value arrays of shape (rows, points)."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    denom = float(np.sum(B * B))
    if denom == 0.0:
        residual = float(np.sqrt(np.sum(A * A)))
        return ScaleFit(0.0, residual, 0.0)
    c = float(np.sum(A * B) / denom)
    rel = float(np.linalg.norm(A - c * B) / np.linalg.norm(B))
    col_den = np.sum(B * B, axis=0)
    keep = col_den > 1e-12 * col_den.max()
    per_point = np.sum(A * B, axis=0)[keep] / col_den[keep]
    std = float(np.std(per_point) / abs(c)) if c != 0.0 else float(np.std(per_point))
    return ScaleFit(c, rel, std)


@dataclass(frozen=True)
class ConsistencyReport:
    dislocation: ScaleFit
    disclination: ScaleFit
    disclination_literal: ScaleFit
    residuals: tuple = ()


def bianchi_consistency(e: CoFrame, d: DefectFields, points, pairs=()) -> ConsistencyReport:
    """Fit the balance combinations against their curvature counterparts.

    Builds omega = gamma + L from the restricted (T, Q) carrying `d`, then
    fits the dislocation form residual A^a against B^a = R^a_b ^ e^b and
    the disclination combination C_ab against R_(ab).  For defect fields
    satisfying the ansatz these are exact proportionalities; the fitted
    factors are reported, not assumed.

    The disclination combination exists in two variants.  `disclination`
    expands the covariant derivative of the Frank components exactly
    (D O_a = dO_a - omega^c_a O_c, De_b = T_b - 2 Q_bc ^ e^c) and fits with
    factor 1 to machine precision for any defect fields.  The `literal`
    variant replaces D O_a by the flat-configuration shortcut
    (1/2) O_b i_a T^b - (1/2) i_a dO, which closes only when the curvature
    vanishes; its fit is reported purely as calibration data.

    The report's `residuals` are the `normalized_residuals` of the
    (residual_fields, reference_fields) `pairs`, evaluated in the same walk.
    """
    T, Q = reconstruct_defect_geometry(d, e)
    L = defect_one_form(T, Q, e)
    gamma = levi_civita_connection(e)
    omega = connection_with(gamma, L)
    R = curvature(omega)

    A_fields, _ = dislocation_balance(d, e)
    B_fields = TensorFormField.build(
        ("u",), 3, lambda a: field_sum(wedge(R.entry(a, b), e.e(b)) for b in FRAME_INDICES)
    )
    R_sym = [(R.entry(a, b) + R.entry(b, a)) * 0.5 for a in FRAME_INDICES for b in FRAME_INDICES]
    exact = _disclination_combination(d, e, T, Q, omega=omega)
    literal = _disclination_combination(d, e, T, Q, omega=None)
    *residuals, A, B, R_sym, exact, literal = normalized_residuals(
        pairs, points, [A_fields.entries(), B_fields.entries(), R_sym, exact, literal]
    )
    return ConsistencyReport(fit_scale(A, B), fit_scale(exact, R_sym), fit_scale(literal, R_sym), tuple(residuals))


def _disclination_combination(d, e: CoFrame, T: TensorFormField, Q: TensorFormField, omega=None):
    """The symmetric 2-form combination fitted against R_(ab).

    With a connection supplied the Frank-component derivative and the
    coframe derivative are expanded covariantly and the combination is the
    exact covariant derivative of the restricted non-metricity.  Without
    one, the flat-configuration shortcut D O_a = (1/2) O_b i_a T^b
    - (1/2) i_a dO and De_b = T_b is transcribed as displayed.
    """
    dO = exterior_derivative(d.frank)
    dm = exterior_derivative(d.point)
    O_comp = [e.interior(a, d.frank) for a in FRAME_INDICES]

    if omega is None:

        def DO(a):
            acc = e.interior(a, dO) * (-0.5)
            for b in FRAME_INDICES:
                acc = acc + (O_comp[b - 1] * e.interior(a, T.entry(b))) * 0.5
            return acc

        def De(b):
            return T.entry(b)

    else:

        def DO(a):
            acc = exterior_derivative(O_comp[a - 1])
            for c in FRAME_INDICES:
                acc = acc - omega.entry(c, a) * O_comp[c - 1]
            return acc

        def De(b):
            acc = T.entry(b)
            for c in FRAME_INDICES:
                acc = acc - wedge(Q.entry(b, c), e.e(c)) * 2.0
            return acc

    DO_cache = {a: DO(a) for a in FRAME_INDICES}
    De_cache = {a: De(a) for a in FRAME_INDICES}

    def entry(a, b):
        acc = wedge(DO_cache[a], e.e(b)) + wedge(DO_cache[b], e.e(a))
        acc = acc + O_comp[a - 1] * De_cache[b] + O_comp[b - 1] * De_cache[a]
        acc = acc * (9.0 / 10.0)
        acc = acc + wedge(Q.entry(a, b), d.frank) * (6.0 / 5.0)
        acc = acc - wedge(Q.entry(a, b), d.point) * (2.0 / 3.0)
        if a == b:
            acc = acc - dO * (3.0 / 5.0)
            acc = acc + dm * (1.0 / 3.0)
        return acc

    return [entry(a, b) for a in FRAME_INDICES for b in FRAME_INDICES]


# ---- extra matter -------------------------------------------------------------------


@dataclass(frozen=True)
class ExtraMatterReport:
    density: FormField  # 0-form field *(d*d phi)
    volume_total: float
    flux_total: float

    @property
    def stokes_gap(self) -> float:
        return abs(self.volume_total - self.flux_total)


def extra_matter(
    phi: FormField,
    center=(0.0, 0.0, 0.0),
    radius=1.0,
    volume_resolution=48,
    sphere_resolution=(96, 192),
) -> ExtraMatterReport:
    """Extra-matter density *(d*dphi) with its ball total and boundary flux.

    The two totals agree by the Stokes theorem up to quadrature error; both
    integrals use the midpoint rule (uniform Cartesian cells restricted to
    the ball, and a latitude/longitude grid on the sphere).
    """
    if not 0.0 < radius < np.inf:
        raise ValueError(f"radius must be positive and finite, got {radius!r}")
    (n,) = grid_counts("volume_resolution", volume_resolution, (volume_resolution,))
    n_theta, n_phi = grid_counts("sphere_resolution", sphere_resolution, sphere_resolution)
    density = hodge(exterior_derivative(hodge(exterior_derivative(phi))))

    cx, cy, cz = center
    cell = (2.0 * radius / n) ** 3
    vals = []
    for block in grid_blocks([c - radius for c in center], [c + radius for c in center], (n,) * 3, midpoints=True):
        x, y, z, _ = block.T
        inside = (x - cx) ** 2 + (y - cy) ** 2 + (z - cz) ** 2 <= radius**2
        vals.append(np.where(inside, density.evaluate_batch(*block.T).components[0], 0.0))
    volume_total = float(np.sum(np.concatenate(vals)) * cell)

    thetas = (np.arange(n_theta) + 0.5) * (np.pi / n_theta)
    phis = (np.arange(n_phi) + 0.5) * (2.0 * np.pi / n_phi)
    TH, PH = np.meshgrid(thetas, phis, indexing="ij")
    normal = np.stack([np.sin(TH) * np.cos(PH), np.sin(TH) * np.sin(PH), np.cos(TH)]).reshape(3, -1)
    on_sphere = np.reshape(center, (3, 1)) + radius * normal
    grads = evaluate_fields(grad(phi).comps, *on_sphere)
    radial = sum(g.components[0] * nk for g, nk in zip(grads, normal))
    area_weight = radius**2 * np.sin(TH).ravel() * (np.pi / n_theta) * (2.0 * np.pi / n_phi)
    flux_total = float(np.sum(radial * area_weight))
    return ExtraMatterReport(density, volume_total, flux_total)
