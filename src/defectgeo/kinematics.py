"""Kinematic equations among the defect densities, evaluated as residual fields.

The identities verified here follow from the three structure identities of
the geometry module once torsion and non-metricity are restricted to the
defect ansatz.  With vanishing curvature the dislocation balance reads, per
frame index a,

    db ^ e^a + (1/3) rho b ^ *e^a - 4 rho O ^ *e^a
             - (2/3) drho ^ *e^a + (2/9) rho m ^ *e^a  =  0,

equivalently *db = -(1/3) rho b + 4 rho O + (2/3) drho - (2/9) rho m, and
the disclination/point-defect balance splits into *dm = 0, the generalized
Beltrami equation *dO = rho O, and an algebraic bilinear constraint on b
and O.  Every Hodge dual is the coframe's, and the disclination and
point-defect residuals are read in frame components i_a(.), since the paper
states the theory in orthonormal frames.

For curved connections (generic defect fields) the same combinations equal
fixed multiples of curvature contractions instead of zero.
`curvature_identity_sides` builds both sides of these two identities, and
the two factors are defined here once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .defects import DefectFields, reconstruct_defect_geometry
from .fields import FormField, evaluate_fields, exterior_derivative, field_sum, hodge, wedge, zero_field
from .forms import FRAME_INDICES
from .geometry import (
    CoFrame,
    TensorFormField,
    connection_with,
    curvature,
    defect_one_form,
    levi_civita_connection,
)
from .sampling import grid_blocks, grid_counts


# ---- balance laws ---------------------------------------------------------------


def dislocation_balance(d: DefectFields, e: CoFrame) -> TensorFormField:
    """The dislocation balance residual: one 3-form per frame index a."""
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

    return TensorFormField.build(("u",), 3, entry)


def disclination_point_balance(d: DefectFields, e: CoFrame):
    """(*dm, *dO - rho O, bilinear 3x3 constraint) as residual 0-form fields.

    The two 1-form residuals are given by their frame components i_a(.),
    and the constraint is built from the frame components O_a = i_a O and
    b_a = i_a b.
    """
    point_curl = e.hodge(exterior_derivative(d.point))
    beltrami = e.hodge(exterior_derivative(d.frank)) - d.frank * d.scalar
    O = [e.interior(a, d.frank) for a in FRAME_INDICES]
    b = [e.interior(a, d.burgers) for a in FRAME_INDICES]
    OO = field_sum(o * o for o in O)
    bO = field_sum(b_a * o for b_a, o in zip(b, O))

    def entry(a, c):
        acc = zero_field(0)
        if a == c:
            acc = acc + OO * 18.0 - bO * 5.0
        acc = acc - O[a - 1] * O[c - 1] * 54.0
        acc = acc + (b[a - 1] * O[c - 1] + b[c - 1] * O[a - 1]) * 7.5
        return acc

    algebraic = [[entry(a, c) for c in FRAME_INDICES] for a in FRAME_INDICES]
    return (
        [e.interior(a, point_curl) for a in FRAME_INDICES],
        [e.interior(a, beltrami) for a in FRAME_INDICES],
        algebraic,
    )


# ---- curvature identities ----------------------------------------------------------

#: dislocation balance combination = -2 x (curvature contraction R^a_b ^ e^b)
DISLOCATION_CURVATURE_FACTOR = -2.0

#: exact-covariant disclination combination = +1 x R_(ab)
DISCLINATION_CURVATURE_FACTOR = 1.0


def curvature_identity_sides(d: DefectFields, e: CoFrame):
    """(A, B, C, R_(ab)) as field lists: A^a = DISLOCATION_CURVATURE_FACTOR B^a
    and C_ab = DISCLINATION_CURVATURE_FACTOR R_(ab) hold for any defect fields.

    Builds omega = gamma + L from the restricted (T, Q) carrying `d`.  A^a is
    the dislocation form residual and B^a = R^a_b ^ e^b.  C_ab is the
    disclination combination with the covariant derivative of the Frank
    components expanded exactly: D O_a = dO_a - omega^c_a O_c and
    De_b = T_b - 2 Q_bc ^ e^c.
    """
    T, Q = reconstruct_defect_geometry(d, e)
    omega = connection_with(levi_civita_connection(e), defect_one_form(T, Q, e))
    R = curvature(omega)

    A = dislocation_balance(d, e).entries()
    B = [field_sum(wedge(R.entry(a, b), e.e(b)) for b in FRAME_INDICES) for a in FRAME_INDICES]
    R_sym = [(R.entry(a, b) + R.entry(b, a)) * 0.5 for a in FRAME_INDICES for b in FRAME_INDICES]
    return A, B, _disclination_combination(d, e, T, Q, omega), R_sym


def _disclination_combination(d, e: CoFrame, T: TensorFormField, Q: TensorFormField, omega: TensorFormField):
    """The symmetric 2-form combination C_ab, the covariant derivative of the
    restricted non-metricity, entry by entry in (a, b) order."""
    dO = exterior_derivative(d.frank)
    dm = exterior_derivative(d.point)
    O_comp = [e.interior(a, d.frank) for a in FRAME_INDICES]
    DO, De = [], []  # D O_a and De_a, a = 1..3
    for a in FRAME_INDICES:
        DO_a, De_a = exterior_derivative(O_comp[a - 1]), T.entry(a)
        for c in FRAME_INDICES:
            DO_a = DO_a - omega.entry(c, a) * O_comp[c - 1]
            De_a = De_a - wedge(Q.entry(a, c), e.e(c)) * 2.0
        DO.append(DO_a)
        De.append(De_a)

    def entry(a, b):
        acc = wedge(DO[a - 1], e.e(b)) + wedge(DO[b - 1], e.e(a))
        acc = acc + O_comp[a - 1] * De[b - 1] + O_comp[b - 1] * De[a - 1]
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
    (dphi,) = evaluate_fields([exterior_derivative(phi)], *on_sphere)
    radial = sum(c * nk for c, nk in zip(dphi.components, normal))
    area_weight = radius**2 * np.sin(TH).ravel() * (np.pi / n_theta) * (2.0 * np.pi / n_phi)
    flux_total = float(np.sum(radial * area_weight))
    return ExtraMatterReport(density, volume_total, flux_total)
