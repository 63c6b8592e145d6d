"""Quadratic defect free-energy density, coupling map, and dislocation energies.

The free-energy 3-form of a defect configuration is

    L = k1 b^*b + k2 S^*S + k3 O^*O + k4 m^*m
      + k5 O^*m + k6 b^*O + k7 b^*m

with b, O, m the Burgers/Frank/point covectors and S = rho *1, so the
vector representation is (k1 b.b + k2 rho^2 + k3 O.O + k4 m.m + k5 O.m
+ k6 b.O + k7 b.m) *1.  Both representations are implemented and must agree
pointwise.  Every term is quadratic, so the density is invariant under a
coordinate reflection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .defects import DefectFields, nonmetricity_second_trace, nonmetricity_trace, torsion_traces
from .errors import EvaluationError, InvalidMaterial
from .fields import FormField, VectorField, component_field, field_sum, wedge, zero_field
from .forms import FRAME_INDICES
from .geometry import CoFrame, TensorFormField
from .sampling import grid_blocks, grid_counts, normalized_residuals

if TYPE_CHECKING:
    from .elasticity import MaterialConstants


@dataclass(frozen=True)
class Couplings:
    """Quadratic coupling constants (energy density per squared defect field)."""

    kappa1: float = 0.0
    kappa2: float = 0.0
    kappa3: float = 0.0
    kappa4: float = 0.0
    kappa5: float = 0.0
    kappa6: float = 0.0
    kappa7: float = 0.0

    def __post_init__(self):
        for i in range(1, 8):
            v = getattr(self, f"kappa{i}")
            if not np.isfinite(v):
                raise ValueError(f"kappa{i} must be finite, got {v}")


@dataclass(frozen=True)
class MappedCouplings:
    """The same model expressed in the three-family constant convention."""

    k1: float
    k2: float
    k3: float
    c1: float
    c2: float
    c3: float
    c4: float
    c5: float
    l1: float
    l2: float
    l3: float


def map_couplings(k: Couplings) -> MappedCouplings:
    """Exact affine translation between the two coupling conventions; c2 = 0 always."""
    return MappedCouplings(
        k1=k.kappa1,
        k2=k.kappa2,
        k3=-k.kappa1,
        c1=k.kappa3,
        c2=0.0,
        c3=-k.kappa3,
        c4=-(5.0 / 9.0) * k.kappa3 + k.kappa4 + (2.0 / 3.0) * k.kappa5,
        c5=(2.0 / 3.0) * k.kappa3 - k.kappa5,
        l1=-k.kappa6,
        l2=-(2.0 / 3.0) * k.kappa6 - k.kappa7,
        l3=k.kappa6,
    )


def lagrangian_form(d: DefectFields, k: Couplings, e: CoFrame) -> FormField:
    """Free-energy 3-form via wedge/Hodge evaluation."""
    vol = e.volume()
    S = d.scalar * vol

    def quad(alpha, beta):
        return wedge(alpha, e.hodge(beta))

    acc = zero_field(3)
    terms = (
        (k.kappa1, d.burgers, d.burgers),
        (k.kappa3, d.frank, d.frank),
        (k.kappa4, d.point, d.point),
        (k.kappa5, d.frank, d.point),
        (k.kappa6, d.burgers, d.frank),
        (k.kappa7, d.burgers, d.point),
    )
    for coeff, alpha, beta in terms:
        if coeff != 0.0:
            acc = acc + quad(alpha, beta) * coeff
    if k.kappa2 != 0.0:
        # S ^ *S = (rho *1) ^ *(rho *1) = rho^2 *1
        acc = acc + wedge(S, e.hodge(S)) * k.kappa2
    return acc


def lagrangian_vector(d: DefectFields, k: Couplings, e: CoFrame) -> FormField:
    """Free-energy 3-form via componentwise dot products times the volume form."""
    b = _frame_vector(d.burgers, e)
    O = _frame_vector(d.frank, e)
    m = _frame_vector(d.point, e)
    density = (
        b.dot(b) * k.kappa1
        + d.scalar * d.scalar * k.kappa2
        + O.dot(O) * k.kappa3
        + m.dot(m) * k.kappa4
        + O.dot(m) * k.kappa5
        + b.dot(O) * k.kappa6
        + b.dot(m) * k.kappa7
    )
    return density * e.volume()


def _frame_vector(alpha: FormField, e: CoFrame):
    """Orthonormal components of a 1-form against the coframe."""
    return VectorField.of(*(e.interior(a, alpha) for a in FRAME_INDICES))


def total_free_energy(d: DefectFields, k: Couplings, bounds_min, bounds_max, resolution, e: CoFrame) -> float:
    """Midpoint quadrature of the free-energy 3-form coefficient over a box (EvaluationError on overflow)."""
    (n,) = grid_counts("resolution", resolution, (resolution,))
    if n < 2:
        raise ValueError("quadrature needs at least 2 cells per axis")
    density = component_field(lagrangian_form(d, k, e), 1, 2, 3)
    counts = (n,) * 3
    cell = np.prod([(hi - lo) / n for lo, hi in zip(bounds_min, bounds_max)])
    blocks = grid_blocks(bounds_min, bounds_max, counts, midpoints=True)
    # one sum over the whole grid: the same summation order as an unblocked walk
    vals = np.concatenate([density.evaluate_batch(*block.T).components[0] for block in blocks])
    total = float(np.sum(vals) * cell)
    if not np.isfinite(total):
        raise EvaluationError(
            f"free-energy quadrature at resolution {counts[0]} over the box {tuple(bounds_min)} to "
            f"{tuple(bounds_max)} overflows: the midpoint sum is {total}"
        )
    return total


@dataclass(frozen=True)
class EnergyEstimate:
    """Quadrature at two resolutions with a Richardson error estimate."""

    coarse: float
    fine: float
    extrapolated: float
    error_estimate: float


def total_free_energy_estimate(d, k, bounds_min, bounds_max, resolution, e: CoFrame) -> EnergyEstimate:
    """Run the box quadrature at N and 2N; midpoint error falls like 1/N^2."""
    coarse = total_free_energy(d, k, bounds_min, bounds_max, resolution, e)
    fine = total_free_energy(d, k, bounds_min, bounds_max, 2 * resolution, e)
    extrapolated = (4.0 * fine - coarse) / 3.0
    return EnergyEstimate(coarse, fine, extrapolated, abs(fine - coarse) / 3.0)


# ---- quadratic invariants ----------------------------------------------------------


def quadratic_invariants(T: TensorFormField, Q: TensorFormField, e: CoFrame, points) -> dict:
    """{name: deviation} of the six trace-invariant expansions, each the
    `normalized_residual` of lhs - rhs against lhs.

    Four expansions hold identically for the restricted (T, Q); tests assert
    them.  The expansions of O^*O and b^*O involve a two-index coframe
    factor whose intended reading is ambiguous; both are evaluated here
    under the plain reading e_ac = e_a ^ e_c and only reported.
    """
    trace_T, S = torsion_traces(T, e)
    trace_Q = nonmetricity_trace(Q)
    P, _ = nonmetricity_second_trace(Q, e)
    star = e.hodge

    sides = []  # (name, lhs, rhs) per expansion

    # trace-squared torsion invariant
    lhs = wedge(trace_T, star(trace_T))
    rhs = field_sum([wedge(T.entry(a), star(T.entry(a))) for a in FRAME_INDICES]) - field_sum(
        [
            wedge(wedge(T.entry(a), e.e(b)), star(wedge(T.entry(b), e.e(a))))
            for a in FRAME_INDICES
            for b in FRAME_INDICES
        ]
    )
    sides.append(("torsion-trace", lhs, rhs))

    # totally antisymmetric torsion invariant
    lhs = wedge(S, star(S))
    rhs = field_sum(
        [
            wedge(wedge(T.entry(a), e.e(a)), star(wedge(T.entry(b), e.e(b))))
            for a in FRAME_INDICES
            for b in FRAME_INDICES
        ]
    )
    sides.append(("torsion-scalar", lhs, rhs))

    # second-kind trace squared: calibration mode (two-index coframe factor)
    lhs = wedge(P, star(P))
    rhs = field_sum(
        [wedge(Q.entry(a, b), star(Q.entry(a, b))) for a in FRAME_INDICES for b in FRAME_INDICES]
    )
    rhs = rhs - field_sum(
        [
            wedge(wedge(Q.entry(a, b), e.e(c)), star(wedge(Q.entry(a, c), e.e(b))))
            for a in FRAME_INDICES
            for b in FRAME_INDICES
            for c in FRAME_INDICES
        ]
    )
    rhs = rhs - wedge(trace_Q, star(trace_Q)) * (5.0 / 9.0)
    rhs = rhs + field_sum(
        [
            wedge(wedge(trace_Q, e.e(b)), star(wedge(Q.entry(a, b), e.e(a))))
            for a in FRAME_INDICES
            for b in FRAME_INDICES
        ]
    ) * (2.0 / 3.0)
    sides.append(("frank-square", lhs, rhs))

    # mixed second-kind/first-kind trace
    lhs = wedge(P, star(trace_Q))
    rhs = wedge(trace_Q, star(trace_Q)) * (2.0 / 3.0) - field_sum(
        [
            wedge(wedge(trace_Q, e.e(b)), star(wedge(Q.entry(a, b), e.e(a))))
            for a in FRAME_INDICES
            for b in FRAME_INDICES
        ]
    )
    sides.append(("frank-point", lhs, rhs))

    # torsion-trace / second-kind trace: calibration mode
    lhs = wedge(trace_T, star(P))
    rhs = -field_sum(
        [
            wedge(
                wedge(Q.entry(a, b), wedge(e.e(a), e.e(c))),
                star(wedge(T.entry(c), e.e(b))),
            )
            for a in FRAME_INDICES
            for b in FRAME_INDICES
            for c in FRAME_INDICES
        ]
    )
    rhs = rhs - field_sum(
        [wedge(wedge(trace_Q, e.e(a)), star(T.entry(a))) for a in FRAME_INDICES]
    ) * (2.0 / 3.0)
    rhs = rhs + field_sum(
        [
            wedge(wedge(Q.entry(a, b), e.e(b)), star(T.entry(a)))
            for a in FRAME_INDICES
            for b in FRAME_INDICES
        ]
    )
    sides.append(("burgers-frank", lhs, rhs))

    # torsion-trace / first-kind trace
    lhs = wedge(trace_T, star(trace_Q))
    rhs = -field_sum(
        [wedge(wedge(trace_Q, e.e(a)), star(T.entry(a))) for a in FRAME_INDICES]
    )
    sides.append(("burgers-point", lhs, rhs))

    values = normalized_residuals([([lhs - rhs], [lhs]) for _, lhs, rhs in sides], points)
    return {name: value for (name, _, _), value in zip(sides, values)}


# ---- dislocation strain-energy coefficients -----------------------------------------


def dislocation_energy_coefficient(kind: str, mat: MaterialConstants) -> float:
    """Strain-energy density prefactor of a straight dislocation line.

    screw: G ln(R/r0) / (4 pi);  edge: the same over (1 - nu).
    """
    if kind not in ("screw", "edge"):
        raise ValueError(f"kind must be 'screw' or 'edge', got {kind!r}")
    if mat.shear_modulus is None or mat.r_outer is None or mat.r_core is None:
        raise InvalidMaterial("dislocation energies need shear modulus and both radii")
    if mat.shear_modulus <= 0.0:
        raise InvalidMaterial(f"shear modulus must be positive, got {mat.shear_modulus}")
    base = mat.shear_modulus / (4.0 * np.pi) * np.log(mat.r_outer / mat.r_core)
    if kind == "screw":
        return float(base)
    if mat.poisson is None:
        raise InvalidMaterial("the edge coefficient needs a Poisson ratio")
    return float(base / (1.0 - mat.poisson))
