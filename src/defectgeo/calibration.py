"""Frozen calibration constants and the oracles that measure them.

Several rational factors tie the extraction conventions to the restricted
defect ansatz.  They are measured by brute-force oracles (deterministic
probe fields at the points the caller passes, no built-in point set) and
frozen here.  A drift would mean a convention changed somewhere upstream, so
a re-measurement fails loudly on it.

The `calibrate` CLI command re-measures `FRANK_SCALE`, the two curvature
factors and `ANSATZ_FLUX_FACTOR` at the scenario's check points, in its
coframe, and checks that both piece-1 traces vanish.  The curvature factors
are defined in `kinematics`, beside the identities whose rows apply them,
and re-exported here; `calibrate` fits them by least squares on the probe
defects, where both sides are well conditioned.  The piece-1 traces
and the six quadratic-invariant deviations are `sampling.normalized_residual`
values, the one residual scale of every check.  It only reports the
invariants (tests assert four of them), and it does not measure the three
`PROJECTION_*` tuples: `tests/test_kinematics.py` re-measures those.
"""

from __future__ import annotations

import numpy as np

from . import fields as ff
from .defects import (
    DefectFields,
    FRANK_SCALE,
    nonmetricity_pieces,
    nonmetricity_second_trace,
    reconstruct_defect_geometry,
    reconstruct_nonmetricity,
)
from .energy import quadratic_invariants
from .forms import FRAME_INDICES
from .geometry import CoFrame
from .kinematics import (  # the two curvature factors, re-exported under their own names
    DISCLINATION_CURVATURE_FACTOR as DISCLINATION_CURVATURE_FACTOR,
    DISLOCATION_CURVATURE_FACTOR as DISLOCATION_CURVATURE_FACTOR,
    curvature_identity_sides,
)
from .sampling import batch_groups, normalized_residuals

#: second-kind trace of the reconstruction ansatz is exactly 3x the Frank covector
EXPECTED_FRANK_SCALE = 3.0

#: the restricted-ansatz flux 2-forms satisfy N_a = 0.5 e_a ^ P; a literal
#: piece2 = 0 reading would give 2/3 instead, so the factor is logged, not assumed
ANSATZ_FLUX_FACTOR = 0.5

#: projections of the symmetrised three-index balance tensor onto the
#: (curl m, beltrami, bilinear) residuals
PROJECTION_DELTA_AB = (1.0,)  # delta^ab S_(ab)c = 1.0 * (curl m)_c
PROJECTION_DELTA_BC = (1.0 / 3.0, -3.0 / 2.0)  # onto (curl m, beltrami)
PROJECTION_EPSILON = (1.0 / 3.0, 3.0 / 4.0, -9.0 / 100.0)  # onto (eps.curl m, eps.beltrami, bilinear)

#: both transverse contractions of the leftover non-metricity piece vanish
#: identically (measured ~1e-16 on random symmetric inputs)
PIECE1_INTERIOR_TRACE = 0.0
PIECE1_WEDGE_TRACE = 0.0


def probe_defects() -> DefectFields:
    """Fixed low-degree polynomial defect fields for deterministic calibration."""
    return DefectFields(
        burgers=ff.symbolic(1, "0.4+0.3*y-0.2*z", "0.1*x+0.5*z", "0.7-0.4*x*y"),
        frank=ff.symbolic(1, "0.2-0.5*z", "0.6+0.1*x*y", "0.3*x+0.2*y"),
        point=ff.symbolic(1, "0.5*x-0.1", "0.2+0.4*z", "0.3*y*z-0.6"),
        scalar=ff.symbolic(0, "0.8+0.25*x-0.35*y*z"),
    )


def _ratio_statistics(numerators, denominators, points):
    """(mean, relative std) of numerator / denominator, component by component
    at every point where |denominator| > 1e-9."""
    num, den = batch_groups([numerators, denominators], points)
    keep = np.abs(den) > 1e-9
    ratios = num[keep] / den[keep]
    mean = float(np.mean(ratios))
    return mean, float(np.std(ratios) / abs(mean))


def fit_scale(A, B):
    """(c, norm(A - c B) / norm(B)): the least-squares factor of A ~ c B over
    stacked value arrays of shape (rows, points), and its relative residual."""
    c = float(np.sum(A * B) / np.sum(B * B))
    return c, float(np.linalg.norm(A - c * B) / np.linalg.norm(B))


def measure_frank_scale(e: CoFrame, points):
    """(mean, relative std) of second-kind-trace(reconstruct(O, 0)) / O pointwise."""
    frank = probe_defects().frank
    P, _ = nonmetricity_second_trace(reconstruct_nonmetricity(frank, ff.zero_field(1), e), e)
    return _ratio_statistics([P], [frank], points)


def measure_flux_factor(e: CoFrame, points):
    """(mean, relative std) of the factor c in N_a = c * e_a ^ P on the ansatz."""
    frank = probe_defects().frank
    P, flux = nonmetricity_second_trace(reconstruct_nonmetricity(frank, ff.zero_field(1), e), e)
    return _ratio_statistics(flux.entries(), [ff.wedge(e.e(a), P) for a in FRAME_INDICES], points)


def measure_piece1_contractions(Q, e: CoFrame, points):
    """`normalized_residual`s of i^a piece1_ab and e^a ^ piece1_ab against Q."""
    piece1 = nonmetricity_pieces(Q, e).piece1.entry
    interior_fields = [
        ff.field_sum(e.interior(a, piece1(a, b)) for a in FRAME_INDICES) for b in FRAME_INDICES
    ]
    wedge_fields = [
        ff.field_sum(ff.wedge(e.e(a), piece1(a, b)) for a in FRAME_INDICES) for b in FRAME_INDICES
    ]
    return normalized_residuals([(interior_fields, Q.entries()), (wedge_fields, Q.entries())], points)


def run_calibration(e: CoFrame, points) -> dict:
    """Measure every frozen constant once; returned dict feeds reports and tests."""
    d = probe_defects()
    frank_scale, frank_std = measure_frank_scale(e, points)
    flux_factor, flux_std = measure_flux_factor(e, points)
    T, Q = reconstruct_defect_geometry(d, e)
    piece1_interior, piece1_wedge = measure_piece1_contractions(Q, e, points)
    A, B, C, R_sym = batch_groups(curvature_identity_sides(d, e), points)
    dislocation_factor, dislocation_residual = fit_scale(A, B)
    disclination_factor, disclination_residual = fit_scale(C, R_sym)
    return {
        "frank_scale": frank_scale,
        "frank_scale_rel_std": frank_std,
        "frank_scale_frozen": FRANK_SCALE,
        "ansatz_flux_factor": flux_factor,
        "ansatz_flux_factor_rel_std": flux_std,
        "piece1_interior_trace": piece1_interior,
        "piece1_wedge_trace": piece1_wedge,
        "dislocation_factor": dislocation_factor,
        "dislocation_fit_residual": dislocation_residual,
        "disclination_factor": disclination_factor,
        "disclination_fit_residual": disclination_residual,
        "quadratic_invariants": quadratic_invariants(T, Q, e, points),
    }
