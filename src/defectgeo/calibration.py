"""Frozen calibration constants and the oracles that measure them.

Several rational factors tie the extraction conventions to the restricted
defect ansatz.  They are measured by brute-force oracles (deterministic
probe fields at the points the caller passes, no built-in point set) and
frozen here.  A drift would mean a convention changed somewhere upstream, so
a re-measurement fails loudly on it.

The `calibrate` CLI command re-measures `defects.FRANK_SCALE`, the two
curvature factors and `ANSATZ_FLUX_FACTOR` at the scenario's check points,
reading every field in the frame components of its coframe.  The curvature
factors are defined in `kinematics`, beside the identities whose rows apply
them, and re-exported here; `calibrate` fits them by least squares on the
probe defects, where both sides are well conditioned.  The two piece-1
traces and the six quadratic-invariant expansions are not evaluated here:
they are (residual fields, reference fields) pairs, which `cli._judge`
reads like every other residual row.
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
from .sampling import batch_groups

#: the restricted-ansatz flux 2-forms satisfy N_a = 0.5 e_a ^ P; a literal
#: piece2 = 0 reading would give 2/3 instead, so the factor is logged, not assumed
ANSATZ_FLUX_FACTOR = 0.5


def probe_defects() -> DefectFields:
    """Fixed low-degree polynomial defect fields for deterministic calibration."""
    return DefectFields(
        burgers=ff.symbolic(1, "0.4+0.3*y-0.2*z", "0.1*x+0.5*z", "0.7-0.4*x*y"),
        frank=ff.symbolic(1, "0.2-0.5*z", "0.6+0.1*x*y", "0.3*x+0.2*y"),
        point=ff.symbolic(1, "0.5*x-0.1", "0.2+0.4*z", "0.3*y*z-0.6"),
        scalar=ff.symbolic(0, "0.8+0.25*x-0.35*y*z"),
    )


def _frame_groups(groups, e: CoFrame, points):
    """`batch_groups` of `groups` with each field read in the frame components of `e`."""
    return batch_groups([[e.in_frame(f) for f in g] for g in groups], points)


def _ratio_statistics(numerators, denominators, e: CoFrame, points):
    """(mean, relative std) of numerator / denominator, frame component by frame
    component at every point where |denominator| > 1e-9."""
    num, den = _frame_groups([numerators, denominators], e, points)
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
    return _ratio_statistics([P], [frank], e, points)


def measure_flux_factor(e: CoFrame, points):
    """(mean, relative std) of the factor c in N_a = c * e_a ^ P on the ansatz."""
    frank = probe_defects().frank
    P, flux = nonmetricity_second_trace(reconstruct_nonmetricity(frank, ff.zero_field(1), e), e)
    return _ratio_statistics(flux.entries(), [ff.wedge(e.e(a), P) for a in FRAME_INDICES], e, points)


def piece1_contractions(Q, e: CoFrame):
    """The (residual, reference) pairs of i^a piece1_ab and e^a ^ piece1_ab against Q."""
    piece1 = nonmetricity_pieces(Q, e).piece1.entry
    interior_fields = [
        ff.field_sum(e.interior(a, piece1(a, b)) for a in FRAME_INDICES) for b in FRAME_INDICES
    ]
    wedge_fields = [
        ff.field_sum(ff.wedge(e.e(a), piece1(a, b)) for a in FRAME_INDICES) for b in FRAME_INDICES
    ]
    return (interior_fields, Q.entries()), (wedge_fields, Q.entries())


def run_calibration(e: CoFrame, points):
    """(constants, pairs): every frozen constant measured once at `points`, and
    {row name: (residual fields, reference fields)} of the two piece-1 traces and
    the six quadratic-invariant expansions, unevaluated."""
    d = probe_defects()
    frank_scale, frank_std = measure_frank_scale(e, points)
    flux_factor, flux_std = measure_flux_factor(e, points)
    A, B, C, R_sym = _frame_groups(curvature_identity_sides(d, e), e, points)
    dislocation_factor, dislocation_residual = fit_scale(A, B)
    disclination_factor, disclination_residual = fit_scale(C, R_sym)
    constants = {
        "frank_scale": frank_scale,
        "frank_scale_rel_std": frank_std,
        "frank_scale_frozen": FRANK_SCALE,
        "ansatz_flux_factor": flux_factor,
        "ansatz_flux_factor_rel_std": flux_std,
        "dislocation_factor": dislocation_factor,
        "dislocation_fit_residual": dislocation_residual,
        "disclination_factor": disclination_factor,
        "disclination_fit_residual": disclination_residual,
    }
    T, Q = reconstruct_defect_geometry(d, e)
    pairs = dict(zip(("piece1-interior-trace", "piece1-wedge-trace"), piece1_contractions(Q, e)))
    pairs.update((f"invariant-{name}", pair) for name, pair in quadratic_invariants(T, Q, e).items())
    return constants, pairs
