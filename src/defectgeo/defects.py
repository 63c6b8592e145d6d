"""Torsion traces, the irreducible decomposition of non-metricity, and the defect densities.

Identifications used throughout the package:

* Burgers covector  b  = torsion trace 1-form       -> dislocations
* Frank covector    O  = second-kind trace P of the
                         traceless non-metricity    -> disclinations
* point covector    m  = non-metricity trace        -> point defects / extra matter
* scalar density  rho  = coefficient of the totally
                         antisymmetric torsion part S = rho * vol
* generalized Burgers B = b + c1 O + c2 m, with c1 = -3, c2 = 2/3.

Extraction of the Frank covector divides the raw second-kind trace
(`nonmetricity_second_trace`) by FRANK_SCALE (the exact factor produced by
feeding the restricted reconstruction ansatz back through the trace;
measured and frozen in `calibration`), so extract_defects inverts the
reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import FormField, field_sum, scalar_field, wedge, zero_field
from .forms import FRAME_INDICES
from .geometry import CoFrame, TensorFormField, nonmetricity, torsion

#: exact factor between the raw second-kind trace and the Frank covector it
#: encodes; see calibration.measure_frank_scale for the oracle that pins it.
FRANK_SCALE = 3.0

#: generalized-Burgers combination constants
GENERALIZED_BURGERS_C1 = -3.0
GENERALIZED_BURGERS_C2 = 2.0 / 3.0


@dataclass(frozen=True)
class DefectFields:
    """The physical defect densities of one configuration."""

    burgers: FormField  # 1-form
    frank: FormField  # 1-form
    point: FormField  # 1-form
    scalar: FormField  # 0-form

    def __post_init__(self):
        for name, deg in (("burgers", 1), ("frank", 1), ("point", 1), ("scalar", 0)):
            f = getattr(self, name)
            if f.degree != deg:
                raise ValueError(f"{name} must be a degree-{deg} field, got {f.degree}")

    @property
    def generalized_burgers(self) -> FormField:
        return self.burgers + self.frank * GENERALIZED_BURGERS_C1 + self.point * GENERALIZED_BURGERS_C2

    @classmethod
    def zero(cls):
        z1 = zero_field(1)
        return cls(z1, z1, z1, zero_field(0))


@dataclass(frozen=True)
class NonmetricityPieces:
    """Irreducible non-metricity split plus the traces feeding it."""

    piece1: TensorFormField
    piece2: TensorFormField
    piece3: TensorFormField
    piece4: TensorFormField
    trace: FormField  # first-kind trace, 1-form
    second_trace: FormField  # P, 1-form
    flux: TensorFormField  # N_a, 2-forms, one lower slot


# ---- torsion -------------------------------------------------------------------


def torsion_traces(T: TensorFormField, e: CoFrame):
    """(trace 1-form i_a T^a, totally antisymmetric 3-form e_a ^ T^a)."""
    trace = zero_field(1)
    scalar_part = zero_field(3)
    for a in FRAME_INDICES:
        trace = trace + e.interior(a, T.entry(a))
        scalar_part = scalar_part + wedge(e.e(a), T.entry(a))
    return trace, scalar_part


def reconstruct_torsion(burgers: FormField, scalar, e: CoFrame) -> TensorFormField:
    """Torsion carrying only trace and scalar parts:

    T^a = (1/2) e^a ^ b + (rho/3) *e^a
    """
    rho = scalar if isinstance(scalar, FormField) else scalar_field(scalar)

    def entry(a):
        return wedge(e.e(a), burgers) * 0.5 + (rho * e.hodge(e.e(a))) * (1.0 / 3.0)

    return TensorFormField.build(("u",), 2, entry)


# ---- non-metricity ---------------------------------------------------------------


def nonmetricity_trace(Q: TensorFormField) -> FormField:
    acc = zero_field(1)
    for a in FRAME_INDICES:
        acc = acc + Q.entry(a, a)
    return acc


def _traceless_part(Q: TensorFormField, trace: FormField) -> TensorFormField:
    third = trace * (1.0 / 3.0)
    return TensorFormField.build(
        ("d", "d"), 1, lambda a, b: Q.entry(a, b) - (third if a == b else zero_field(1))
    )


def nonmetricity_second_trace(Q: TensorFormField, e: CoFrame):
    """(P, N_a): the second-kind trace 1-form and the flux 2-forms of Q-bar."""
    trace = nonmetricity_trace(Q)
    Qbar = _traceless_part(Q, trace)
    flux = TensorFormField.build(
        ("d",),
        2,
        lambda a: field_sum(wedge(Qbar.entry(a, b), e.e(b)) for b in FRAME_INDICES),
    )
    P = zero_field(1)
    for b in FRAME_INDICES:
        coeff = field_sum(e.interior(a, Qbar.entry(a, b)) for a in FRAME_INDICES)
        P = P + wedge(coeff, e.e(b))
    return P, flux


def nonmetricity_pieces(Q: TensorFormField, e: CoFrame) -> NonmetricityPieces:
    trace = nonmetricity_trace(Q)
    P, flux = nonmetricity_second_trace(Q, e)

    def piece2_entry(a, b):
        acc = e.interior(a, flux.entry(b)) + e.interior(b, flux.entry(a))
        if a == b:
            acc = acc - P * (2.0 / 3.0)
        return acc * (-1.0 / 3.0)

    def piece3_entry(a, b):
        acc = wedge(e.interior(a, P), e.e(b)) + wedge(e.interior(b, P), e.e(a))
        if a == b:
            acc = acc - P * (2.0 / 3.0)
        return acc * (2.0 / 15.0)

    piece2 = TensorFormField.build(("d", "d"), 1, piece2_entry)
    piece3 = TensorFormField.build(("d", "d"), 1, piece3_entry)
    piece4 = TensorFormField.build(
        ("d", "d"), 1, lambda a, b: trace * (1.0 / 3.0) if a == b else zero_field(1)
    )
    piece1 = TensorFormField.build(
        ("d", "d"),
        1,
        lambda a, b: Q.entry(a, b) - piece2.entry(a, b) - piece3.entry(a, b) - piece4.entry(a, b),
    )
    return NonmetricityPieces(piece1, piece2, piece3, piece4, trace, P, flux)


def reconstruct_nonmetricity(frank: FormField, point: FormField, e: CoFrame) -> TensorFormField:
    """Non-metricity carrying only the second-kind and first-kind traces:

    Q_ab = (9/10) (O_a e_b + O_b e_a - (2/3) delta_ab O) + (1/3) delta_ab m
    """

    def entry(a, b):
        Oa = e.interior(a, frank)
        Ob = e.interior(b, frank)
        acc = wedge(Oa, e.e(b)) + wedge(Ob, e.e(a))
        if a == b:
            acc = acc - frank * (2.0 / 3.0)
        acc = acc * (9.0 / 10.0)
        if a == b:
            acc = acc + point * (1.0 / 3.0)
        return acc

    return TensorFormField.build(("d", "d"), 1, entry)


def reconstruct_defect_geometry(d: DefectFields, e: CoFrame):
    """(T, Q) of the restricted form carrying exactly the given defect densities."""
    T = reconstruct_torsion(d.burgers, d.scalar, e)
    Q = reconstruct_nonmetricity(d.frank, d.point, e)
    return T, Q


# ---- extraction ------------------------------------------------------------------


def extract_from_tensors(T: TensorFormField, Q: TensorFormField, e: CoFrame) -> DefectFields:
    """Defect densities from arbitrary torsion and non-metricity tensors.

    The second-kind trace is divided by FRANK_SCALE, so that extraction
    inverts `reconstruct_nonmetricity`.
    """
    burgers, scalar_part = torsion_traces(T, e)
    rho = e.hodge(scalar_part)
    point = nonmetricity_trace(Q)
    P, _ = nonmetricity_second_trace(Q, e)
    return DefectFields(burgers, P * (1.0 / FRANK_SCALE), point, rho)


def extract_defects(e: CoFrame, omega: TensorFormField) -> DefectFields:
    """Defect densities of a coframe/connection pair."""
    return extract_from_tensors(torsion(e, omega), nonmetricity(omega), e)
