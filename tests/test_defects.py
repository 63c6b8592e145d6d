"""Irreducible decompositions, defect extraction, and the frozen calibrations."""

import numpy as np
import pytest

from defectgeo import calibration
from defectgeo.defects import (
    DefectFields,
    FRANK_SCALE,
    extract_defects,
    extract_from_tensors,
    nonmetricity_pieces,
    nonmetricity_second_trace,
    nonmetricity_trace,
    reconstruct_defect_geometry,
    reconstruct_nonmetricity,
    reconstruct_torsion,
    torsion_traces,
)
from defectgeo.fields import Point, hodge, scalar_field, symbolic, wedge, zero_field
from defectgeo.forms import FRAME_INDICES, KForm
from defectgeo.geometry import (
    CoFrame,
    TensorFormField,
    connection_with,
    defect_one_form,
    levi_civita_connection,
)
from defectgeo.sampling import batch_components, normalized_residual, sample_points

from util import random_defects, random_form_field, random_scalar_field, random_symmetric_tensor

rng = np.random.default_rng(99)
PTS = sample_points(50, seed=50)
E = CoFrame.identity()


def random_torsion(rnd):
    return TensorFormField.build(
        ("u",), 2, lambda a: random_form_field(rnd, 2, poly_degree=2, amplitude=0.8)
    )


# ---- traces ---------------------------------------------------------------------


def test_traces_of_zero():
    T = TensorFormField.zero(("u",), 2)
    trace, scalar_part = torsion_traces(T, E)
    p = Point(0.1, 0.1, 0.1)
    assert trace.evaluate(p).max_abs() == 0.0
    assert scalar_part.evaluate(p).max_abs() == 0.0


def test_trace_of_pure_trace_torsion():
    beta = random_form_field(rng, 1)
    T = TensorFormField.build(("u",), 2, lambda a: wedge(E.e(a), beta) * 0.5)
    trace, scalar_part = torsion_traces(T, E)
    assert normalized_residual([trace - beta], [beta], PTS) <= 1e-12
    assert normalized_residual([scalar_part], [beta], PTS) <= 1e-12


def test_trace_of_pure_scalar_torsion():
    sigma = random_scalar_field(rng)
    T = TensorFormField.build(("u",), 2, lambda a: sigma * hodge(E.e(a)))
    trace, scalar_part = torsion_traces(T, E)
    expected = sigma * 3.0 * hodge(scalar_field(1.0))
    assert normalized_residual([trace], [sigma], PTS) <= 1e-12
    assert normalized_residual([scalar_part - expected], [expected], PTS) <= 1e-12


# ---- torsion pieces ----------------------------------------------------------------


def torsion_remainder(T):
    """The tensor piece T - reconstruct_torsion(b, *S) left by the two traces."""
    trace, scalar_part = torsion_traces(T, E)
    rebuilt = reconstruct_torsion(trace, E.hodge(scalar_part), E)
    return TensorFormField.build(("u",), 2, lambda a: T.entry(a) - rebuilt.entry(a))


def test_pieces_of_reconstructed_torsion_have_no_tensor_part():
    d = random_defects(rng)
    T = reconstruct_torsion(d.burgers, d.scalar, E)
    assert normalized_residual(torsion_remainder(T).entries(), T.entries(), PTS) <= 1e-12


def test_torsion_pieces_sum_and_trace_freeness():
    T = random_torsion(rng)
    interior_trace, wedge_trace = torsion_traces(torsion_remainder(T), E)
    assert normalized_residual([interior_trace, wedge_trace], T.entries(), PTS) <= 1e-12


def test_torsion_pieces_of_zero():
    p = Point(0.2, 0.2, 0.2)
    remainder = torsion_remainder(TensorFormField.zero(("u",), 2))
    assert all(f.evaluate(p).max_abs() == 0.0 for f in remainder.entries())


# ---- reconstruction -----------------------------------------------------------------


def test_reconstruct_torsion_zero():
    T = reconstruct_torsion(zero_field(1), zero_field(0), E)
    p = Point(1, 2, 3)
    assert all(T.entry(a).evaluate(p).max_abs() == 0.0 for a in FRAME_INDICES)


def test_reconstruct_torsion_unit_burgers():
    T = reconstruct_torsion(symbolic(1, "1", "0", "0"), zero_field(0), E)
    p = Point(0.3, 0.6, 0.9)
    assert T.entry(1).evaluate(p).max_abs() == 0.0
    assert T.entry(2).evaluate(p).allclose(-0.5 * KForm.basis(1, 2))
    assert T.entry(3).evaluate(p).allclose(-0.5 * KForm.basis(1, 3))


def test_reconstruct_torsion_pure_scalar():
    T = reconstruct_torsion(zero_field(1), scalar_field(3.0), E)
    p = Point(0.3, 0.6, 0.9)
    assert T.entry(1).evaluate(p).allclose(KForm.basis(2, 3))
    assert T.entry(2).evaluate(p).allclose(-1.0 * KForm.basis(1, 3))
    assert T.entry(3).evaluate(p).allclose(KForm.basis(1, 2))


def test_torsion_round_trip_exact():
    d = random_defects(rng)
    T = reconstruct_torsion(d.burgers, d.scalar, E)
    trace, scalar_part = torsion_traces(T, E)
    vol_scalar = d.scalar * hodge(scalar_field(1.0))
    assert normalized_residual([trace - d.burgers], [d.burgers], PTS) <= 1e-12
    assert normalized_residual([scalar_part - vol_scalar], [vol_scalar], PTS) <= 1e-12


def test_reconstruct_nonmetricity_pure_point():
    Q = reconstruct_nonmetricity(zero_field(1), symbolic(1, "0", "0", "1"), E)
    p = Point(0.4, 0.5, 0.6)
    third = KForm.basis(3) * (1.0 / 3.0)
    for a in FRAME_INDICES:
        for b in FRAME_INDICES:
            expected = third if a == b else KForm.zero(1)
            assert Q.entry(a, b).evaluate(p).allclose(expected)


def test_reconstruct_nonmetricity_unit_frank():
    Q = reconstruct_nonmetricity(symbolic(1, "1", "0", "0"), zero_field(1), E)
    p = Point(0.4, 0.5, 0.6)
    assert Q.entry(1, 1).evaluate(p).allclose(1.2 * KForm.basis(1))


def test_nonmetricity_trace_round_trip_exact():
    d = random_defects(rng)
    Q = reconstruct_nonmetricity(d.frank, d.point, E)
    assert normalized_residual([nonmetricity_trace(Q) - d.point], [d.point], PTS) <= 1e-12


# ---- non-metricity pieces --------------------------------------------------------------


def test_pure_trace_nonmetricity_pieces():
    mu = random_form_field(rng, 1)
    Q = TensorFormField.build(
        ("d", "d"), 1, lambda a, b: mu * (1.0 / 3.0) if a == b else zero_field(1)
    )
    pieces = nonmetricity_pieces(Q, E)
    assert normalized_residual([pieces.trace - mu], [mu], PTS) <= 1e-12
    rest = pieces.piece1.entries() + pieces.piece2.entries() + pieces.piece3.entries()
    assert normalized_residual(rest, [mu], PTS) <= 1e-12
    gap = [pieces.piece4.entry(a, b) - Q.entry(a, b) for a in FRAME_INDICES for b in FRAME_INDICES]
    assert normalized_residual(gap, Q.entries(), PTS) <= 1e-12


def test_nonmetricity_pieces_delta_traces_vanish():
    Q = random_symmetric_tensor(rng)
    pieces = nonmetricity_pieces(Q, E)
    traces = [
        nonmetricity_trace(pieces.piece1),
        nonmetricity_trace(pieces.piece2),
        nonmetricity_trace(pieces.piece3),
    ]
    assert normalized_residual(traces, Q.entries(), PTS) <= 1e-12


def test_nonmetricity_pieces_sum():
    Q = random_symmetric_tensor(rng)
    pieces = nonmetricity_pieces(Q, E)
    total = [
        pieces.piece1.entry(a, b)
        + pieces.piece2.entry(a, b)
        + pieces.piece3.entry(a, b)
        + pieces.piece4.entry(a, b)
        - Q.entry(a, b)
        for a in FRAME_INDICES
        for b in FRAME_INDICES
    ]
    assert normalized_residual(total, Q.entries(), PTS) <= 1e-12


def test_piece1_transverse_contractions_match_frozen_regression():
    # the paper-level claim that both contractions vanish holds identically
    Q = random_symmetric_tensor(np.random.default_rng(123))
    interior_norm, wedge_norm = (normalized_residual(*pair, PTS) for pair in calibration.piece1_contractions(Q, E))
    assert interior_norm <= 1e-10
    assert wedge_norm <= 1e-10


def test_ansatz_flux_factor_frozen():
    factor, rel_std = calibration.measure_flux_factor(E, sample_points(100, seed=18))
    assert rel_std <= 1e-6
    assert factor == pytest.approx(calibration.ANSATZ_FLUX_FACTOR, abs=1e-12)


# ---- frank scale and extraction ----------------------------------------------------------


def test_frank_scale_calibration():
    scale, rel_std = calibration.measure_frank_scale(E, sample_points(100, seed=17))
    assert rel_std <= 1e-3
    assert scale == pytest.approx(3.0, abs=1e-9)
    assert scale == pytest.approx(FRANK_SCALE, abs=1e-12)


def test_frank_proportionality_position_independent():
    d = random_defects(rng)
    Q = reconstruct_nonmetricity(d.frank, zero_field(1), E)
    P, _ = nonmetricity_second_trace(Q, E)
    num = batch_components([P], PTS)
    den = batch_components([d.frank], PTS)
    keep = np.abs(den) > 1e-9
    ratios = num[keep] / den[keep]
    assert np.std(ratios) <= 1e-6 * abs(np.mean(ratios))


def test_extract_from_riemannian_connection_is_zero():
    from util import random_coframe

    e = random_coframe(np.random.default_rng(7), amplitude=0.15)
    gamma = levi_civita_connection(e)
    d = extract_defects(e, gamma)
    fields = [d.burgers, d.frank, d.point, d.scalar]
    assert normalized_residual(fields, gamma.entries(), PTS) <= 1e-10


def test_extract_round_trip_through_defect_one_form():
    burgers = symbolic(1, "1", "0", "0")
    T = reconstruct_torsion(burgers, zero_field(0), E)
    L = defect_one_form(T, TensorFormField.zero(("d", "d"), 1), E)
    omega = connection_with(levi_civita_connection(E), L)
    d = extract_defects(E, omega)
    assert normalized_residual([d.burgers - burgers], [burgers], PTS) <= 1e-12
    assert normalized_residual([d.frank, d.point, d.scalar], [burgers], PTS) <= 1e-12


def test_full_extraction_round_trip():
    source = random_defects(rng)
    T, Q = reconstruct_defect_geometry(source, E)
    got = extract_from_tensors(T, Q, E)
    residual = [
        got.burgers - source.burgers,
        got.frank - source.frank,
        got.point - source.point,
        got.scalar - source.scalar,
    ]
    reference = [source.burgers, source.frank, source.point, source.scalar]
    assert normalized_residual(residual, reference, PTS) <= 1e-10


def test_second_trace_is_frank_scale_times_frank():
    # extraction divides this raw trace by FRANK_SCALE
    source = random_defects(rng)
    _, Q = reconstruct_defect_geometry(source, E)
    P, _ = nonmetricity_second_trace(Q, E)
    expected = source.frank * FRANK_SCALE
    assert normalized_residual([P - expected], [expected], PTS) <= 1e-10


def test_generalized_burgers_combination():
    b = symbolic(1, "1", "0", "0")
    O = symbolic(1, "0", "1", "0")
    m = symbolic(1, "0", "0", "1")
    d = DefectFields(b, O, m, zero_field(0))
    p = Point(0.5, 0.5, 0.5)
    got = d.generalized_burgers.evaluate(p)
    assert got.allclose(KForm(1, [1.0, -3.0, 2.0 / 3.0]))


def test_defect_linearity():
    d1 = random_defects(rng)
    d2 = random_defects(rng)
    T1, Q1 = reconstruct_defect_geometry(d1, E)
    T2, Q2 = reconstruct_defect_geometry(d2, E)
    want = DefectFields(
        d1.burgers + d2.burgers, d1.frank + d2.frank, d1.point + d2.point, d1.scalar + d2.scalar
    )
    Tsum, Qsum = reconstruct_defect_geometry(want, E)
    residual = [Tsum.entry(a) - T1.entry(a) - T2.entry(a) for a in FRAME_INDICES]
    residual += [
        Qsum.entry(a, b) - Q1.entry(a, b) - Q2.entry(a, b)
        for a in FRAME_INDICES
        for b in FRAME_INDICES
    ]
    assert normalized_residual(residual, Tsum.entries() + Qsum.entries(), PTS) <= 1e-12

    got = extract_from_tensors(
        TensorFormField.build(("u",), 2, lambda a: T1.entry(a) + T2.entry(a)),
        TensorFormField.build(("d", "d"), 1, lambda a, b: Q1.entry(a, b) + Q2.entry(a, b)),
        E,
    )
    residual = [
        got.burgers - want.burgers,
        got.frank - want.frank,
        got.point - want.point,
        got.scalar - want.scalar,
    ]
    assert normalized_residual(residual, [want.burgers, want.frank, want.point, want.scalar], PTS) <= 1e-10


def test_defect_fields_validate_degrees():
    with pytest.raises(ValueError):
        DefectFields(zero_field(2), zero_field(1), zero_field(1), zero_field(0))
    with pytest.raises(ValueError):
        DefectFields(zero_field(1), zero_field(1), zero_field(1), zero_field(1))
