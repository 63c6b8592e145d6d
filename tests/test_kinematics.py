"""Kinematic balance residuals, the three-index tensor, curvature identities, extra matter."""

import itertools

import numpy as np
import pytest

from defectgeo import calibration
from defectgeo.defects import DefectFields, extract_defects
from defectgeo.fields import Point, exterior_derivative, field_sum, scalar_field, symbolic, zero_field
from defectgeo.forms import FRAME_INDICES
from defectgeo.geometry import CoFrame, GaugeField, curvature, pure_gauge_connection
from defectgeo.kinematics import curvature_identity_sides, disclination_point_balance, dislocation_balance, extra_matter
from defectgeo.sampling import batch_components, batch_groups, normalized_residual, normalized_residuals, sample_points

from util import (
    disclination_balance_tensor,
    flat_curl,
    flat_disclination_point_balance,
    flat_dislocation_balance,
    flat_vector,
    levi_civita_symbol,
    max_abs_at,
    random_coframe,
    random_defects,
)

rng = np.random.default_rng(1234)
PTS = sample_points(40, seed=17)
E = CoFrame.identity()


def zero_defects():
    return DefectFields(zero_field(1), zero_field(1), zero_field(1), zero_field(0))

#: a proper rotation by 0.7 rad about the axis (1, 2, 2)/3 (Rodrigues' formula)
_AXIS, _ANGLE = np.array([1.0, 2.0, 2.0]) / 3.0, 0.7
_K = np.array([[0.0, -_AXIS[2], _AXIS[1]], [_AXIS[2], 0.0, -_AXIS[0]], [-_AXIS[1], _AXIS[0], 0.0]])
ROTATION = np.eye(3) + np.sin(_ANGLE) * _K + (1.0 - np.cos(_ANGLE)) * (_K @ _K)


# ---- dislocation balance -------------------------------------------------------


def test_balance_zero_defects():
    form_res = dislocation_balance(zero_defects(), E)
    p = Point(0.5, -0.5, 0.5)
    assert all(form_res.entry(a).evaluate(p).max_abs() == 0.0 for a in FRAME_INDICES)
    assert max_abs_at(flat_dislocation_balance(zero_defects()), [p]) == 0.0


def test_balance_constant_burgers_only():
    d = DefectFields(symbolic(1, "0.7", "-0.3", "0.1"), zero_field(1), zero_field(1), zero_field(0))
    form_res = dislocation_balance(d, E)
    p = Point(0.2, 0.4, 0.6)
    assert all(form_res.entry(a).evaluate(p).max_abs() <= 1e-15 for a in FRAME_INDICES)
    assert max_abs_at(flat_dislocation_balance(d), [p]) <= 1e-15


def _rotated(vector, rotation):
    """Frame components R v of a vector of Cartesian 0-form fields."""
    return [field_sum(vector[j] * rotation[a][j] for j in range(3)) for a in range(3)]


def test_form_and_vector_representations_agree():
    # the frame rows against the flat oracle; on a constant rotation the frame
    # rows are the rotated Cartesian vectors, and the bilinear constraint the
    # rotated tensor R B R^T
    for rotation, seed in itertools.product((np.eye(3), ROTATION), range(5)):
        e = CoFrame(rotation.tolist())
        d = random_defects(np.random.default_rng(seed))
        flat_curl_m, flat_beltrami, flat_bilinear = flat_disclination_point_balance(d)
        columns = [_rotated([row[c] for row in flat_bilinear], rotation) for c in range(3)]
        flat_bilinear = [_rotated(row, rotation) for row in zip(*columns)]

        form_res = dislocation_balance(d, e)
        point_curl, beltrami, bilinear = disclination_point_balance(d, e)
        pairs = [
            ([e.hodge(form_res.entry(a)) for a in FRAME_INDICES], _rotated(flat_dislocation_balance(d), rotation)),
            (point_curl, _rotated(flat_curl_m, rotation)),
            (beltrami, _rotated(flat_beltrami, rotation)),
            (sum(bilinear, []), sum(flat_bilinear, [])),
        ]
        for rows, oracle in pairs:
            assert normalized_residual([r - o for r, o in zip(rows, oracle)], oracle, PTS) <= 1e-12


# ---- disclination / point-defect balance ------------------------------------------


def test_exact_point_covector_has_no_curl():
    phi = symbolic(0, "ln(1+x^2)")
    d = DefectFields(zero_field(1), zero_field(1), exterior_derivative(phi), zero_field(0))
    point_curl, _, _ = disclination_point_balance(d, E)
    assert normalized_residual(point_curl, [d.point], PTS) <= 1e-6


def test_beltrami_profile_satisfies_disclination_balance():
    d = DefectFields(
        zero_field(1),
        symbolic(1, "sin(2*z)", "cos(2*z)", "0"),
        zero_field(1),
        scalar_field(2.0),
    )
    _, beltrami, _ = disclination_point_balance(d, E)
    assert normalized_residual(beltrami, [d.frank], PTS) <= 1e-6


def test_bilinear_constraint_vanishes_without_frank_density():
    d = DefectFields(
        symbolic(1, "x", "y*z", "1"), zero_field(1), zero_field(1), scalar_field(1.0)
    )
    _, _, algebraic = disclination_point_balance(d, E)
    flat = [f for row in algebraic for f in row]
    assert normalized_residual(flat, [d.burgers], PTS) <= 1e-15


# ---- the symmetrised three-index tensor ---------------------------------------------


def test_tensor_zero_for_zero_defects():
    tensor = disclination_balance_tensor(zero_defects())
    p = Point(0.3, 0.3, 0.3)
    for plane in tensor:
        for row in plane:
            for f in row:
                assert f.evaluate(p).max_abs() == 0.0


def test_tensor_reduces_to_curl_terms_for_linear_frank_density():
    d = DefectFields(
        zero_field(1), symbolic(1, "0.2*y", "0.4*z", "0.1*x"), zero_field(1), zero_field(0)
    )
    tensor = disclination_balance_tensor(d)
    O = flat_vector(d.frank)
    curl_O = flat_curl(O)

    def expected(a, b, c):
        acc = zero_field(0)
        if a == c:
            acc = acc - curl_O[b] * (9.0 / 20.0)
        if b == c:
            acc = acc - curl_O[a] * (9.0 / 20.0)
        if a == b:
            acc = acc + curl_O[c] * (3.0 / 10.0)
        for k in range(3):
            if levi_civita_symbol(k, b, c):
                acc = acc + (O[k] * O[a]) * (81.0 / 50.0 * levi_civita_symbol(k, b, c))
            if levi_civita_symbol(k, a, c):
                acc = acc + (O[k] * O[b]) * (81.0 / 50.0 * levi_civita_symbol(k, a, c))
        return acc

    gap = [tensor[a][b][c] - expected(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
    assert normalized_residual(gap, [d.frank], PTS) <= 1e-12


def test_tensor_projections_reproduce_residuals_with_frozen_coefficients():
    d = random_defects(rng)
    tensor = disclination_balance_tensor(d)
    point_curl, beltrami, algebraic = disclination_point_balance(d, E)
    R1 = batch_components(point_curl, PTS)
    R2 = batch_components(beltrami, PTS)

    # delta^ab contraction -> curl of the point covector
    proj = []
    for c in range(3):
        acc = None
        for a in range(3):
            f = tensor[a][a][c]
            acc = f if acc is None else acc + f
        proj.append(acc)
    coefficient, relative_residual = calibration.fit_scale(batch_components(proj, PTS), R1)
    assert relative_residual <= 1e-12
    assert coefficient == pytest.approx(calibration.PROJECTION_DELTA_AB[0], abs=1e-12)

    # delta^bc contraction -> combination of curl-m and the beltrami residual
    proj2 = []
    for a in range(3):
        acc = None
        for b in range(3):
            f = tensor[a][b][b]
            acc = f if acc is None else acc + f
        proj2.append(acc)
    target = batch_components(proj2, PTS).ravel()
    basis = np.vstack([R1.ravel(), R2.ravel()]).T
    coef, *_ = np.linalg.lstsq(basis, target, rcond=None)
    assert np.allclose(coef, calibration.PROJECTION_DELTA_BC, atol=1e-9)
    assert np.linalg.norm(basis @ coef - target) <= 1e-9 * max(1.0, np.linalg.norm(target))

    # epsilon contraction -> all three residuals
    projE, epsR1, epsR2, R3 = [], [], [], []
    for a in range(3):
        for dd in range(3):
            acc = None
            for b in range(3):
                for c in range(3):
                    s = levi_civita_symbol(dd, b, c)
                    if s:
                        f = tensor[a][b][c] * s
                        acc = f if acc is None else acc + f
            projE.append(acc)
            for vec, out in ((point_curl, epsR1), (beltrami, epsR2)):
                acc2 = None
                for b in range(3):
                    s = levi_civita_symbol(dd, a, b)
                    if s:
                        f = vec[b] * s
                        acc2 = f if acc2 is None else acc2 + f
                out.append(acc2 if acc2 is not None else zero_field(0))
            R3.append(algebraic[a][dd])
    target = batch_components(projE, PTS).ravel()
    basis = np.vstack(
        [batch_components(epsR1, PTS).ravel(), batch_components(epsR2, PTS).ravel(), batch_components(R3, PTS).ravel()]
    ).T
    coef, *_ = np.linalg.lstsq(basis, target, rcond=None)
    assert np.allclose(coef, calibration.PROJECTION_EPSILON, atol=1e-9)


# ---- curvature identities --------------------------------------------------------------


def identity_residuals(d, e, points):
    """The two curvature-identity residuals, each scaled against its own two sides."""
    A, B, C, R_sym = curvature_identity_sides(d, e)
    dislocation = [a - b * calibration.DISLOCATION_CURVATURE_FACTOR for a, b in zip(A, B)]
    disclination = [c - r * calibration.DISCLINATION_CURVATURE_FACTOR for c, r in zip(C, R_sym)]
    return normalized_residuals([(dislocation, A + B), (disclination, C + R_sym)], points)


def test_curvature_identities_hold_trivially_on_zero_defects():
    assert identity_residuals(zero_defects(), E, PTS) == [0.0, 0.0]


def test_consistency_random_defects():
    # the identities hold for any defect fields, on the identity frame and on a curved triad
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        d = random_defects(rng)
        for e in (E, random_coframe(rng)):
            dislocation, disclination = identity_residuals(d, e, sample_points(40, seed=seed))
            assert dislocation <= 1e-12
            assert disclination <= 1e-12


def test_consistency_factor_stable_across_disjoint_samples():
    # the least-squares fit of `calibrate` recovers both frozen factors on each sample
    d = random_defects(np.random.default_rng(5))
    for e in (E, random_coframe(np.random.default_rng(6))):
        sides = curvature_identity_sides(d, e)
        for seed in (11, 22, 33):
            A, B, C, R_sym = batch_groups(sides, sample_points(30, seed=seed))
            for (lhs, rhs), frozen in (
                ((A, B), calibration.DISLOCATION_CURVATURE_FACTOR),
                ((C, R_sym), calibration.DISCLINATION_CURVATURE_FACTOR),
            ):
                coefficient, relative_residual = calibration.fit_scale(lhs, rhs)
                assert coefficient == pytest.approx(frozen, abs=1e-9)
                assert relative_residual <= 1e-4


def test_consistency_teleparallel_restriction():
    # conformal gauge: omega = d(ln f) * delta, flat by construction, whose
    # torsion and non-metricity are exactly of the restricted defect form
    gauge = GaugeField(
        [["1+0.3*exp(0.2*x+0.1*y)", "0", "0"], ["0", "1+0.3*exp(0.2*x+0.1*y)", "0"], ["0", "0", "1+0.3*exp(0.2*x+0.1*y)"]]
    )
    omega = pure_gauge_connection(gauge)
    R = curvature(omega)
    assert normalized_residual(R.entries(), omega.entries(), PTS) <= 1e-9

    d = extract_defects(E, omega)
    # burgers = -2 dln f and point = 3 dln f, so point + (3/2) burgers = 0
    combo = d.point + d.burgers * 1.5
    assert normalized_residual([combo, d.frank, d.scalar], [d.point], PTS) <= 1e-9

    form_res = dislocation_balance(d, E)
    assert normalized_residual(form_res.entries(), [d.burgers, d.point], PTS) <= 1e-9


# ---- extra matter ---------------------------------------------------------------------


def test_extra_matter_quadratic_potential():
    phi = symbolic(0, "(x^2+y^2+z^2)/6")
    report = extra_matter(phi, radius=1.0, volume_resolution=32, sphere_resolution=(48, 96))
    ball = 4.0 * np.pi / 3.0
    assert report.density.evaluate(Point(0.3, -0.2, 0.5)).allclose(scalar_field(1.0).evaluate(Point(0, 0, 0)), tol=1e-12)
    assert abs(report.volume_total - ball) <= 0.01 * ball
    assert abs(report.flux_total - ball) <= 0.01 * ball
    assert report.stokes_gap <= 0.01 * ball


def test_extra_matter_harmonic_potential():
    phi = symbolic(0, "x*y")
    report = extra_matter(phi, radius=1.0, volume_resolution=24, sphere_resolution=(32, 64))
    assert report.density.evaluate(Point(0.4, 0.1, -0.9)).max_abs() <= 1e-12
    assert abs(report.volume_total) <= 1e-10
    assert abs(report.flux_total) <= 1e-10


def test_extra_matter_totals_from_bounded_blocks(monkeypatch):
    from defectgeo import fields

    blocks = []
    original = fields._evaluate_block
    monkeypatch.setattr(fields, "_evaluate_block", lambda *args: blocks.append(1) or original(*args))
    phi = symbolic(0, "x*x + 2*y*y - z*z + x*y")
    report = extra_matter(phi, volume_resolution=32, sphere_resolution=(48, 96))
    assert (report.volume_total, report.flux_total) == (16.8515625, 16.75066598032118)
    # four blocks of the 32^3 ball grid, and one for the three gradient components on the sphere
    assert len(blocks) == 5


def test_extra_matter_rejects_bad_radius():
    for radius in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            extra_matter(symbolic(0, "x"), radius=radius)


@pytest.mark.parametrize(
    "kwargs, name",
    [
        (dict(volume_resolution=0), "volume_resolution"),
        (dict(volume_resolution=-3), "volume_resolution"),
        (dict(sphere_resolution=(0, 8)), "sphere_resolution"),
        (dict(sphere_resolution=(8, -1)), "sphere_resolution"),
        # fractional counts: 2.5 latitudes would put the grid past the pole
        (dict(volume_resolution=2.5), "volume_resolution"),
        (dict(sphere_resolution=(2.5, 8)), "sphere_resolution"),
        (dict(sphere_resolution=(8, 2.5)), "sphere_resolution"),
    ],
)
def test_extra_matter_rejects_empty_resolutions(kwargs, name):
    with pytest.raises(ValueError, match=f"^{name} must be at least 1"):
        extra_matter(symbolic(0, "x*x"), **kwargs)

