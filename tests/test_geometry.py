"""Connection constructions, structure equations, and the identity suite."""

import numpy as np
import pytest

from defectgeo.defects import reconstruct_defect_geometry
from defectgeo.errors import SingularGauge, SingularTriad
from defectgeo.fields import Point, exterior_derivative, scalar_field, symbolic, wedge, zero_field
from defectgeo.forms import FRAME_INDICES, KForm
from defectgeo.geometry import (
    CoFrame,
    GaugeField,
    TensorFormField,
    bianchi_residuals,
    connection_with,
    contortion,
    covariant_exterior_derivative,
    curvature,
    curvature_split_residual,
    defect_one_form,
    levi_civita_connection,
    nonmetricity,
    pure_gauge_connection,
    torsion,
    transform_coframe,
    transform_connection,
    transform_tensor,
)
from defectgeo.sampling import normalized_residual, normalized_residuals, require_nonsingular, sample_points

from util import connection, point_array, random_coframe, random_defects

rng = np.random.default_rng(2718)
PTS = sample_points(50, seed=77)


def connection_residuals(e, omega, points):
    reference = omega.entries() + [e.e(a) for a in FRAME_INDICES]
    first, second, third = bianchi_residuals(e, omega)
    return tuple(
        normalized_residual(r.entries(), reference, points) for r in (first, second, third)
    )


# ---- Levi-Civita ------------------------------------------------------------------


def test_levi_civita_identity_coframe():
    gamma = levi_civita_connection(CoFrame.identity())
    p = Point(0.4, -0.2, 0.9)
    assert all(gamma.entry(a, b).evaluate(p).max_abs() == 0.0 for a in FRAME_INDICES for b in FRAME_INDICES)


def test_levi_civita_cylindrical_style_triad():
    e = CoFrame([["1", "0", "0"], ["0", "x", "0"], ["0", "0", "1"]])
    gamma = levi_civita_connection(e)
    p = Point(1.7, 0.3, -0.5)
    assert gamma.entry(2, 1).evaluate(p).allclose(KForm.basis(2))  # dy
    assert gamma.entry(1, 2).evaluate(p).allclose(-1.0 * KForm.basis(2))
    for a, b in ((1, 1), (2, 2), (3, 3), (1, 3), (3, 1), (2, 3), (3, 2)):
        assert gamma.entry(a, b).evaluate(p).max_abs() == 0.0


def test_levi_civita_defining_property_random_triads():
    for seed in range(20):
        e = random_coframe(np.random.default_rng(seed))
        gamma = levi_civita_connection(e)
        residuals = []
        for a in FRAME_INDICES:
            acc = exterior_derivative(e.e(a))
            for b in FRAME_INDICES:
                acc = acc + wedge(gamma.entry(a, b), e.e(b))
            residuals.append(acc)
        for a in FRAME_INDICES:
            for b in FRAME_INDICES:
                residuals.append((gamma.entry(a, b) + gamma.entry(b, a)) * 0.5)
        reference = [e.e(a) for a in FRAME_INDICES] + gamma.entries()
        assert normalized_residual(residuals, reference, PTS) <= 1e-6


def test_levi_civita_is_torsion_free():
    e = random_coframe(rng)
    gamma = levi_civita_connection(e)
    T = torsion(e, gamma)
    assert normalized_residual(T.entries(), gamma.entries(), PTS) <= 1e-12


# ---- torsion / non-metricity / curvature -------------------------------------------


def test_tensor_field_rejects_a_wrong_degree_entry():
    rows = [[zero_field(1) for _ in range(3)] for _ in range(3)]
    rows[1][2] = zero_field(2)
    with pytest.raises(ValueError, match=r"component \(2, 3\) has degree 2, expected 1"):
        connection(rows)


def test_tensor_field_rejects_a_missing_index():
    comps = {(a, b): zero_field(1) for a in FRAME_INDICES for b in FRAME_INDICES}
    comps[(4, 4)] = comps.pop((3, 1))
    with pytest.raises(ValueError, match=r"missing component \(3, 1\)"):
        TensorFormField(("u", "d"), 1, comps)


def test_connections_are_one_up_one_down_tensor_fields():
    e = random_coframe(np.random.default_rng(5), amplitude=0.1)
    h = GaugeField([["1", "0.1*y", "0"], ["0", "1", "0"], ["0", "0", "1+0.2*x"]])
    gamma = levi_civita_connection(e)
    T = TensorFormField.build(("u",), 2, lambda a: symbolic(2, "x", "y*z", "0"))
    L = defect_one_form(T, TensorFormField.zero(("d", "d"), 1), e)
    built = [gamma, contortion(e, T), pure_gauge_connection(h), connection_with(gamma, L)]
    built.append(transform_connection(h, built[-1]))
    for omega in built:
        assert type(omega) is TensorFormField
        assert (omega.variance, omega.degree) == (("u", "d"), 1)


def test_torsion_zero_connection():
    e = CoFrame.identity()
    T = torsion(e, TensorFormField.zero(("u", "d"), 1))
    p = Point(0.1, 0.2, 0.3)
    assert all(T.entry(a).evaluate(p).max_abs() == 0.0 for a in FRAME_INDICES)


def test_torsion_direct_substitution():
    e = CoFrame.identity()
    entries = [[zero_field(1) for _ in range(3)] for _ in range(3)]
    entries[0][1] = symbolic(1, "0", "0", "1")  # omega^1_2 = e^3
    omega = connection(entries)
    T = torsion(e, omega)
    p = Point(0.5, 0.5, 0.5)
    assert T.entry(1).evaluate(p).allclose(-1.0 * KForm.basis(2, 3))  # e^3 ^ e^2
    assert T.entry(2).evaluate(p).max_abs() == 0.0


def test_nonmetricity_symmetrisation():
    entries = [[zero_field(1) for _ in range(3)] for _ in range(3)]
    entries[0][0] = symbolic(1, "0", "1", "0")  # omega^1_1 = e^2
    omega = connection(entries)
    Q = nonmetricity(omega)
    p = Point(0, 0, 0)
    assert Q.entry(1, 1).evaluate(p).allclose(KForm.basis(2))
    assert Q.entry(1, 2).evaluate(p).max_abs() == 0.0
    # antisymmetric connections carry no non-metricity
    anti = [[zero_field(1) for _ in range(3)] for _ in range(3)]
    anti[0][1] = symbolic(1, "x", "0", "0")
    anti[1][0] = symbolic(1, "-x", "0", "0")
    Q2 = nonmetricity(connection(anti))
    assert all(
        Q2.entry(a, b).evaluate(p).max_abs() == 0.0 for a in FRAME_INDICES for b in FRAME_INDICES
    )
    # exact symmetry for random connections
    rnd = connection(
        [[symbolic(1, "x*y", "z", "1") for _ in range(3)] for _ in range(3)]
    )
    Q3 = nonmetricity(rnd)
    for a in FRAME_INDICES:
        for b in FRAME_INDICES:
            assert (Q3.entry(a, b) - Q3.entry(b, a)).evaluate(p).max_abs() == 0.0


def test_curvature_constant_connection():
    entries = [[zero_field(1) for _ in range(3)] for _ in range(3)]
    entries[0][1] = symbolic(1, "1", "0", "0")  # omega^1_2 = e^1
    entries[1][0] = symbolic(1, "0", "1", "0")  # omega^2_1 = e^2
    omega = connection(entries)
    R = curvature(omega)
    p = Point(0.2, 0.8, -0.1)
    assert R.entry(1, 1).evaluate(p).allclose(KForm.basis(1, 2))


def test_curvature_of_levi_civita_identity_coframe():
    R = curvature(levi_civita_connection(CoFrame.identity()))
    p = Point(0.3, 0.3, 0.3)
    assert all(
        R.entry(a, b).evaluate(p).max_abs() == 0.0 for a in FRAME_INDICES for b in FRAME_INDICES
    )


# ---- pure gauge ---------------------------------------------------------------------


def test_pure_gauge_identity():
    omega = pure_gauge_connection(GaugeField.identity())
    p = Point(1, 1, 1)
    assert all(
        omega.entry(a, b).evaluate(p).max_abs() == 0.0 for a in FRAME_INDICES for b in FRAME_INDICES
    )


def test_pure_gauge_rotation_closed_form():
    gauge = GaugeField(
        [["cos(x^2)", "-sin(x^2)", "0"], ["sin(x^2)", "cos(x^2)", "0"], ["0", "0", "1"]]
    )
    omega = pure_gauge_connection(gauge)
    p = Point(0.7, 0.1, 0.0)
    theta_prime = 2 * 0.7
    assert omega.entry(1, 2).evaluate(p).allclose(-theta_prime * KForm.basis(1), tol=1e-12)
    assert omega.entry(2, 1).evaluate(p).allclose(theta_prime * KForm.basis(1), tol=1e-12)


def test_pure_gauge_logarithmic_derivative():
    gauge = GaugeField([["1+x^2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    omega = pure_gauge_connection(gauge)
    p = Point(0.5, 0, 0)
    expected = 2 * 0.5 / (1 + 0.25)
    assert omega.entry(1, 1).evaluate(p).allclose(expected * KForm.basis(1), tol=1e-12)


def test_pure_gauge_flatness_random():
    for seed in (1, 2, 3):
        g = np.random.default_rng(seed)
        gauge = GaugeField(
            [
                ["1+0.2*sin(x)", "0.1*y", "0"],
                ["0.1*z", "1+0.1*x*y", "0.05*x"],
                ["0.2", "0", "1+0.1*z^2"],
            ]
        )
        omega = pure_gauge_connection(gauge)
        R = curvature(omega)
        assert normalized_residual(R.entries(), omega.entries(), PTS) <= 1e-6


def test_singular_gauge_detection():
    gauge = GaugeField([["x", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    with pytest.raises(SingularGauge, match=r"gauge matrix determinant 0\.000e\+00 below 1e-08 at Point\(x=0\.0"):
        require_nonsingular(gauge.determinant, point_array(Point(0.0, 0.0, 0.0)), SingularGauge, "gauge matrix")


def test_singular_triad_detection():
    e = CoFrame([["x", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    points = point_array(Point(1.0, 0, 0), Point(0.0, 0, 0))
    with pytest.raises(SingularTriad, match=r"coframe triad determinant 0\.000e\+00 below 1e-08 at Point\(x=0\.0"):
        require_nonsingular(e.determinant, points, SingularTriad, "coframe triad")


@pytest.mark.parametrize("seed", range(5))
def test_coframe_hodge_and_interior_on_position_dependent_triads(seed):
    # a consistent orientation error would cancel in the defect round trips
    e = random_coframe(np.random.default_rng(seed))
    one = scalar_field(1.0)
    volume = wedge(wedge(e.e(1), e.e(2)), e.e(3))
    pairs = [(e.hodge(one) - volume, volume), (e.hodge(volume) - one, one)]
    for a, b, c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        area = wedge(e.e(b), e.e(c))
        pairs += [(e.hodge(e.e(a)) - area, area), (e.hodge(area) - e.e(a), e.e(a))]
        for d in FRAME_INDICES:
            delta = scalar_field(1.0 if a == d else 0.0)
            pairs.append((e.interior(a, e.e(d)) - delta, delta))
    residuals = normalized_residuals([([res], [ref]) for res, ref in pairs], PTS)
    assert max(residuals) <= 1e-12


# ---- covariant exterior derivative ---------------------------------------------------


def test_covariant_derivative_reduces_to_d():
    X = TensorFormField.build(("u",), 1, lambda a: symbolic(1, "x*y", "z", "0"))
    D = covariant_exterior_derivative(X, TensorFormField.zero(("u", "d"), 1))
    d = exterior_derivative(X.entry(1))
    p = Point(0.2, 0.4, 0.6)
    for a in FRAME_INDICES:
        assert (D.entry(a) - d).evaluate(p).max_abs() == 0.0


def test_covariant_derivative_algebraic_terms():
    # constant components and connection: DX^a = omega^a_b ^ X^b exactly
    entries = [[zero_field(1) for _ in range(3)] for _ in range(3)]
    entries[0][1] = symbolic(1, "2", "0", "0")
    entries[2][0] = symbolic(1, "0", "3", "0")
    omega = connection(entries)
    X = TensorFormField.build(
        ("u",), 1, lambda a: symbolic(1, "0", "0", "1") if a == 2 else zero_field(1)
    )
    D = covariant_exterior_derivative(X, omega)
    p = Point(1, 1, 1)
    # D X^1 = omega^1_2 ^ X^2 = 2 e^1 ^ e^3
    assert D.entry(1).evaluate(p).allclose(2.0 * KForm.basis(1, 3))
    assert D.entry(2).evaluate(p).max_abs() == 0.0
    assert D.entry(3).evaluate(p).max_abs() == 0.0


def test_kronecker_identities():
    rnd = np.random.default_rng(5)
    e = random_coframe(rnd)
    d = random_defects(rnd)
    T, Q = reconstruct_defect_geometry(d, e)
    omega = connection_with(levi_civita_connection(e), defect_one_form(T, Q, e))
    Qfull = nonmetricity(omega)
    reference = omega.entries()

    def kronecker(variance):
        return TensorFormField.build(variance, 0, lambda a, b: scalar_field(1.0 if a == b else 0.0))

    mixed = covariant_exterior_derivative(kronecker(("u", "d")), omega)
    assert normalized_residual(mixed.entries(), reference, PTS) <= 1e-12

    down = covariant_exterior_derivative(kronecker(("d", "d")), omega)
    residual_down = [
        down.entry(a, b) + Qfull.entry(a, b) * 2.0 for a in FRAME_INDICES for b in FRAME_INDICES
    ]
    assert normalized_residual(residual_down, reference, PTS) <= 1e-12

    up = covariant_exterior_derivative(kronecker(("u", "u")), omega)
    residual_up = [
        up.entry(a, b) - Qfull.entry(a, b) * 2.0 for a in FRAME_INDICES for b in FRAME_INDICES
    ]
    assert normalized_residual(residual_up, reference, PTS) <= 1e-12


# ---- defect 1-form --------------------------------------------------------------------


def test_defect_one_form_zero():
    e = CoFrame.identity()
    T = TensorFormField.zero(("u",), 2)
    Q = TensorFormField.zero(("d", "d"), 1)
    L = defect_one_form(T, Q, e)
    p = Point(0.9, -0.9, 0.4)
    assert all(
        L.entry(a, b).evaluate(p).max_abs() == 0.0 for a in FRAME_INDICES for b in FRAME_INDICES
    )


def test_contortion_antisymmetric_and_solves_structure_equation():
    rnd = np.random.default_rng(9)
    e = CoFrame.identity()
    d = random_defects(rnd)
    T, _ = reconstruct_defect_geometry(d, e)
    K = contortion(e, T)
    anti = [
        (K.entry(a, b) + K.entry(b, a)) * 0.5 for a in FRAME_INDICES for b in FRAME_INDICES
    ]
    assert normalized_residual(anti, K.entries(), PTS) <= 1e-12
    residual = []
    for a in FRAME_INDICES:
        acc = -T.entry(a)
        for b in FRAME_INDICES:
            acc = acc + wedge(K.entry(a, b), e.e(b))
        residual.append(acc)
    assert normalized_residual(residual, T.entries(), PTS) <= 1e-12


def test_defect_one_form_pure_contortion_antisymmetric():
    rnd = np.random.default_rng(10)
    e = CoFrame.identity()
    d = random_defects(rnd)
    T, _ = reconstruct_defect_geometry(d, e)
    L = defect_one_form(T, TensorFormField.zero(("d", "d"), 1), e)
    sym = [(L.entry(a, b) + L.entry(b, a)) * 0.5 for a in FRAME_INDICES for b in FRAME_INDICES]
    assert normalized_residual(sym, L.entries(), PTS) <= 1e-12


def test_round_trip_restricted_ansatz():
    for seed in range(20):
        rnd = np.random.default_rng(100 + seed)
        e = random_coframe(rnd, amplitude=0.15)
        d = random_defects(rnd)
        T, Q = reconstruct_defect_geometry(d, e)
        omega = connection_with(levi_civita_connection(e), defect_one_form(T, Q, e))
        T_back = torsion(e, omega)
        Q_back = nonmetricity(omega)
        residual = [T_back.entry(a) - T.entry(a) for a in FRAME_INDICES]
        residual += [
            Q_back.entry(a, b) - Q.entry(a, b) for a in FRAME_INDICES for b in FRAME_INDICES
        ]
        pts = sample_points(20, seed=seed)
        assert normalized_residual(residual, T.entries() + Q.entries(), pts) <= 1e-6


# ---- frame transformations --------------------------------------------------------------


def test_frame_transform_identity():
    e = random_coframe(rng)
    h = GaugeField.identity()
    e2 = transform_coframe(h, e)
    p = Point(0.25, 0.5, 0.75)
    for a in FRAME_INDICES:
        assert (e2.e(a) - e.e(a)).evaluate(p).max_abs() <= 1e-15


def test_frame_transform_constant_rotation_moves_components():
    c, s = np.cos(0.3), np.sin(0.3)
    h = GaugeField([[f"{c}", f"{-s}", "0"], [f"{s}", f"{c}", "0"], ["0", "0", "1"]])
    e = CoFrame.identity()
    omega = TensorFormField.zero(("u", "d"), 1)
    T = torsion(e, omega)  # zero; use a synthetic tensor instead
    X = TensorFormField.build(("u",), 2, lambda a: symbolic(2, "x", "0", "0") if a == 1 else zero_field(2))
    X2 = transform_tensor(h, X)
    p = Point(0.5, 0.5, 0.5)
    got = np.array([X2.entry(a).evaluate(p).components[0] for a in FRAME_INDICES])
    assert np.allclose(got, [c * 0.5, s * 0.5, 0.0])


def test_frame_transform_covariance_of_torsion():
    rnd = np.random.default_rng(21)
    e = random_coframe(rnd, amplitude=0.1)
    d = random_defects(rnd)
    T, Q = reconstruct_defect_geometry(d, e)
    omega = connection_with(levi_civita_connection(e), defect_one_form(T, Q, e))
    h = GaugeField([["1+0.1*x", "0.2", "0"], ["0", "1+0.1*y", "0.1*z"], ["0.05", "0", "1"]])
    e2 = transform_coframe(h, e)
    omega2 = transform_connection(h, omega)
    direct = torsion(e2, omega2)
    moved = transform_tensor(h, torsion(e, omega))
    residual = [direct.entry(a) - moved.entry(a) for a in FRAME_INDICES]
    pts = sample_points(20, seed=3)
    assert normalized_residual(residual, moved.entries(), pts) <= 1e-10

    direct_R = curvature(omega2)
    moved_R = transform_tensor(h, curvature(omega))
    residual_R = [
        direct_R.entry(a, b) - moved_R.entry(a, b) for a in FRAME_INDICES for b in FRAME_INDICES
    ]
    assert normalized_residual(residual_R, moved_R.entries(), pts) <= 1e-10


def test_frame_transform_preserves_flatness():
    h = GaugeField([["1+0.2*x", "0.1*y", "0"], ["0", "1", "0.3*z"], ["0.1", "0", "1"]])
    omega2 = transform_connection(h, TensorFormField.zero(("u", "d"), 1))
    R = curvature(omega2)
    pts = sample_points(20, seed=8)
    assert normalized_residual(R.entries(), omega2.entries(), pts) <= 1e-10


# ---- Bianchi identities and curvature split ----------------------------------------------


@pytest.mark.parametrize("construction", ["zero", "constant", "pure-gauge", "gamma+L"])
def test_bianchi_identities_across_matrix(construction):
    rnd = np.random.default_rng(abs(hash(construction)) % 1000)
    if construction == "zero":
        e, omega = CoFrame.identity(), TensorFormField.zero(("u", "d"), 1)
    elif construction == "constant":
        e = CoFrame.identity()
        entries = [
            [symbolic(1, "0.3", "-0.2", "0.5") for _ in range(3)] for _ in range(3)
        ]
        omega = connection(entries)
    elif construction == "pure-gauge":
        e = random_coframe(rnd, amplitude=0.1)
        gauge = GaugeField(
            [
                ["1+0.1*x*y", "0.2*z", "0.1"],
                ["0", "1+0.2*sin(y)", "0.1*x"],
                ["0.05*y", "0", "1"],
            ]
        )
        omega = pure_gauge_connection(gauge)
    else:
        e = random_coframe(rnd, amplitude=0.1)
        d = random_defects(rnd)
        T, Q = reconstruct_defect_geometry(d, e)
        omega = connection_with(levi_civita_connection(e), defect_one_form(T, Q, e))
    r1, r2, r3 = connection_residuals(e, omega, PTS)
    assert r1 <= 1e-5
    assert r2 <= 1e-5
    assert r3 <= 1e-5


def test_curvature_split_zero_defect():
    e = random_coframe(rng, amplitude=0.1)
    T = TensorFormField.zero(("u",), 2)
    Q = TensorFormField.zero(("d", "d"), 1)
    gamma, L = levi_civita_connection(e), defect_one_form(T, Q, e)
    res = curvature_split_residual(gamma, L, connection_with(gamma, L))
    assert normalized_residual(res.entries(), [e.e(a) for a in FRAME_INDICES], PTS) <= 1e-10


def test_curvature_split_random_restricted():
    rnd = np.random.default_rng(31)
    e = random_coframe(rnd, amplitude=0.1)
    d = random_defects(rnd)
    T, Q = reconstruct_defect_geometry(d, e)
    gamma, L = levi_civita_connection(e), defect_one_form(T, Q, e)
    res = curvature_split_residual(gamma, L, connection_with(gamma, L))
    reference = T.entries() + Q.entries() + [e.e(a) for a in FRAME_INDICES]
    assert normalized_residual(res.entries(), reference, PTS) <= 1e-8
