"""Deformation gradients, Euler strain, Hooke stress, and the balance laws."""

import numpy as np
import pytest

from defectgeo.elasticity import (
    DeformationMap,
    MaterialConstants,
    cauchy_motion_residual,
    check_invertible,
    deformation_gradients,
    euler_strain,
    isotropic_stress,
    mass_conservation_residual,
    stress_from_elasticity_tensor,
    volume_relation_residual,
)
from defectgeo.errors import (
    AnisotropyNotSupported,
    InvalidMaterial,
    NewtonFailure,
    SingularDeformation,
)
from defectgeo.fields import (
    NumericFormField,
    Point,
    VectorField,
    component_field,
    exterior_derivative,
    matrix_inverse,
    scalar_field,
    symbolic,
    time_derivative,
    zero_field,
)
from defectgeo.forms import FRAME_INDICES
from defectgeo.geometry import CoFrame
from defectgeo.sampling import batch_components, check_points, max_abs, normalized_residual, sample_points

from util import fd_partial, point_array, random_points, random_scalar_field

rng = np.random.default_rng(777)
PTS = sample_points(30, seed=30)
E = CoFrame.identity()


# ---- gradients -------------------------------------------------------------------


def test_identity_map_gradients():
    pull, push = deformation_gradients(DeformationMap(("x", "y", "z")), E)
    p = Point(0.4, -0.1, 0.8)
    for a in range(3):
        for b in range(3):
            want = 1.0 if a == b else 0.0
            assert push[a][b].evaluate(p).components[0] == pytest.approx(want, abs=1e-14)
            assert pull[a][b].evaluate(p).components[0] == pytest.approx(want, abs=1e-14)


@pytest.mark.parametrize(
    "exprs, kind",
    [(("x+0.1*y^2", "y-0.2*x*z", "z"), "inverse"), (("x+0.1*y^2", "y", "z"), "forward")],
)
def test_identity_coframe_gradients_are_the_coordinate_gradients(exprs, kind):
    dm = DeformationMap(exprs, kind=kind)
    X = dm.inverse_fields()
    push = [[component_field(exterior_derivative(X[A]), a) for a in FRAME_INDICES] for A in range(3)]
    for got, want in zip(deformation_gradients(dm, E), (matrix_inverse(push), push)):
        for got_row, want_row in zip(got, want):
            assert all(g.comps[0] is w.comps[0] for g, w in zip(got_row, want_row))


def test_uniform_dilation_gradients():
    dm = DeformationMap(("x/2", "y/2", "z/2"))
    pull, push = deformation_gradients(dm, E)
    p = Point(0.3, 0.6, 0.9)
    for a in range(3):
        assert push[a][a].evaluate(p).components[0] == pytest.approx(0.5)
        assert pull[a][a].evaluate(p).components[0] == pytest.approx(2.0)


def test_simple_shear_inverse_consistency():
    dm = DeformationMap(("x-0.3*y", "y", "z"))
    pull, push = deformation_gradients(dm, E)
    p = Point(0.5, 0.5, 0.5)
    assert push[0][1].evaluate(p).components[0] == pytest.approx(-0.3)
    prod = np.zeros((3, 3))
    for a in range(3):
        for b in range(3):
            prod[a, b] = sum(
                pull[a][c].evaluate(p).components[0] * push[c][b].evaluate(p).components[0]
                for c in range(3)
            )
    assert np.max(np.abs(prod - np.eye(3))) <= 1e-12


def test_singular_deformation_detection():
    dm = DeformationMap(("x*x/2", "y", "z"))  # dX/dx = x vanishes at x = 0
    with pytest.raises(SingularDeformation):
        check_invertible(dm, point_array(Point(0.0, 0.0, 0.0)), E)


def test_forward_map_newton_inversion():
    forward = DeformationMap(("2*x", "2*y", "2*z"), kind="forward")
    X = forward.inverse_fields()
    p = Point(0.8, -0.4, 0.2)
    got = [f.evaluate(p).components[0] for f in X]
    assert np.allclose(got, [0.4, -0.2, 0.1], atol=1e-10)
    # nonlinear forward map: x = X + 0.1 X^3 componentwise
    forward2 = DeformationMap(
        ("x+0.1*x^3", "y+0.1*y^3", "z+0.1*z^3"), kind="forward"
    )
    X2 = forward2.inverse_fields()
    for p in random_points(rng, 5):
        vals = [f.evaluate(p).components[0] for f in X2]
        back = [v + 0.1 * v**3 for v in vals]
        assert np.allclose(back, [p.x, p.y, p.z], atol=1e-10)


def test_forward_map_strain_matches_inverse_form():
    forward = DeformationMap(("2*x", "2*y", "2*z"), kind="forward")
    strain = euler_strain(forward, E)
    p = Point(0.2, 0.1, -0.3)
    for a in FRAME_INDICES:
        assert strain.entry(a, a).evaluate(p).components[0] == pytest.approx(3.0 / 8.0, abs=1e-8)


def test_newton_failure_on_noninvertible_map():
    collapsed = DeformationMap(("0*x", "y", "z"), kind="forward")
    with pytest.raises((NewtonFailure, SingularDeformation)):
        collapsed.inverse_fields()[0].evaluate(Point(0.5, 0.5, 0.5))
    # x^1 = 0 is solved at once where x = 0; the first point off that plane is named
    pts = [Point(0.0, 0.2, 0.3), Point(0.5, 0.5, 0.5), Point(0.7, 0.1, 0.1)]
    with pytest.raises(SingularDeformation, match=r"at Point\(x=0\.5, y=0\.5, z=0\.5, t=0\.0\)"):
        batch_components(collapsed.inverse_fields(), point_array(*pts))
    # x = X^3 solves x = 0 without a step, where dx/dX = 0
    cubic = DeformationMap(("x^3", "y", "z"), kind="forward")
    with pytest.raises(SingularDeformation, match=r"at Point\(x=0\.0, y=0\.2, z=0\.3, t=0\.0\)"):
        batch_components(cubic.inverse_fields(), point_array(Point(1.0, 0.0, 0.0), *pts))


def test_stalled_forward_inversion_names_first_failing_point():
    # sqrt(X^2 + 1) never drops below 1: x = 2 is solved, x = 0.5 and x = -2 stall
    dm = DeformationMap(("sqrt(x^2+1)", "y", "z"), kind="forward")
    pts = point_array(Point(2.0, 0.0, 0.0), Point(0.5, 0.25, 0.0), Point(-2.0, 0.0, 0.0))
    with pytest.raises(NewtonFailure, match=r"after 50 iterations at Point\(x=0\.5, y=0\.25"):
        batch_components(dm.inverse_fields(), pts)


def test_forward_map_needs_symbolic_components():
    numeric = NumericFormField(0, symbolic(0, "2*x").evaluate_batch)
    with pytest.raises(ValueError, match="symbolic"):
        DeformationMap((numeric, "y", "z"), kind="forward")


def test_forward_map_rejects_sampled_leaves():
    # the chart differentiates its components symbolically, and a sampled leaf
    # (another map's X, a numeric field) would drop out of that Jacobian
    X1 = DeformationMap(("x+0.1*x^3", "y", "z"), kind="forward").inverse_fields()[0]
    numeric = NumericFormField(0, symbolic(0, "2*x").evaluate_batch)
    for component in (X1, X1 * 2.0 + scalar_field("y"), symbolic(0, "x") + numeric):
        with pytest.raises(ValueError, match="sampled leaves"):
            DeformationMap((component, "y", "z"), kind="forward")
    # an inverse map may hold them
    assert DeformationMap((X1, "y", "z")).inverse_fields()[0] is X1


def test_cubic_forward_map_push_forward_closed_form():
    # x = X + 0.1 X^3 componentwise: F^A_a = delta / (1 + 0.3 X^2) exactly, and
    # d/dx^a F^A_a = -0.6 X / (1 + 0.3 X^2)^3 checks the chain rule to second order
    dm = DeformationMap(("x+0.1*x^3", "y+0.1*y^3", "z+0.1*z^3"), kind="forward")
    _, push = deformation_gradients(dm, E)
    body = np.random.default_rng(5).uniform(-1.5, 1.5, size=(3, 200))
    xs = body + 0.1 * body**3
    for A in range(3):
        got = push[A][A].evaluate_batch(*xs).components[0]
        assert np.max(np.abs(got - 1.0 / (1.0 + 0.3 * body[A] ** 2))) <= 1e-10
        d = component_field(exterior_derivative(push[A][A]), A + 1)
        want = -0.6 * body[A] / (1.0 + 0.3 * body[A] ** 2) ** 3
        assert np.max(np.abs(d.evaluate_batch(*xs).components[0] - want)) <= 1e-10
        for a in range(3):
            if a != A:
                assert np.max(np.abs(push[A][a].evaluate_batch(*xs).components[0])) == 0.0


COUPLED = ("x+0.2*sin(y)", "y+0.1*x*z", "z+0.05*x^2+0.1*y")


def _coupled_forward(X):
    return np.stack([X[0] + 0.2 * np.sin(X[1]), X[1] + 0.1 * X[0] * X[2], X[2] + 0.05 * X[0] ** 2 + 0.1 * X[1]])


def test_coupled_forward_map_round_trip_in_one_solve():
    dm = DeformationMap(COUPLED, kind="forward")
    pts = sample_points(1000, seed=9)
    solves = []
    newton = dm._chart._newton
    dm._chart._newton = lambda *args: solves.append(1) or newton(*args)
    X = batch_components(dm.inverse_fields(), pts)
    assert len(solves) == 1
    target = pts[:, :3].T
    assert np.max(np.abs(_coupled_forward(X) - target)) <= 1e-12


def test_coupled_forward_push_forward_matches_finite_differences():
    dm = DeformationMap(COUPLED, kind="forward")
    pull, push = deformation_gradients(dm, E)
    X = dm.inverse_fields()
    for p in random_points(np.random.default_rng(6), 5, lo=-0.8, hi=0.8):
        F = np.array([[push[A][a].evaluate(p).components[0] for a in range(3)] for A in range(3)])
        fd = np.array(
            [[fd_partial(lambda q: X[A].evaluate(q).components[0], p, v) for v in "xyz"] for A in range(3)]
        )
        assert np.max(np.abs(F - fd)) <= 1e-8
        P = np.array([[pull[a][A].evaluate(p).components[0] for A in range(3)] for a in range(3)])
        assert np.max(np.abs(P @ F - np.eye(3))) <= 1e-12


def test_time_dependent_forward_map_exact_rates():
    # x = X (1 + t) + 0.1 t Y: X(x, t) = (x - 0.1 t y / (1 + t)) / (1 + t)
    dm = DeformationMap(("x*(1+t)+0.1*t*y", "y*(1+t)", "z"), kind="forward")
    X1 = dm.inverse_fields()[0]
    p = Point(0.4, -0.3, 0.2, 0.5)
    s = 1.0 + p.t
    assert X1.evaluate(p).components[0] == pytest.approx((p.x - 0.1 * p.t * p.y / s) / s, abs=1e-14)
    # d/dt at fixed x of the closed form
    want = -p.x / s**2 + 0.1 * p.y * (2.0 * p.t / s**3 - 1.0 / s**2)
    assert time_derivative(X1).evaluate(p).components[0] == pytest.approx(want, abs=1e-12)


def test_spatial_operands_join_the_body_chart():
    dm = DeformationMap(("2*x", "2*y", "2*z"), kind="forward")
    X1 = dm.inverse_fields()[0]
    gap = X1 - scalar_field("x") * 0.5 + scalar_field(1.0)
    assert gap.evaluate(Point(0.8, -0.4, 0.2)).components[0] == pytest.approx(1.0, abs=1e-15)


# ---- strain ---------------------------------------------------------------------


def test_identity_strain_zero():
    strain = euler_strain(DeformationMap(("x", "y", "z")), E)
    p = Point(0.1, 0.9, -0.5)
    for a in FRAME_INDICES:
        for b in FRAME_INDICES:
            assert strain.entry(a, b).evaluate(p).components[0] == 0.0


def test_dilation_strain_exact():
    strain = euler_strain(DeformationMap(("x/2", "y/2", "z/2")), E)
    p = Point(0.7, 0.7, 0.7)
    for a in FRAME_INDICES:
        for b in FRAME_INDICES:
            want = 3.0 / 8.0 if a == b else 0.0
            assert strain.entry(a, b).evaluate(p).components[0] == pytest.approx(want, abs=1e-15)


def _linearization_error(eps):
    # inverse map X = x - eps * g(x) for a fixed smooth displacement profile
    g = ("sin(y)+0.5*z", "cos(x)*z", "x*y")
    dm = DeformationMap(tuple(f"{v}-({eps})*({gi})" for v, gi in zip("xyz", g)))
    strain = euler_strain(dm, E)
    u = [symbolic(0, f"({eps})*({gi})") for gi in g]
    worst = 0.0
    for p in random_points(np.random.default_rng(4), 10, lo=-0.8, hi=0.8):
        for a in FRAME_INDICES:
            for b in FRAME_INDICES:
                du_ab = fd_partial(lambda q: u[b - 1].evaluate(q).components[0], p, "xyz"[a - 1])
                du_ba = fd_partial(lambda q: u[a - 1].evaluate(q).components[0], p, "xyz"[b - 1])
                lin = 0.5 * (du_ab + du_ba)
                got = strain.entry(a, b).evaluate(p).components[0]
                worst = max(worst, abs(got - lin))
    return worst


def test_small_strain_linearization_quadratic_convergence():
    err3 = _linearization_error(1e-3)
    err4 = _linearization_error(1e-4)
    assert err3 <= 10 * (1e-3) ** 2
    assert 80.0 <= err3 / err4 <= 120.0


# ---- stress ----------------------------------------------------------------------


def test_zero_strain_zero_stress():
    stress = isotropic_stress(euler_strain(DeformationMap(("x", "y", "z")), E), MaterialConstants(lam=2.0, mu=1.5), E)
    p = Point(0, 0, 0)
    for a in FRAME_INDICES:
        for b in FRAME_INDICES:
            assert stress.entry(a, b).evaluate(p).components[0] == 0.0


def test_dilation_stress_arithmetic():
    strain = euler_strain(DeformationMap(("x/2", "y/2", "z/2")), E)
    stress = isotropic_stress(strain, MaterialConstants(lam=1.0, mu=1.0), E)
    p = Point(0.5, 0.5, 0.5)
    for a in FRAME_INDICES:
        for b in FRAME_INDICES:
            want = 15.0 / 8.0 if a == b else 0.0
            assert stress.entry(a, b).evaluate(p).components[0] == pytest.approx(want, abs=1e-15)


def test_elasticity_tensor_contraction_matches_closed_form():
    entries = {}
    rnd = np.random.default_rng(12)
    for a in FRAME_INDICES:
        for b in FRAME_INDICES:
            key = (min(a, b), max(a, b))
            if key not in entries:
                entries[key] = random_scalar_field(rnd)
    from defectgeo.elasticity import StrainState

    strain = StrainState([[entries[(min(a, b), max(a, b))] for b in FRAME_INDICES] for a in FRAME_INDICES])
    mat = MaterialConstants(lam=1.7, mu=0.6)
    direct = isotropic_stress(strain, mat, E)
    contracted = stress_from_elasticity_tensor(strain, mat, E)
    gap = [
        direct.entry(a, b) - contracted.entry(a, b) for a in FRAME_INDICES for b in FRAME_INDICES
    ]
    flat = [f for row in strain.strain for f in row]
    assert normalized_residual(gap, flat, PTS) <= 1e-12


def test_kappa_rejected_by_isotropic_law():
    strain = euler_strain(DeformationMap(("x", "y", "z")), E)
    with pytest.raises(AnisotropyNotSupported):
        isotropic_stress(strain, MaterialConstants(lam=1.0, mu=1.0, kappa=0.5), E)


def test_material_validation():
    with pytest.raises(InvalidMaterial):
        MaterialConstants(mu=-1.0)
    with pytest.raises(InvalidMaterial):
        MaterialConstants(poisson=0.5)
    with pytest.raises(InvalidMaterial):
        MaterialConstants(r_outer=1.0, r_core=2.0)


@pytest.mark.parametrize(
    "name, kwargs",
    [
        ("shear_modulus", dict(shear_modulus=float("nan"), r_outer=2.0, r_core=1.0)),
        ("r_outer", dict(shear_modulus=1.0, r_outer=float("inf"), r_core=1.0)),
        ("r_core", dict(r_outer=2.0, r_core=float("-inf"))),
        ("lam", dict(lam=float("nan"), mu=1.0)),
        ("mu", dict(mu=float("nan"))),
        ("kappa", dict(kappa=float("inf"))),
        ("poisson", dict(poisson=float("nan"))),
    ],
)
def test_material_rejects_non_finite_values(name, kwargs):
    with pytest.raises(InvalidMaterial, match=f"^{name} must be finite"):
        MaterialConstants(**kwargs)


def test_stress_two_form_relation():
    strain = euler_strain(DeformationMap(("x/2", "y/2", "z/2")), E)
    stress = isotropic_stress(strain, MaterialConstants(lam=1.0, mu=1.0), E)
    p = Point(0.4, 0.4, 0.4)
    from defectgeo.fields import hodge

    for a in FRAME_INDICES:
        expected = None
        for b in FRAME_INDICES:
            term = stress.entry(a, b) * hodge(E.e(b))
            expected = term if expected is None else expected + term
        assert (stress.tau[a - 1] - expected).evaluate(p).max_abs() <= 1e-14


# ---- balance laws ------------------------------------------------------------------


def test_mass_conservation_static():
    res = mass_conservation_residual(scalar_field(2.5), VectorField.zero())
    assert res.evaluate(Point(0.3, 0.1, 0.9, 1.2)).max_abs() == 0.0


def test_mass_conservation_constructed_solution():
    rho = symbolic(0, "exp(-3*t)")
    v = VectorField.of(symbolic(0, "x"), symbolic(0, "y"), symbolic(0, "z"))
    res = mass_conservation_residual(rho, v)
    for p in random_points(rng, 20):
        q = Point(p.x, p.y, p.z, 0.7)
        assert res.evaluate(q).max_abs() <= 1e-12


def test_mass_conservation_matches_stencil():
    rho = symbolic(0, "1+0.2*x*t+0.1*y^2")
    v = VectorField.of(symbolic(0, "y*z"), symbolic(0, "x"), symbolic(0, "0.5*z"))
    res = mass_conservation_residual(rho, v)
    for p in random_points(rng, 10):
        q = Point(p.x, p.y, p.z, 0.4)

        def flux(i):
            return lambda s: rho.evaluate(s).components[0] * v.comps[i].evaluate(s).components[0]

        want = fd_partial(lambda s: rho.evaluate(s).components[0], q, "t")
        for i, var in enumerate("xyz"):
            want += fd_partial(flux(i), q, var)
        assert abs(res.evaluate(q).components[0] - want) <= 1e-6


def test_cauchy_static_uniform_stress():
    strain = euler_strain(DeformationMap(("x", "y", "z")), E)
    stress = isotropic_stress(strain, MaterialConstants(lam=1.0, mu=1.0), E)
    res = cauchy_motion_residual(
        scalar_field(1.0), VectorField.zero(), VectorField.zero(), stress, E
    )
    p = Point(0.2, 0.2, 0.2)
    assert all(r.evaluate(p).max_abs() == 0.0 for r in res)


def _static_residual(kind, maps, mat):
    """The momentum residual of the unforced static body under the Hooke stress of `maps`."""
    stress = isotropic_stress(euler_strain(DeformationMap(maps, kind=kind), E), mat, E)
    return cauchy_motion_residual(scalar_field(1.0), VectorField.zero(), VectorField.zero(), stress, E)


def test_cauchy_static_homogeneous_forward_map():
    # a homogeneous deformation has constant stress, so the static residual vanishes
    res = _static_residual("forward", ("1.2*x", "0.9*y", "1.1*z"), MaterialConstants(lam=1.0, mu=1.5))
    assert max_abs(res, check_points(-1.0, 1.0, 3)) <= 1e-12


def test_cauchy_static_triangular_forward_map_matches_its_inverse():
    # x1 = X1 + 0.1 X2^2, whose inverse is X1 = x1 - 0.1 x2^2: the forward chart's
    # second derivatives reach the stress divergence
    mat, points = MaterialConstants(lam=1.0, mu=1.0, kappa=0.0), check_points(-0.5, 1.0, 9)
    forward = batch_components(_static_residual("forward", ("x+0.1*y^2", "y", "z"), mat), points)
    inverse = batch_components(_static_residual("inverse", ("x-0.1*y^2", "y", "z"), mat), points)
    assert np.max(np.abs(forward - inverse)) <= 1e-12
    assert np.max(np.abs(inverse)) > 0.1


def test_cauchy_hydrostatic_balance():
    # sigma = -p delta with p = x+y+z balances a unit body force
    from defectgeo.elasticity import StressState, _stress_two_form

    sigma = [
        [symbolic(0, "-(x+y+z)") if a == b else zero_field(0) for b in FRAME_INDICES]
        for a in FRAME_INDICES
    ]
    tau = [_stress_two_form(sigma, a, E) for a in FRAME_INDICES]
    stress = StressState(sigma, tau)
    f = VectorField.of(scalar_field(1.0), scalar_field(1.0), scalar_field(1.0))
    res = cauchy_motion_residual(scalar_field(1.0), VectorField.zero(), f, stress, E)
    for p in random_points(rng, 10):
        assert all(r.evaluate(p).max_abs() <= 1e-13 for r in res)


def test_cauchy_matches_component_stencil():
    # independent componentwise evaluation on an identity coframe:
    # rho (dv/dt + (v.grad) v) - rho f - div sigma, times the volume form
    rnd = np.random.default_rng(14)
    v = VectorField.of(
        symbolic(0, "0.3*y+0.1*t"), symbolic(0, "0.2*x*z"), symbolic(0, "0.4*z")
    )
    f = VectorField.of(symbolic(0, "0.5"), symbolic(0, "x"), symbolic(0, "y*z"))
    rho = symbolic(0, "1+0.1*x")
    sig_entries = {}
    for a in FRAME_INDICES:
        for b in FRAME_INDICES:
            key = (min(a, b), max(a, b))
            if key not in sig_entries:
                sig_entries[key] = random_scalar_field(rnd)
    sigma = [[sig_entries[(min(a, b), max(a, b))] for b in FRAME_INDICES] for a in FRAME_INDICES]
    from defectgeo.elasticity import StressState, _stress_two_form

    stress = StressState(sigma, [_stress_two_form(sigma, a, E) for a in FRAME_INDICES])
    res = cauchy_motion_residual(rho, v, f, stress, E)

    def value(field):
        return lambda q: field.evaluate(q).components[0]

    for p in random_points(rnd, 5):
        q = Point(p.x, p.y, p.z, 0.3)
        rho_v = rho.evaluate(q).components[0]
        v_val = v.evaluate(q)
        for a in FRAME_INDICES:
            accel = fd_partial(value(v.component(a)), q, "t")
            for i, var in enumerate("xyz"):
                accel += v_val[i] * fd_partial(value(v.component(a)), q, var)
            div_sigma = sum(
                fd_partial(value(sigma[a - 1][b - 1]), q, "xyz"[b - 1]) for b in FRAME_INDICES
            )
            want = rho_v * accel - rho_v * f.component(a).evaluate(q).components[0] - div_sigma
            got = res[a - 1].evaluate(q).components[0]
            assert abs(got - want) <= 1e-5


def test_volume_relation():
    assert volume_relation_residual(DeformationMap(("x", "y", "z")), E).evaluate(Point(0.5, 0.5, 0.5)).max_abs() <= 1e-14
    dil = volume_relation_residual(DeformationMap(("x/2", "y/2", "z/2")), E)
    assert dil.evaluate(Point(0.1, 0.2, 0.3)).max_abs() <= 1e-12
    rnd = np.random.default_rng(8)
    dm = DeformationMap(
        (
            "x+0.05*x*y+0.02*z^2",
            "y-0.03*x^2+0.04*z",
            "z+0.06*x-0.01*y^2",
        )
    )
    res = volume_relation_residual(dm, E)
    assert normalized_residual([res], [], PTS) <= 1e-8


def test_volume_relation_with_nonidentity_coframe():
    e = CoFrame([["1+0.1*x", "0", "0"], ["0", "1", "0.05*y"], ["0", "0", "1"]])
    dm = DeformationMap(("x-0.1*y", "y+0.05*z", "z"))
    res = volume_relation_residual(dm, e)
    assert normalized_residual([res], [], PTS) <= 1e-8
