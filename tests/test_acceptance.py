"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here, not configurable.  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import contextlib
import time
from pathlib import Path

import numpy as np
import pytest

from defectgeo import calibration
from defectgeo.cli import main as cli_main
from defectgeo.defects import (
    DefectFields,
    FRANK_SCALE,
    reconstruct_defect_geometry,
    reconstruct_nonmetricity,
    reconstruct_torsion,
    torsion_traces,
    nonmetricity_trace,
    nonmetricity_second_trace,
)
from defectgeo.elasticity import DeformationMap, MaterialConstants, euler_strain, isotropic_stress
from defectgeo.energy import (
    Couplings,
    dislocation_energy_coefficient,
    lagrangian_form,
    lagrangian_vector,
    map_couplings,
    total_free_energy_estimate,
)
from defectgeo.expressions import evaluate, parse_expr, to_text
from defectgeo.errors import ParseError
from defectgeo.fields import (
    NumericFormField,
    Point,
    VectorField,
    constant_field,
    evaluate_fields,
    exterior_derivative,
    hodge,
    interior,
    scalar_field,
    symbolic,
    wedge,
    zero_field,
)
from defectgeo.forms import FRAME_INDICES
from defectgeo.geometry import (
    CoFrame,
    GaugeField,
    TensorFormField,
    bianchi_residuals,
    connection_with,
    curvature,
    defect_one_form,
    levi_civita_connection,
    nonmetricity,
    pure_gauge_connection,
    torsion,
)
from defectgeo.kinematics import (
    curvature_identity_sides,
    disclination_point_balance,
    dislocation_balance,
    extra_matter,
)
from defectgeo.sampling import batch_components, normalized_residual, sample_points

from util import (
    all_basis_forms,
    connection,
    fd_partial,
    flat_disclination_point_balance,
    flat_dislocation_balance,
    random_coframe,
    random_defects,
    random_expr,
    random_form_field,
    random_points,
    random_scalar_field,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d} FAIL: {description}")
        raise
    print(f"[acceptance] criterion {number:2d} PASS: {description}")


def test_criterion_01_exterior_algebra_kernel():
    with criterion(1, "exterior-algebra kernel, exhaustive and exact"):
        started = time.perf_counter()
        basis = [constant_field(b) for b in all_basis_forms()]
        pairs = []  # (lhs, rhs) fields that must evaluate to the same bits
        for a in basis:
            for b in basis:
                if a.degree + b.degree > 3:
                    continue
                sign = (-1.0) ** (a.degree * b.degree)
                pairs.append((wedge(a, b), sign * wedge(b, a)))
        pairs += [(hodge(hodge(b)), b) for b in basis]
        for i in (1, 2, 3):
            for alpha in basis:
                for beta in basis:
                    total = alpha.degree + beta.degree
                    if total > 3 or total == 0:
                        continue
                    rhs = zero_field(total - 1)
                    if alpha.degree >= 1:
                        rhs = rhs + wedge(interior(i, alpha), beta)
                    if beta.degree >= 1:
                        rhs = rhs + ((-1.0) ** alpha.degree) * wedge(alpha, interior(i, beta))
                    pairs.append((interior(i, wedge(alpha, beta)), rhs))
        values = evaluate_fields([f for pair in pairs for f in pair], 0.0, 0.0, 0.0)
        for lhs, rhs in zip(values[0::2], values[1::2]):
            assert lhs.degree == rhs.degree
            assert np.array_equal(lhs.components, rhs.components)
        assert time.perf_counter() - started < 1.0


def test_criterion_02_nilpotent_exterior_derivative():
    with criterion(2, "d(d(.)) = 0, symbolic 1e-9 and finite-difference 1e-5"):
        started = time.perf_counter()
        rng = np.random.default_rng(2024)
        pts = random_points(rng, 100)
        xs = np.array([p.x for p in pts])
        ys = np.array([p.y for p in pts])
        zs = np.array([p.z for p in pts])
        worst_sym = 0.0
        for i in range(100):
            degree = int(rng.integers(0, 2))
            field = random_form_field(rng, degree)
            dd = exterior_derivative(exterior_derivative(field))
            worst_sym = max(worst_sym, float(np.max(np.abs(dd.evaluate_batch(xs, ys, zs).components))))
        assert worst_sym <= 1e-9
        worst_fd = 0.0
        for i in range(5):
            base = random_scalar_field(rng)
            field = NumericFormField(0, base.evaluate_batch, fd_step=1e-4)
            dd = exterior_derivative(exterior_derivative(field))
            for p in pts[:5]:
                worst_fd = max(worst_fd, dd.evaluate(p).max_abs())
        assert worst_fd <= 1e-5
        assert time.perf_counter() - started < 5.0


def test_criterion_03_levi_civita_contract():
    with criterion(3, "Levi-Civita defining contract on 20 random triads"):
        for seed in range(20):
            rng = np.random.default_rng(3000 + seed)
            e = random_coframe(rng)
            gamma = levi_civita_connection(e)
            pts = sample_points(50, seed=seed)
            residuals = []
            for a in FRAME_INDICES:
                acc = exterior_derivative(e.e(a))
                for b in FRAME_INDICES:
                    acc = acc + wedge(gamma.entry(a, b), e.e(b))
                residuals.append(acc)
            residuals += [
                (gamma.entry(a, b) + gamma.entry(b, a)) * 0.5
                for a in FRAME_INDICES
                for b in FRAME_INDICES
            ]
            reference = [e.e(a) for a in FRAME_INDICES] + gamma.entries()
            assert normalized_residual(residuals, reference, pts) <= 1e-6


def test_criterion_04_defect_round_trip():
    with criterion(4, "gamma+L reproduces the restricted torsion and non-metricity"):
        for seed in range(20):
            rng = np.random.default_rng(4000 + seed)
            e = random_coframe(rng, amplitude=0.15)
            d = random_defects(rng)
            T, Q = reconstruct_defect_geometry(d, e)
            omega = connection_with(levi_civita_connection(e), defect_one_form(T, Q, e))
            T2, Q2 = torsion(e, omega), nonmetricity(omega)
            residual = [T2.entry(a) - T.entry(a) for a in FRAME_INDICES]
            residual += [
                Q2.entry(a, b) - Q.entry(a, b) for a in FRAME_INDICES for b in FRAME_INDICES
            ]
            pts = sample_points(25, seed=seed)
            assert normalized_residual(residual, T.entries() + Q.entries(), pts) <= 1e-6


def test_criterion_05_bianchi_identity_matrix():
    with criterion(5, "three structure identities across the connection matrix"):
        started = time.perf_counter()
        pts = sample_points(50, seed=5)
        cases = []
        cases.append((CoFrame.identity(), TensorFormField.zero(("u", "d"), 1)))
        constant = connection(
            [[symbolic(1, "0.4", "-0.1", "0.3") for _ in range(3)] for _ in range(3)]
        )
        cases.append((CoFrame.identity(), constant))
        gauge = GaugeField(
            [
                ["1+0.1*x*y", "0.2*z", "0.1"],
                ["0", "1+0.2*sin(y)", "0.1*x"],
                ["0.05*y", "0", "1"],
            ]
        )
        rng = np.random.default_rng(55)
        flat = pure_gauge_connection(gauge)
        cases.append((random_coframe(rng, amplitude=0.1), flat))
        for seed in (56, 57):
            rng = np.random.default_rng(seed)
            e = random_coframe(rng, amplitude=0.1)
            d = random_defects(rng)
            T, Q = reconstruct_defect_geometry(d, e)
            cases.append((e, connection_with(levi_civita_connection(e), defect_one_form(T, Q, e))))
        for e, omega in cases:
            reference = omega.entries() + [e.e(a) for a in FRAME_INDICES]
            for res in bianchi_residuals(e, omega):
                assert normalized_residual(res.entries(), reference, pts) <= 1e-5
        R = curvature(flat)
        assert normalized_residual(R.entries(), flat.entries(), pts) <= 1e-6
        assert time.perf_counter() - started < 60.0


def test_criterion_06_trace_round_trips_and_frank_scale():
    with criterion(6, "trace round trips exact; frozen Frank scale = 3"):
        rng = np.random.default_rng(6)
        e = CoFrame.identity()
        pts = sample_points(100, seed=6)
        d = random_defects(rng)
        T = reconstruct_torsion(d.burgers, d.scalar, e)
        trace, S = torsion_traces(T, e)
        vol_rho = d.scalar * hodge(scalar_field(1.0))
        assert normalized_residual([trace - d.burgers], [d.burgers], pts) <= 1e-12
        assert normalized_residual([S - vol_rho], [vol_rho], pts) <= 1e-12
        Q = reconstruct_nonmetricity(d.frank, d.point, e)
        assert normalized_residual([nonmetricity_trace(Q) - d.point], [d.point], pts) <= 1e-12

        scale, rel_std = calibration.measure_frank_scale(e, pts)
        assert rel_std <= 1e-3
        assert abs(scale - 3.0) <= 1e-9, "frank scale drifted; re-derive before touching the frozen value"
        assert scale == pytest.approx(FRANK_SCALE, abs=1e-12)
        # position independence on an independent random configuration
        Qf = reconstruct_nonmetricity(d.frank, zero_field(1), e)
        P, _ = nonmetricity_second_trace(Qf, e)
        num = batch_components([P], pts)
        den = batch_components([d.frank], pts)
        keep = np.abs(den) > 1e-9
        ratios = num[keep] / den[keep]
        assert np.std(ratios) <= 1e-3 * abs(np.mean(ratios))


def test_criterion_07_kinematics():
    with criterion(7, "kinematic balances: representations, profiles, curvature identities"):
        e = CoFrame.identity()
        pts = sample_points(40, seed=7)
        d = random_defects(np.random.default_rng(7))
        form_res = dislocation_balance(d, e)
        flat = flat_dislocation_balance(d)
        gap = [hodge(form_res.entry(a)) - f for a, f in zip(FRAME_INDICES, flat)]
        assert normalized_residual(gap, flat, pts) <= 1e-12
        point_curl, beltrami, bilinear = disclination_point_balance(d, e)
        flat_curl_m, flat_beltrami, flat_bilinear = flat_disclination_point_balance(d)
        for row, oracle in (
            (point_curl, flat_curl_m),
            (beltrami, flat_beltrami),
            (sum(bilinear, []), sum(flat_bilinear, [])),
        ):
            assert normalized_residual([r - o for r, o in zip(row, oracle)], oracle, pts) <= 1e-12

        beltrami_defects = DefectFields(
            zero_field(1),
            symbolic(1, "sin(2*z)", "cos(2*z)", "0"),
            zero_field(1),
            scalar_field(2.0),
        )
        _, beltrami, _ = disclination_point_balance(beltrami_defects, e)
        assert normalized_residual(beltrami, [beltrami_defects.frank], pts) <= 1e-6

        exact_point = DefectFields(
            zero_field(1),
            zero_field(1),
            exterior_derivative(symbolic(0, "ln(1+x^2)")),
            zero_field(0),
        )
        curl_m, _, _ = disclination_point_balance(exact_point, e)
        assert normalized_residual(curl_m, [exact_point.point], pts) <= 1e-6

        A, B, C, R_sym = curvature_identity_sides(d, e)
        dislocation = [a - b * calibration.DISLOCATION_CURVATURE_FACTOR for a, b in zip(A, B)]
        assert normalized_residual(dislocation, A + B, pts) <= 1e-12
        disclination = [c - r * calibration.DISCLINATION_CURVATURE_FACTOR for c, r in zip(C, R_sym)]
        assert normalized_residual(disclination, C + R_sym, pts) <= 1e-12


def test_criterion_08_extra_matter_stokes():
    with criterion(8, "extra-matter volume total vs boundary flux on the unit ball"):
        started = time.perf_counter()
        phi = symbolic(0, "(x^2+y^2+z^2)/6")
        report = extra_matter(
            phi, radius=1.0, volume_resolution=64, sphere_resolution=(128, 256)
        )
        ball = 4.0 * np.pi / 3.0
        assert abs(report.volume_total - ball) <= 0.01 * ball
        assert abs(report.flux_total - ball) <= 0.01 * ball
        assert report.stokes_gap <= 0.01 * max(abs(report.volume_total), 1e-8)
        assert time.perf_counter() - started < 10.0


def test_criterion_09_elasticity():
    with criterion(9, "dilation strain/stress exact; quadratic convergence; conservation"):
        e = CoFrame.identity()
        strain = euler_strain(DeformationMap(("x/2", "y/2", "z/2")), e)
        stress = isotropic_stress(strain, MaterialConstants(lam=1.0, mu=1.0), e)
        p = Point(0.35, -0.6, 0.85)
        for a in FRAME_INDICES:
            for b in FRAME_INDICES:
                want_e = 3.0 / 8.0 if a == b else 0.0
                want_s = 15.0 / 8.0 if a == b else 0.0
                assert abs(strain.entry(a, b).evaluate(p).components[0] - want_e) <= 1e-12
                assert abs(stress.entry(a, b).evaluate(p).components[0] - want_s) <= 1e-12

        def linearization_error(eps):
            g = ("sin(y)+0.5*z", "cos(x)*z", "x*y")
            dm = DeformationMap(tuple(f"{v}-({eps})*({gi})" for v, gi in zip("xyz", g)))
            st = euler_strain(dm, e)
            u = [symbolic(0, f"({eps})*({gi})") for gi in g]
            worst = 0.0
            for q in random_points(np.random.default_rng(9), 8, lo=-0.8, hi=0.8):
                for a in FRAME_INDICES:
                    for b in FRAME_INDICES:
                        du_ab = fd_partial(
                            lambda s: u[b - 1].evaluate(s).components[0], q, "xyz"[a - 1]
                        )
                        du_ba = fd_partial(
                            lambda s: u[a - 1].evaluate(s).components[0], q, "xyz"[b - 1]
                        )
                        lin = 0.5 * (du_ab + du_ba)
                        worst = max(worst, abs(st.entry(a, b).evaluate(q).components[0] - lin))
            return worst

        err3 = linearization_error(1e-3)
        err4 = linearization_error(1e-4)
        assert err3 <= 10 * (1e-3) ** 2
        assert 80.0 <= err3 / err4 <= 120.0

        from defectgeo.elasticity import cauchy_motion_residual, mass_conservation_residual
        from defectgeo.elasticity import StressState, _stress_two_form

        rho = symbolic(0, "exp(-3*t)")
        v = VectorField.of(symbolic(0, "x"), symbolic(0, "y"), symbolic(0, "z"))
        res = mass_conservation_residual(rho, v)
        pts = random_points(np.random.default_rng(10), 20)
        worst = max(res.evaluate(Point(q.x, q.y, q.z, 0.5)).max_abs() for q in pts)
        assert worst <= 1e-6

        sigma = [
            [symbolic(0, "-(x+y+z)") if a == b else zero_field(0) for b in FRAME_INDICES]
            for a in FRAME_INDICES
        ]
        state = StressState(sigma, [_stress_two_form(sigma, a, e) for a in FRAME_INDICES])
        f = VectorField.of(scalar_field(1.0), scalar_field(1.0), scalar_field(1.0))
        balance = cauchy_motion_residual(scalar_field(1.0), VectorField.zero(), f, state, e)
        worst = max(r.evaluate(q).max_abs() for r in balance for q in pts)
        assert worst <= 1e-6


def test_criterion_10_free_energy():
    with criterion(10, "free-energy representations, coupling map, dislocation energies"):
        e = CoFrame.identity()
        for seed in range(100):
            rng = np.random.default_rng(10_000 + seed)
            d = random_defects(rng, amplitude=0.7)
            k = Couplings(*rng.uniform(-2, 2, 7))
            q = Point(*rng.uniform(-1, 1, 3))
            lf = lagrangian_form(d, k, e).evaluate(q).components[0]
            lv = lagrangian_vector(d, k, e).evaluate(q).components[0]
            assert abs(lf - lv) <= 1e-12 * (1.0 + abs(lf))

        m1 = map_couplings(Couplings(kappa1=1.0))
        assert (m1.k1, m1.k2, m1.k3, m1.c1, m1.c2, m1.c3, m1.c4, m1.c5, m1.l1, m1.l2, m1.l3) == (
            1.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
        )
        m3 = map_couplings(Couplings(kappa3=1.0))
        assert (m3.c1, m3.c3) == (1.0, -1.0)
        assert m3.c4 == pytest.approx(-5.0 / 9.0, abs=1e-15)
        assert m3.c5 == pytest.approx(2.0 / 3.0, abs=1e-15)
        m6 = map_couplings(Couplings(kappa6=1.0))
        assert (m6.l1, m6.l3) == (-1.0, 1.0)
        assert m6.l2 == pytest.approx(-2.0 / 3.0, abs=1e-15)

        for nu in (0.05, 0.15, 0.25, 0.35, 0.45):
            mat = MaterialConstants(shear_modulus=7.3, poisson=nu, r_outer=5.0, r_core=0.5)
            edge = dislocation_energy_coefficient("edge", mat)
            screw = dislocation_energy_coefficient("screw", mat)
            assert abs(edge / screw - 1.0 / (1.0 - nu)) <= 1e-12

        d = DefectFields(zero_field(1), zero_field(1), zero_field(1), symbolic(0, "x"))
        est = total_free_energy_estimate(d, Couplings(kappa2=1.0), (0, 0, 0), (1, 1, 1), 32, e)
        third = 1.0 / 3.0
        assert abs(est.coarse - third) <= 0.01 * third
        assert abs(est.fine - third) <= 0.01 * third
        assert est.error_estimate <= 0.01 * third
        assert abs(est.fine - third) <= abs(est.coarse - third)


def test_criterion_11_parser():
    with criterion(11, "expression corpus round-trips; derivatives match differencing"):
        from test_expressions import GOLDEN_CORPUS

        assert len(GOLDEN_CORPUS) == 50
        for text in GOLDEN_CORPUS:
            first = parse_expr(text)
            assert first is parse_expr(to_text(first)), text

        rng = np.random.default_rng(11)
        h = 1e-6
        for _ in range(50):
            text = random_expr(rng, depth=4)
            expr = parse_expr(text)
            from defectgeo.expressions import differentiate

            for var in ("x", "y", "z"):
                d = differentiate(expr, var)
                for _ in range(5):
                    x, y, z = rng.uniform(-1, 1, 3)
                    args = {"x": x, "y": y, "z": z}
                    hi = dict(args, **{var: args[var] + h})
                    lo = dict(args, **{var: args[var] - h})
                    fd = (
                        evaluate(expr, hi["x"], hi["y"], hi["z"], 0.0)
                        - evaluate(expr, lo["x"], lo["y"], lo["z"], 0.0)
                    ) / (2 * h)
                    sym = evaluate(d, x, y, z, 0.0)
                    assert abs(sym - fd) <= 1e-6 * max(1.0, abs(fd)), text

        fixtures = [("2*+x", 2), ("(1+2", 4), ("sin x", 4), ("x^y", 2), ("foo(1)", 0)]
        for text, offset in fixtures:
            with pytest.raises(ParseError) as err:
                parse_expr(text)
            assert err.value.offset == offset, text
            assert 0 <= err.value.offset <= len(text)


def test_criterion_12_cli_determinism(tmp_path):
    with criterion(12, "byte-identical deterministic reports on the reference scenarios"):
        for command, scenario in (
            ("kinematics", "beltrami.toml"),
            ("elastic", "dilation.toml"),
            ("energy", "energy_linear_rho.toml"),
        ):
            digests = []
            for run_idx in range(2):
                out = tmp_path / f"{scenario}.{run_idx}.json"
                cli_main(
                    [
                        command,
                        str(SCENARIOS / scenario),
                        "--deterministic",
                        "--json",
                        str(out),
                    ]
                )
                digests.append(out.read_bytes())
            assert digests[0] == digests[1], (command, scenario)
