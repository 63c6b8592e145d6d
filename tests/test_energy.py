"""Free-energy representations, coupling map, invariants, and quadrature."""

import numpy as np
import pytest

from defectgeo.defects import DefectFields, reconstruct_defect_geometry
from defectgeo.energy import (
    Couplings,
    dislocation_energy_coefficient,
    lagrangian_form,
    lagrangian_vector,
    map_couplings,
    quadratic_invariants,
    total_free_energy,
    total_free_energy_estimate,
)
from defectgeo.elasticity import MaterialConstants
from defectgeo.errors import InvalidMaterial
from defectgeo.fields import Point, scalar_field, symbolic, wedge, zero_field
from defectgeo.geometry import CoFrame
from defectgeo.sampling import normalized_residual, sample_points

from util import flat_cross, flat_dot, flat_vector, random_defects

rng = np.random.default_rng(909)
PTS = sample_points(30, seed=60)
E = CoFrame.identity()


def zero_defects():
    return DefectFields(zero_field(1), zero_field(1), zero_field(1), zero_field(0))


# ---- representations -----------------------------------------------------------


def test_lagrangian_zero_defects():
    L = lagrangian_form(zero_defects(), Couplings(1, 1, 1, 1, 1, 1, 1), E)
    assert L.evaluate(Point(0.5, 0.5, 0.5)).max_abs() == 0.0


def test_unit_burgers_density():
    d = DefectFields(symbolic(1, "1", "0", "0"), zero_field(1), zero_field(1), zero_field(0))
    L = lagrangian_form(d, Couplings(kappa1=1.0), E)
    assert L.evaluate(Point(0, 0, 0)).components[0] == pytest.approx(1.0)


def test_unit_cross_density():
    d = DefectFields(
        symbolic(1, "1", "0", "0"), symbolic(1, "1", "0", "0"), zero_field(1), zero_field(0)
    )
    L = lagrangian_vector(d, Couplings(kappa6=1.0), E)
    assert L.evaluate(Point(0, 0, 0)).components[0] == pytest.approx(1.0)


def test_scalar_density():
    d = DefectFields(zero_field(1), zero_field(1), zero_field(1), scalar_field(2.0))
    L = lagrangian_vector(d, Couplings(kappa2=1.0), E)
    assert L.evaluate(Point(0, 0, 0)).components[0] == pytest.approx(4.0)
    Lf = lagrangian_form(d, Couplings(kappa2=1.0), E)
    assert Lf.evaluate(Point(0, 0, 0)).components[0] == pytest.approx(4.0)


def test_representations_agree_on_random_fields():
    for seed in range(100):
        d = random_defects(np.random.default_rng(seed), amplitude=0.7)
        k = Couplings(*np.random.default_rng(seed + 1).uniform(-2, 2, 7))
        gap = lagrangian_form(d, k, E) - lagrangian_vector(d, k, E)
        p = Point(*np.random.default_rng(seed + 2).uniform(-1, 1, 3))
        scale = 1.0 + abs(lagrangian_form(d, k, E).evaluate(p).components[0])
        assert gap.evaluate(p).max_abs() / scale <= 1e-12


def test_polarization_identity():
    d1 = random_defects(rng)
    d2 = random_defects(rng)
    k = Couplings(0.5, -1.0, 2.0, 0.25, 1.5, -0.75, 1.0)
    plus = DefectFields(d1.burgers + d2.burgers, d1.frank + d2.frank, d1.point + d2.point, d1.scalar + d2.scalar)
    minus = DefectFields(d1.burgers - d2.burgers, d1.frank - d2.frank, d1.point - d2.point, d1.scalar - d2.scalar)
    lhs = lagrangian_vector(plus, k, E) + lagrangian_vector(minus, k, E)
    rhs = (lagrangian_vector(d1, k, E) + lagrangian_vector(d2, k, E)) * 2.0
    assert normalized_residual([lhs - rhs], [rhs], PTS) <= 1e-12


def _triple_form(d):
    """The parity-odd triple term b ^ O ^ m, which no coupling of the model has."""
    return wedge(wedge(d.burgers, d.frank), d.point)


def _triple_vector(d):
    """(b x O) . m *1, the vector representation of `_triple_form`."""
    b, O, m = (flat_vector(f) for f in (d.burgers, d.frank, d.point))
    return flat_dot(flat_cross(b, O), m) * E.volume()


def test_parity_of_quadratic_and_triple_terms():
    # reflect through the x-plane: covector components flip their x entry;
    # the textual x -> (-x) substitution is safe because the generated
    # components are plain polynomials with no function names
    def reflect(d):
        def flip(f):
            flipped = [
                "-1*(" + _sub(f.comps[0]) + ")",
                _sub(f.comps[1]),
                _sub(f.comps[2]),
            ]
            return symbolic(1, *flipped)

        def _sub(expr):
            from defectgeo.expressions import to_text

            return to_text(expr).replace("x", "(-x)")

        return DefectFields(
            flip(d.burgers), flip(d.frank), flip(d.point),
            symbolic(0, _sub(d.scalar.comps[0])),
        )

    d = random_defects(np.random.default_rng(77), amplitude=0.5)
    mirrored = reflect(d)
    k = Couplings(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    for x, y, z, t in sample_points(10, seed=3).tolist():
        p, q = Point(x, y, z, t), Point(-x, y, z, t)
        quad = lagrangian_vector(d, k, E).evaluate(q).components[0]
        quad_m = lagrangian_vector(mirrored, k, E).evaluate(p).components[0]
        assert quad_m == pytest.approx(quad, rel=1e-10, abs=1e-12)
        triple = _triple_vector(d).evaluate(q).components[0]
        triple_m = _triple_vector(mirrored).evaluate(p).components[0]
        assert triple_m == pytest.approx(-triple, rel=1e-10, abs=1e-12)


def test_parity_term_in_both_representations():
    d = random_defects(rng)
    gap = _triple_form(d) - _triple_vector(d)
    assert normalized_residual([gap], [_triple_form(d)], PTS) <= 1e-12


# ---- coupling map -------------------------------------------------------------------


def test_coupling_map_first_column():
    m = map_couplings(Couplings(kappa1=1.0))
    assert (m.k1, m.k2, m.k3) == (1.0, 0.0, -1.0)
    assert (m.c1, m.c2, m.c3, m.c4, m.c5) == (0.0, 0.0, 0.0, 0.0, 0.0)
    assert (m.l1, m.l2, m.l3) == (0.0, 0.0, 0.0)


def test_coupling_map_third_column():
    m = map_couplings(Couplings(kappa3=1.0))
    assert m.c1 == 1.0 and m.c3 == -1.0
    assert m.c4 == pytest.approx(-5.0 / 9.0)
    assert m.c5 == pytest.approx(2.0 / 3.0)
    assert m.k1 == m.k2 == m.k3 == 0.0


def test_coupling_map_sixth_column():
    m = map_couplings(Couplings(kappa6=1.0))
    assert m.l1 == -1.0
    assert m.l2 == pytest.approx(-2.0 / 3.0)
    assert m.l3 == 1.0


def test_coupling_map_is_linear_with_exact_rational_entries():
    k_a = Couplings(1.0, 2.0, -1.0, 0.5, 3.0, -2.0, 0.25)
    k_b = Couplings(-0.5, 1.0, 2.0, 1.5, -1.0, 0.75, 2.0)

    def as_vec(m):
        return np.array([m.k1, m.k2, m.k3, m.c1, m.c2, m.c3, m.c4, m.c5, m.l1, m.l2, m.l3])

    summed = Couplings(*(np.array(
        [k_a.kappa1 + k_b.kappa1, k_a.kappa2 + k_b.kappa2, k_a.kappa3 + k_b.kappa3,
         k_a.kappa4 + k_b.kappa4, k_a.kappa5 + k_b.kappa5, k_a.kappa6 + k_b.kappa6,
         k_a.kappa7 + k_b.kappa7]
    )))
    assert np.allclose(as_vec(map_couplings(summed)), as_vec(map_couplings(k_a)) + as_vec(map_couplings(k_b)), atol=1e-15)
    assert map_couplings(Couplings(kappa4=1.0)).c4 == 1.0
    assert map_couplings(Couplings(kappa5=1.0)).c4 == pytest.approx(2.0 / 3.0)
    assert map_couplings(Couplings(kappa5=1.0)).c5 == -1.0
    assert map_couplings(Couplings(kappa7=1.0)).l2 == -1.0
    assert map_couplings(Couplings(kappa2=1.0)).k2 == 1.0


# ---- quadratic invariants -------------------------------------------------------------


def test_invariants_zero_fields():
    from defectgeo.geometry import TensorFormField

    rep = quadratic_invariants(
        TensorFormField.zero(("u",), 2), TensorFormField.zero(("d", "d"), 1), E, PTS
    )
    assert len(rep) == 6
    for value in rep.values():
        assert value == 0.0


def test_invariants_pure_trace_torsion():
    d = DefectFields(symbolic(1, "1", "0", "0"), zero_field(1), zero_field(1), zero_field(0))
    T, Q = reconstruct_defect_geometry(d, E)
    assert quadratic_invariants(T, Q, E, PTS)["torsion-trace"] <= 1e-12
    # both sides equal the unit volume form for a unit trace covector
    from defectgeo.defects import torsion_traces
    from defectgeo.fields import hodge, wedge

    trace, _ = torsion_traces(T, E)
    both = wedge(trace, hodge(trace))
    assert both.evaluate(Point(0.2, -0.4, 0.9)).components[0] == pytest.approx(1.0, abs=1e-12)


def test_invariants_pure_trace_nonmetricity():
    d = DefectFields(zero_field(1), zero_field(1), symbolic(1, "1", "0", "0"), zero_field(0))
    T, Q = reconstruct_defect_geometry(d, E)
    assert quadratic_invariants(T, Q, E, PTS)["frank-point"] <= 1e-12


def test_asserted_invariants_hold_on_random_ansatz():
    d = random_defects(rng)
    T, Q = reconstruct_defect_geometry(d, E)
    rep = quadratic_invariants(T, Q, E, PTS)
    for name in ("torsion-trace", "torsion-scalar", "frank-point", "burgers-point"):
        assert rep[name] <= 1e-12
    # the two expansions with an ambiguous two-index coframe factor are only reported
    for name in ("frank-square", "burgers-frank"):
        assert np.isfinite(rep[name])


# ---- dislocation energy coefficients -----------------------------------------------------


def _material(nu=0.3):
    return MaterialConstants(shear_modulus=4 * np.pi, poisson=nu, r_outer=np.e, r_core=1.0)


def test_screw_coefficient_unit_case():
    assert dislocation_energy_coefficient("screw", _material()) == pytest.approx(1.0)


def test_edge_screw_ratio():
    for nu in (0.05, 0.2, 0.3, 0.45):
        mat = _material(nu)
        edge = dislocation_energy_coefficient("edge", mat)
        screw = dislocation_energy_coefficient("screw", mat)
        assert edge / screw == pytest.approx(1.0 / (1.0 - nu), rel=1e-12)
        assert edge > screw


def test_energy_coefficient_validation():
    with pytest.raises(InvalidMaterial):
        dislocation_energy_coefficient("screw", MaterialConstants(shear_modulus=1.0))
    with pytest.raises(ValueError):
        dislocation_energy_coefficient("mixed", _material())
    # the incompressible limit nu = 0.5 is outside the admissible open range
    with pytest.raises(InvalidMaterial):
        MaterialConstants(shear_modulus=1.0, poisson=0.5, r_outer=2.0, r_core=1.0)


# ---- quadrature -----------------------------------------------------------------------


def test_total_energy_zero():
    assert total_free_energy(zero_defects(), Couplings(kappa1=1.0), (-1,) * 3, (1,) * 3, 32, E) == 0.0


def test_total_energy_constant_integrand():
    d = DefectFields(symbolic(1, "1", "0", "0"), zero_field(1), zero_field(1), zero_field(0))
    val = total_free_energy(d, Couplings(kappa1=1.0), (0, 0, 0), (1, 1, 1), 8, E)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_total_energy_quadratic_integrand():
    d = DefectFields(zero_field(1), zero_field(1), zero_field(1), symbolic(0, "x"))
    est = total_free_energy_estimate(d, Couplings(kappa2=1.0), (0, 0, 0), (1, 1, 1), 32, E)
    third = 1.0 / 3.0
    assert abs(est.coarse - third) <= 0.01 * third
    assert abs(est.fine - third) <= 0.01 * third
    assert abs(est.extrapolated - third) <= 1e-6
    assert est.error_estimate <= 0.01 * third
    # Richardson estimate brackets the true coarse-grid error direction
    assert abs(est.fine - third) < abs(est.coarse - third)


def test_total_energy_resolution_validation():
    with pytest.raises(ValueError, match="at least 2 cells"):
        total_free_energy(zero_defects(), Couplings(), (-1,) * 3, (1,) * 3, resolution=1, e=E)


@pytest.mark.parametrize("resolution", [2.9, 4.0, "8"])
def test_total_energy_rejects_a_non_integral_resolution(resolution):
    d = random_defects(np.random.default_rng(5))
    with pytest.raises(ValueError, match="resolution must be at least 1 per axis and integral"):
        total_free_energy(d, Couplings(kappa1=1.0), (-1,) * 3, (1,) * 3, resolution, E)
    with pytest.raises(ValueError, match="resolution"):
        total_free_energy_estimate(d, Couplings(kappa1=1.0), (-1,) * 3, (1,) * 3, resolution, E)
