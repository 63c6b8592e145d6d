"""Exhaustive basis-level checks of the exterior algebra on constant fields.

Every operation under test is the field algebra that the program runs
(fields.wedge, hodge, interior, substitute_basis); its operands are
constant fields of basis forms, and results are compared as KForm values.
"""


import numpy as np
import pytest
from hypothesis import given, strategies as st

from defectgeo.errors import DegreeOverflow
from defectgeo.fields import (
    Point,
    SymbolicFormField,
    constant_field,
    hodge,
    interior,
    matrix_of_scalar_fields,
    substitute_basis,
    wedge,
    zero_field,
)
from defectgeo.forms import COMPONENT_COUNTS, KForm

from util import all_basis_forms, oracle_wedge

rng = np.random.default_rng(42)


def components(degree):
    return st.lists(
        st.floats(-10, 10, allow_nan=False, allow_infinity=False),
        min_size=COMPONENT_COUNTS[degree],
        max_size=COMPONENT_COUNTS[degree],
    )


def field(*indices):
    return constant_field(KForm.basis(*indices))


def at(f):
    """The value of a constant field."""
    return f.evaluate(Point(0.0, 0.0, 0.0))


def basis_fields():
    return [constant_field(b) for b in all_basis_forms()]


def test_wedge_basis_example():
    assert at(wedge(field(1), field(2))).allclose(KForm.basis(1, 2))


def test_wedge_bilinearity_example():
    a = field(1) + field(2)
    b = field(1) - field(2)
    assert at(wedge(a, b)).allclose(-2.0 * KForm.basis(1, 2))


def test_wedge_against_brute_force_expansion():
    for _ in range(50):
        alpha = KForm(1, rng.uniform(-1, 1, 3))
        beta = KForm(2, rng.uniform(-1, 1, 3))
        fa, fb = constant_field(alpha), constant_field(beta)
        assert at(wedge(fa, fb)).allclose(oracle_wedge(alpha, beta))
        assert at(wedge(fa, fb)).allclose(at(wedge(fb, fa)))


def test_wedge_graded_commutativity_exhaustive():
    for a in basis_fields():
        for b in basis_fields():
            if a.degree + b.degree > 3:
                continue
            sign = (-1.0) ** (a.degree * b.degree)
            assert at(wedge(a, b)).allclose(sign * at(wedge(b, a)))
            assert at(wedge(a, b)).allclose(oracle_wedge(at(a), at(b)))


def test_wedge_degree_overflow():
    with pytest.raises(DegreeOverflow, match="wedge of degrees 2 and 2 exceeds 3"):
        wedge(field(1, 2), field(1, 3))
    with pytest.raises(DegreeOverflow, match="wedge of degrees 3 and 1 exceeds 3"):
        wedge(field(1, 2, 3), field(1))


def test_hodge_table():
    assert at(hodge(field())).allclose(KForm.basis(1, 2, 3))
    assert at(hodge(field(1))).allclose(KForm.basis(2, 3))
    assert at(hodge(field(2))).allclose(-1.0 * KForm.basis(1, 3))
    assert at(hodge(field(3))).allclose(KForm.basis(1, 2))
    assert at(hodge(field(1, 2, 3))).allclose(KForm.scalar(1.0))


def test_hodge_involution_exhaustive():
    for b in basis_fields():
        assert at(hodge(hodge(b))).allclose(at(b))


def test_interior_duality():
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            got = at(interior(a, field(b)))
            expected = KForm.scalar(1.0 if a == b else 0.0)
            assert got.allclose(expected)


def test_interior_examples():
    assert at(interior(1, wedge(field(1), field(2)))).allclose(KForm.basis(2))
    assert at(interior(1, constant_field(KForm.scalar(5.0)))).allclose(KForm.scalar(0.0))
    assert at(interior(2, field(1, 2))).allclose(-1.0 * KForm.basis(1))


def test_interior_nilpotency_exhaustive():
    for a in (1, 2, 3):
        for b in basis_fields():
            twice = interior(a, interior(a, b)) if b.degree >= 1 else interior(a, b)
            assert float(np.max(np.abs(at(twice).components))) == 0.0


def test_interior_graded_leibniz_exhaustive():
    # the (i_a 0-form) terms vanish identically, so only degree >= 1 slots contribute
    for a in (1, 2, 3):
        for alpha in basis_fields():
            for beta in basis_fields():
                if alpha.degree + beta.degree > 3 or alpha.degree + beta.degree == 0:
                    continue
                lhs = interior(a, wedge(alpha, beta))
                out_degree = alpha.degree + beta.degree - 1
                rhs = zero_field(out_degree)
                if alpha.degree >= 1:
                    rhs = rhs + wedge(interior(a, alpha), beta)
                if beta.degree >= 1:
                    rhs = rhs + ((-1.0) ** alpha.degree) * wedge(alpha, interior(a, beta))
                assert at(lhs).allclose(at(rhs)), (a, alpha, beta)


def test_interior_degree_counting():
    # sum_a e^a ^ i_a alpha = p * alpha, brute force over random forms
    for p in range(1, 4):
        alpha = KForm(p, rng.uniform(-1, 1, COMPONENT_COUNTS[p]))
        acc = zero_field(p)
        for a in (1, 2, 3):
            acc = acc + wedge(field(a), interior(a, constant_field(alpha)))
        assert at(acc).allclose(p * alpha)
    scalar = constant_field(KForm.scalar(3.0))
    for a in (1, 2, 3):
        assert at(interior(a, scalar)).allclose(KForm.scalar(0.0))


def test_interior_rejects_bad_index():
    with pytest.raises(ValueError):
        interior(0, field(1))
    with pytest.raises(ValueError):
        interior(4, field(1))


@given(components(1), components(1), st.floats(-5, 5, allow_nan=False, allow_infinity=False))
def test_wedge_linearity(a, b, s):
    beta = constant_field(KForm(2, [1.0, -2.0, 0.5]))
    fa, fb = constant_field(KForm(1, a)), constant_field(KForm(1, b))
    lhs = wedge(fa * s + fb, beta)
    rhs = wedge(fa, beta) * s + wedge(fb, beta)
    assert at(lhs).allclose(at(rhs), tol=1e-9)


@given(components(2), st.floats(-5, 5, allow_nan=False, allow_infinity=False))
def test_hodge_and_interior_linearity(a, s):
    alpha = constant_field(KForm(2, a))
    assert at(hodge(alpha * s)).allclose(at(hodge(alpha) * s), tol=1e-9)
    for idx in (1, 2, 3):
        assert at(interior(idx, alpha * s)).allclose(at(interior(idx, alpha) * s), tol=1e-9)


def test_addition_requires_matching_degree():
    with pytest.raises(ValueError):
        field(1) + field(1, 2)
    with pytest.raises(ValueError):
        KForm.basis(1) + KForm.basis(1, 2)


def test_component_count_validation():
    with pytest.raises(ValueError):
        SymbolicFormField(1, [1.0, 2.0])
    with pytest.raises(ValueError):
        KForm(1, [1.0, 2.0])


def test_substitute_identity_and_scaling():
    eye = matrix_of_scalar_fields(np.eye(3))
    for b in basis_fields():
        assert at(substitute_basis(b, eye)).allclose(at(b))
    two = matrix_of_scalar_fields(2.0 * np.eye(3))
    assert at(substitute_basis(field(1), two)).allclose(2.0 * KForm.basis(1))
    assert at(substitute_basis(field(1, 2), two)).allclose(4.0 * KForm.basis(1, 2))
    assert at(substitute_basis(field(1, 2, 3), two)).allclose(8.0 * KForm.volume())
