"""One-walk reductions: grouped batches, residual tables and the determinant floor."""

import numpy as np
import pytest

from defectgeo import sampling
from defectgeo.errors import SingularTriad
from defectgeo.fields import Point, scalar_field, symbolic
from defectgeo.geometry import CoFrame
from defectgeo.sampling import batch_components, batch_groups, normalized_residuals, sample_points

from util import random_defects, random_form_field, random_scalar_field, two_walk_normalized_residual


def test_batch_groups_equals_per_group_batches():
    rng = np.random.default_rng(3)
    points = sample_points(17, seed=4)
    d = random_defects(rng)
    groups = [
        [d.burgers, d.scalar],
        [],
        [random_form_field(rng, 2), random_form_field(rng, 3), d.frank],
        [scalar_field(2.5)],
        [d.point],
    ]
    got = batch_groups(groups, points)
    assert len(got) == len(groups)
    for group, values in zip(groups, got):
        want = batch_components(group, points) if group else np.empty((0, len(points)))
        assert values.shape == want.shape
        assert np.array_equal(values, want)
    assert [g.shape for g in batch_groups([[], []], points)] == [(0, 17), (0, 17)]


def test_normalized_residuals_equal_the_two_walk_reference():
    rng = np.random.default_rng(8)
    points = sample_points(25, seed=9)
    d = random_defects(rng)
    pairs = [
        ([d.burgers - d.frank], [d.burgers, d.scalar]),
        ([d.point, random_form_field(rng, 2)], []),
        ([d.scalar * d.scalar], [d.frank]),
        ([d.burgers - d.frank], [d.burgers, d.scalar]),
        ([random_form_field(rng, 3, amplitude=1e-3)], [d.point, d.burgers]),
    ]
    got = normalized_residuals(pairs, points)
    assert got == [two_walk_normalized_residual(res, ref, points) for res, ref in pairs]
    assert sampling.normalized_residual(*pairs[2], points) == got[2]


def test_require_nonsingular_names_the_smallest_determinant():
    points = sample_points(20, seed=1)
    det = symbolic(0, "x*1e-9")
    worst = min(points, key=lambda p: abs(p.x))
    with pytest.raises(SingularTriad) as err:
        sampling.require_nonsingular(det, points, SingularTriad, "probe")
    assert str(err.value) == f"probe determinant {worst.x * 1e-9:.3e} below 1e-08 at {worst}"
    sampling.require_nonsingular(symbolic(0, "1+x^2"), points, SingularTriad, "probe")
    sampling.require_nonsingular(det, [], SingularTriad, "probe")


def test_coframe_validation_uses_the_shared_floor():
    e = CoFrame([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "x"]])
    points = sample_points(10, seed=2) + [Point(0.0, 0.5, 0.5)]
    with pytest.raises(SingularTriad, match=r"coframe triad determinant 0\.000e\+00 below 1e-08 at"):
        e.validate(points)
