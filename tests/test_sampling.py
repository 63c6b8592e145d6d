"""One-walk reductions: grouped batches, residual tables and the determinant floor."""

import numpy as np
import pytest

from defectgeo import sampling
from defectgeo.errors import SingularTriad
from defectgeo.fields import Point, scalar_field, symbolic
from defectgeo.geometry import CoFrame
from defectgeo.sampling import batch_components, batch_groups, normalized_residuals, sample_points

from util import point_array, random_defects, random_form_field, two_walk_normalized_residual


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


def _grid_point_list(lo, hi, n, midpoints=False):
    """Every node (or cell centre) of the n^3 grid on [lo, hi]^3 as a Point list, in `ij` order."""
    if midpoints:
        edges = np.linspace(lo, hi, n + 1)
        axis = 0.5 * (edges[:-1] + edges[1:])
    else:
        axis = np.linspace(lo, hi, n)
    X, Y, Z = np.meshgrid(axis, axis, axis, indexing="ij")
    return [Point(float(x), float(y), float(z)) for x, y, z in zip(X.ravel(), Y.ravel(), Z.ravel())]


def test_point_set_constructors_match_point_lists():
    rows = np.random.default_rng(4).uniform(-1.0, 1.0, size=(17, 3))
    want = point_array(*(Point(float(x), float(y), float(z)) for x, y, z in rows))
    got = sample_points(17, seed=4)
    assert got.dtype == float and got.shape == (17, 4) and np.array_equal(got, want)

    nodes = _grid_point_list(-0.7, 1.3, 9)
    got = sampling.check_points(-0.7, 1.3, 9)
    assert got.dtype == float and got.shape == (125, 4)
    assert np.array_equal(got, point_array(*nodes[:: len(nodes) // 125][:125]))

    cells = _grid_point_list(-1.0, 1.0, 21, midpoints=True)
    blocks = list(sampling.grid_blocks((-1.0,) * 3, (1.0,) * 3, (21,) * 3, midpoints=True))
    assert [len(b) for b in blocks] == [sampling.BLOCK, 21**3 - sampling.BLOCK]
    assert all(b.dtype == float and b.shape[1] == 4 for b in blocks)
    assert np.array_equal(np.vstack(blocks), point_array(*cells))


def test_require_nonsingular_names_the_smallest_determinant():
    points = sample_points(20, seed=1)
    det = symbolic(0, "x*1e-9")
    worst = Point(*min(points.tolist(), key=lambda p: abs(p[0])))
    with pytest.raises(SingularTriad) as err:
        sampling.require_nonsingular(det, points, SingularTriad, "probe")
    assert str(err.value) == f"probe determinant {worst.x * 1e-9:.3e} below 1e-08 at {worst}"
    sampling.require_nonsingular(symbolic(0, "1+x^2"), points, SingularTriad, "probe")
    sampling.require_nonsingular(det, point_array(), SingularTriad, "probe")


def test_coframe_validation_uses_the_shared_floor():
    e = CoFrame([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "x"]])
    points = np.vstack([sample_points(10, seed=2), point_array(Point(0.0, 0.5, 0.5))])
    with pytest.raises(SingularTriad, match=r"coframe triad determinant 0\.000e\+00 below 1e-08 at"):
        e.validate(points)
