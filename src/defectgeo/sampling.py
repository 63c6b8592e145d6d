"""Point sets, residual norms, and quadrature grids.

A point set is one float array of shape (n, 4) with rows (x, y, z, t), so
`len(points)` counts its points.  Only this module builds them, all at
t = 0, so their rows are (x, y, z, 0): seeded random points
(`sample_points`), strided grid nodes (`check_points`) and whole grids in
blocks of at most BLOCK rows (`grid_blocks` for nodes, `grid_sum` for a sum
over cell centres).  Every `points` argument takes one, and none has a
default; `fields.Point` is for evaluating a field at one point.
"""

from __future__ import annotations

import numbers

import numpy as np

from .fields import BLOCK, Point, evaluate_fields
from .forms import COMPONENT_COUNTS


def _point_set(xs, ys, zs):
    """Rows (x, y, z, 0), stored column by column so that `points.T` hands the walk contiguous axes."""
    return np.stack((xs, ys, zs, np.zeros(len(xs)))).T


def sample_points(count, seed):
    """`count` uniform random points in [-1, 1]^3 at t = 0."""
    return _point_set(*np.random.default_rng(seed).uniform(-1.0, 1.0, size=(count, 3)).T)


#: most check points: `check_points` strides the grid nodes down to this many
CHECK_POINTS = 125


def check_points(lo, hi, n):
    """Deterministic check points: nodes of the n^3 grid on [lo, hi]^3, strided down to at most CHECK_POINTS."""
    axis = np.linspace(lo, hi, n)
    flat = np.arange(0, n**3, max(1, n**3 // CHECK_POINTS))[:CHECK_POINTS]
    return _point_set(*(axis[i] for i in np.unravel_index(flat, (n,) * 3)))


def batch_components(fields, points):
    """Stack the signed components of several fields at several points: shape (n_values, n_points)."""
    values = [np.atleast_2d(v.components) for v in evaluate_fields(fields, *points.T)]
    return np.vstack([np.empty((0, len(points)))] + values)


def batch_groups(groups, points):
    """`[batch_components(g, points) for g in groups]`, from one walk over all the fields."""
    groups = [list(g) for g in groups]
    fields = [f for g in groups for f in g]
    stacked = batch_components(fields, points)
    bounds = np.cumsum([0] + [sum(COMPONENT_COUNTS[f.degree] for f in g) for g in groups])
    return [stacked[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def max_abs(fields, points) -> float:
    return float(np.max(np.abs(batch_components(fields, points)), initial=0.0))


def normalized_residuals(pairs, points) -> list:
    """`normalized_residual` of each (residual_fields, reference_fields) pair, all from one walk."""
    pairs = [(list(res), list(ref)) for res, ref in pairs]
    blocks = iter(batch_groups([g for pair in pairs for g in pair], points))
    out = []
    for _, ref in pairs:
        res_vals, ref_vals = np.abs(next(blocks)), np.abs(next(blocks))
        scale = 1.0 + ref_vals.max(axis=0) if ref else 1.0
        out.append(float(np.max(res_vals.max(axis=0) / scale)))
    return out


def normalized_residual(residual_fields, reference_fields, points) -> float:
    """max_p max|residual(p)| / (1 + max|reference(p)|), the standard residual scale."""
    return normalized_residuals([(residual_fields, reference_fields)], points)[0]


#: smallest |determinant| accepted for a coframe, gauge or deformation gradient
DET_FLOOR = 1e-8


def require_nonsingular(det, points, error, what):
    """Raise `error` at the point of smallest |det| when that falls below DET_FLOOR."""
    if len(points) == 0:
        return
    vals = batch_components([det], points)[0]
    worst = int(np.argmin(np.abs(vals)))
    if abs(vals[worst]) < DET_FLOOR:
        raise error(f"{what} determinant {vals[worst]:.3e} below {DET_FLOOR} at {Point(*map(float, points[worst]))}")


def _grid_rows(axes, counts, lo, hi):
    """Rows lo..hi-1 of the grid on `axes` in `ij` order, read from the axes by flat index."""
    return _point_set(*(axis[i] for axis, i in zip(axes, np.unravel_index(np.arange(lo, hi), counts))))


def grid_blocks(bounds_min, bounds_max, counts):
    """The nodes of an axis-aligned grid in `ij` order, as point sets of at most BLOCK rows."""
    axes = [np.linspace(lo, hi, n) for lo, hi, n in zip(bounds_min, bounds_max, counts)]
    total = int(np.prod(counts))
    for lo in range(0, total, BLOCK):
        yield _grid_rows(axes, counts, lo, min(lo + BLOCK, total))


def grid_sum(values, bounds_min, bounds_max, counts) -> float:
    """Sum of `values(points)` over a grid's cell centres, at most BLOCK points at a time.

    The index ranges follow numpy's pairwise summation (a range splits after half its
    length rounded down to a multiple of 8; each leaf is one `np.add.reduce`), so the
    sum has the bits of one `np.sum` over every value.
    """
    edges = [np.linspace(lo, hi, n + 1) for lo, hi, n in zip(bounds_min, bounds_max, counts)]
    axes = [0.5 * (e[:-1] + e[1:]) for e in edges]

    def pairwise(lo, hi):
        if hi - lo <= BLOCK:
            return float(np.add.reduce(values(_grid_rows(axes, counts, lo, hi))))
        mid = lo + (hi - lo) // 2 // 8 * 8
        return pairwise(lo, mid) + pairwise(mid, hi)

    return pairwise(0, int(np.prod(counts)))


def grid_counts(name, value, counts):
    """`counts`, or ValueError naming `name` unless each is an integer of at least 1."""
    if not all(isinstance(c, numbers.Integral) and c >= 1 for c in counts):
        raise ValueError(f"{name} must be at least 1 per axis and integral, got {value!r}")
    return counts
