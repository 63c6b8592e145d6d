"""Point sampling, residual norms, and quadrature grids."""

from __future__ import annotations

import numpy as np

from .fields import BLOCK, Point, evaluate_fields
from .forms import COMPONENT_COUNTS


def sample_points(count, bounds=(-1.0, 1.0), seed=0, t=0.0):
    """Uniform random points in bounds^3 at fixed time."""
    rng = np.random.default_rng(seed)
    lo, hi = bounds
    pts = rng.uniform(lo, hi, size=(count, 3))
    return [Point(float(p[0]), float(p[1]), float(p[2]), t) for p in pts]


def _coords(points):
    xs = np.asarray([p.x for p in points])
    ys = np.asarray([p.y for p in points])
    zs = np.asarray([p.z for p in points])
    ts = np.asarray([p.t for p in points])
    return xs, ys, zs, ts


def batch_components(fields, points):
    """Stack |components| of several fields at several points: shape (n_values, n_points)."""
    xs, ys, zs, ts = _coords(points)
    return np.vstack([np.atleast_2d(v.components) for v in evaluate_fields(fields, xs, ys, zs, ts)])


def batch_groups(groups, points):
    """`[batch_components(g, points) for g in groups]`, from one walk over all the fields."""
    groups = [list(g) for g in groups]
    fields = [f for g in groups for f in g]
    stacked = batch_components(fields, points) if fields else np.empty((0, len(points)))
    bounds = np.cumsum([0] + [sum(COMPONENT_COUNTS[f.degree] for f in g) for g in groups])
    return [stacked[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def max_abs(fields, points) -> float:
    return float(np.max(np.abs(batch_components(fields, points)), initial=0.0))


def normalized_residuals(pairs, points, groups=()) -> list:
    """`normalized_residual` of each (residual_fields, reference_fields) pair, then the
    `batch_groups` values of each field group in `groups`, all from one walk."""
    pairs = [(list(res), list(ref)) for res, ref in pairs]
    blocks = iter(batch_groups([g for pair in pairs for g in pair] + list(groups), points))
    out = []
    for _, ref in pairs:
        res_vals, ref_vals = np.abs(next(blocks)), np.abs(next(blocks))
        scale = 1.0 + ref_vals.max(axis=0) if ref else 1.0
        out.append(float(np.max(res_vals.max(axis=0) / scale)))
    return out + list(blocks)


def normalized_residual(residual_fields, reference_fields, points) -> float:
    """max_p max|residual(p)| / (1 + max|reference(p)|), the standard residual scale."""
    return normalized_residuals([(residual_fields, reference_fields)], points)[0]


#: smallest |determinant| accepted for a coframe, gauge or deformation gradient
DET_FLOOR = 1e-8


def require_nonsingular(det, points, error, what):
    """Raise `error` at the point of smallest |det| when that falls below DET_FLOOR."""
    if not points:
        return
    vals = batch_components([det], points)[0]
    worst = int(np.argmin(np.abs(vals)))
    if abs(vals[worst]) < DET_FLOOR:
        raise error(f"{what} determinant {vals[worst]:.3e} below {DET_FLOOR} at {points[worst]}")


def grid_blocks(bounds_min, bounds_max, counts, t=0.0, midpoints=False):
    """Axis-aligned grid in `ij` order, as (xs, ys, zs, ts) blocks of at most BLOCK points.

    `midpoints=True` gives cell centres (midpoint quadrature).  Each block's
    coordinates are read from the axes by flat index, so no array of the
    whole grid is built.
    """
    axes = []
    for lo, hi, n in zip(bounds_min, bounds_max, counts):
        if midpoints:
            edges = np.linspace(lo, hi, n + 1)
            axes.append(0.5 * (edges[:-1] + edges[1:]))
        else:
            axes.append(np.linspace(lo, hi, n))
    total = int(np.prod(counts))
    for lo in range(0, total, BLOCK):
        index = np.unravel_index(np.arange(lo, min(lo + BLOCK, total)), counts)
        xs, ys, zs = (axis[i] for axis, i in zip(axes, index))
        yield xs, ys, zs, np.full(xs.size, t)

