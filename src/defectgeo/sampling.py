"""Point sampling, residual norms, and quadrature grids."""

from __future__ import annotations

import numpy as np

from .fields import Point, evaluate_fields


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


def max_abs(fields, points) -> float:
    return float(np.max(np.abs(batch_components(fields, points)), initial=0.0))


def normalized_residual(residual_fields, reference_fields, points) -> float:
    """max_p max|residual(p)| / (1 + max|reference(p)|), the standard residual scale."""
    res = np.abs(batch_components(residual_fields, points))
    if reference_fields:
        ref = np.abs(batch_components(reference_fields, points))
        scale = 1.0 + ref.max(axis=0)
    else:
        scale = 1.0
    return float(np.max(res.max(axis=0) / scale))


def grid_points(bounds_min, bounds_max, counts, t=0.0, midpoints=False):
    """Axis-aligned grid; `midpoints=True` gives cell centres (midpoint quadrature)."""
    axes = []
    for lo, hi, n in zip(bounds_min, bounds_max, counts):
        if midpoints:
            edges = np.linspace(lo, hi, n + 1)
            axes.append(0.5 * (edges[:-1] + edges[1:]))
        else:
            axes.append(np.linspace(lo, hi, n))
    X, Y, Z = np.meshgrid(*axes, indexing="ij")
    return X.ravel(), Y.ravel(), Z.ravel(), np.full(X.size, t)

