"""Sign tables of the exterior algebra on oriented Euclidean 3-space, and
KForm, the value of a form field at evaluated points.

The tables drive the field algebra (fields.wedge, hodge, interior and the
exterior derivative).  Component ordering is lexicographic in the frame
indices and is FROZEN; every other module relies on it:

    degree 0:  ()              1 component
    degree 1:  (1) (2) (3)     3 components
    degree 2:  (12) (13) (23)  3 components
    degree 3:  (123)           1 component

The frame is orthonormal with orientation fixed by eps_123 = +1, so the
Hodge images of the basis forms are

    *1 = e^123,  *e^1 = e^23,  *e^2 = -e^13,  *e^3 = e^12,

and frame indices are raised and lowered freely (the metric is the
identity).  KForm components may be floats or equally shaped numpy
arrays; its linear operations broadcast componentwise.
"""

from __future__ import annotations

import itertools

import numpy as np

FRAME_INDICES = (1, 2, 3)

#: number of components per degree: C(3, p)
COMPONENT_COUNTS = (1, 3, 3, 1)

#: basis index tuples per degree, lexicographic
BASIS = tuple(tuple(itertools.combinations(FRAME_INDICES, p)) for p in range(4))

_SLOT = tuple({idx: i for i, idx in enumerate(BASIS[p])} for p in range(4))


def _merge(a, b):
    """Sign and sorted union of two disjoint index tuples, or None if they overlap."""
    if set(a) & set(b):
        return None
    merged = a + b
    # parity of the permutation sorting `merged`
    sign = 1
    items = list(merged)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[i] > items[j]:
                sign = -sign
    return sign, tuple(sorted(merged))


def _build_wedge_tables():
    tables = {}
    for p in range(4):
        for q in range(4 - p):
            terms = []
            for i, a_idx in enumerate(BASIS[p]):
                for j, b_idx in enumerate(BASIS[q]):
                    m = _merge(a_idx, b_idx)
                    if m is None:
                        continue
                    sign, merged = m
                    terms.append((i, j, _SLOT[p + q][merged], float(sign)))
            tables[(p, q)] = tuple(terms)
    return tables


def _build_hodge_tables():
    tables = []
    for p in range(4):
        terms = []
        for i, idx in enumerate(BASIS[p]):
            comp = tuple(k for k in FRAME_INDICES if k not in idx)
            sign, merged = _merge(idx, comp)
            assert merged == (1, 2, 3)
            terms.append((i, _SLOT[3 - p][comp], float(sign)))
        tables.append(tuple(terms))
    return tuple(tables)


def _build_interior_tables():
    tables = {}
    for a in FRAME_INDICES:
        per_degree = []
        for p in range(4):
            terms = []
            for i, idx in enumerate(BASIS[p]):
                if a not in idx:
                    continue
                pos = idx.index(a)
                rest = idx[:pos] + idx[pos + 1:]
                terms.append((i, _SLOT[p - 1][rest], float((-1.0) ** pos)))
            per_degree.append(tuple(terms))
        tables[a] = tuple(per_degree)
    return tables


#: (p, q) -> tuple of (i, j, k, sign): out[k] += sign * a[i] * b[j]
WEDGE_TERMS = _build_wedge_tables()
#: p -> tuple of (i, k, sign): out[k] += sign * a[i]
HODGE_TERMS = _build_hodge_tables()
#: frame index -> degree -> tuple of (i, k, sign)
INTERIOR_TERMS = _build_interior_tables()


class KForm:
    """The components of a degree-p form, p in {0,1,2,3}, at a point or on an array of points."""

    __slots__ = ("degree", "components")

    def __init__(self, degree, components):
        if degree not in (0, 1, 2, 3):
            raise ValueError(f"degree must be in 0..3, got {degree}")
        comps = np.asarray(components, dtype=float)
        if comps.ndim < 1 or comps.shape[0] != COMPONENT_COUNTS[degree]:
            raise ValueError(
                f"degree-{degree} form needs {COMPONENT_COUNTS[degree]} components, got shape {comps.shape}"
            )
        self.degree = degree
        self.components = comps

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, degree):
        return cls(degree, np.zeros(COMPONENT_COUNTS[degree]))

    @classmethod
    def scalar(cls, value):
        return cls(0, np.asarray([value], dtype=float))

    @classmethod
    def basis(cls, *indices):
        """Basis form e^{i1...ip} for strictly increasing indices, e.g. basis(1, 3)."""
        idx = tuple(indices)
        p = len(idx)
        if idx not in BASIS[p]:
            raise ValueError(f"indices must be strictly increasing frame indices, got {idx}")
        comps = np.zeros(COMPONENT_COUNTS[p])
        comps[_SLOT[p][idx]] = 1.0
        return cls(p, comps)

    @classmethod
    def volume(cls, coefficient=1.0):
        return cls(3, np.asarray([coefficient], dtype=float))

    # ---- linear structure ---------------------------------------------

    def __add__(self, other):
        if not isinstance(other, KForm):
            return NotImplemented
        if other.degree != self.degree:
            raise ValueError(f"cannot add degree {self.degree} and degree {other.degree}")
        return KForm(self.degree, self.components + other.components)

    def __sub__(self, other):
        if not isinstance(other, KForm):
            return NotImplemented
        if other.degree != self.degree:
            raise ValueError(f"cannot subtract degree {other.degree} from degree {self.degree}")
        return KForm(self.degree, self.components - other.components)

    def __neg__(self):
        return KForm(self.degree, -self.components)

    def __mul__(self, scalar):
        return KForm(self.degree, self.components * scalar)

    __rmul__ = __mul__

    # ---- helpers --------------------------------------------------------

    def allclose(self, other, tol=1e-12):
        return self.degree == other.degree and bool(
            np.all(np.abs(self.components - other.components) <= tol)
        )

    def max_abs(self):
        return float(np.max(np.abs(self.components)))

    def __repr__(self):
        if self.degree == 0:
            return f"KForm(0, {self.components[0]!r})"
        labels = ["".join(map(str, idx)) for idx in BASIS[self.degree]]
        body = ", ".join(f"e^{lab}: {c!r}" for lab, c in zip(labels, self.components))
        return f"KForm({self.degree}, {{{body}}})"

