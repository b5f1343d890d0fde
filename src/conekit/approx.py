"""Subdivision candidates from a lattice-cube approximation.

Instead of solving an integer program, the simplex is enclosed in an
overcone spanned by small lattice vectors: around every vertex of the
degree-`level` cross-section we take the vertices of the minimal face of
the staircase (braid-arrangement) triangulation of its surrounding unit
cube.  The overcone is cheap to evaluate; its fundamental-domain points
falling inside the original simplex and strictly below generator height
are returned as subdivision candidates.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor

import numpy as np

from . import linalg as la
from .collect import as_rows, support_values
from .cone import SimplicialCone, dual_description, make_simplicial_cone
from .errors import DomainError, InternalConsistencyError
from .linalg import IntVec
from .simplex import hb_candidates


def cross_section(s: SimplicialCone,
                  level: int = 1) -> tuple[tuple[Fraction, ...], ...]:
    """Rational vertices of the simplex sliced at height `level`."""
    if level < 1:
        raise DomainError("approximation level must be positive")
    h = s.gen_height
    return tuple(tuple(Fraction(level * x, h) for x in g) for g in s.gens)


def minimal_cube_face_vertices(v) -> tuple[IntVec, ...]:
    """Vertices of the minimal staircase-triangulation face containing v.

    The unit cube at floor(v) is triangulated by the hyperplanes
    {x_i = x_j}; sorting the fractional parts descending gives the
    staircase chain w_0 = floor(v), w_k = w_{k-1} + e_(k-th largest).
    Vertices whose barycentric weight vanishes (ties, zero fractional
    parts) are dropped, so a lattice point returns just itself.
    """
    v = tuple(Fraction(x) for x in v)
    d = len(v)
    base = tuple(floor(x) for x in v)
    frac = [x - b for x, b in zip(v, base)]
    order = sorted(range(d), key=lambda i: (-frac[i], i))
    lambdas = [1 - (frac[order[0]] if d else 0)]
    for k in range(1, d):
        lambdas.append(frac[order[k - 1]] - frac[order[k]])
    if d:
        lambdas.append(frac[order[-1]])
    out = []
    w = list(base)
    if lambdas[0] > 0:
        out.append(tuple(w))
    for k in range(1, d + 1):
        w[order[k - 1]] += 1
        if lambdas[k] > 0:
            out.append(tuple(w))
    return tuple(out)


def approximate_cone(s: SimplicialCone, level: int = 1) -> tuple[IntVec, ...]:
    """Generators of an overcone: the cube-face vertices of all
    cross-section vertices, in order of first appearance.

    Each vertex is a convex combination of its cube-face vertices, so
    the overcone contains the simplex; approx_candidates verifies that
    exactly.
    """
    gens: list[IntVec] = []
    seen = set()
    for v in cross_section(s, level):
        for w in minimal_cube_face_vertices(v):
            if any(w) and w not in seen:
                seen.add(w)
                gens.append(w)
    return tuple(gens)


def approx_candidates(s: SimplicialCone, level: int = 1) -> tuple[IntVec, ...]:
    """Subdivision candidates found through the overcone, sorted.

    Evaluates the overcone's placing triangulation (without further
    subdivision) and returns its distinct points that lie in the simplex
    strictly below generator height.  A unimodular overcone simplex adds
    only its generators, which are overcone generators already.  Empty
    output means the approximation found nothing at this level; it is
    also the result when an overcone simplex is at least as big as the
    simplex itself, in which case approximating cannot pay off.

    The facet forms sum to (det/h)·N for the height normal N and the
    generator height h, so N·x < h says that x's aux degree, the sum of
    its facet values, is below det; aux > 0 excludes the zero vector.
    The candidates are not reduced to their minimal elements: only the
    lowest one is used, and it is minimal anyway.  A candidate y that
    reduces x has facet values dominated by x's and aux(y) < aux(x), so
    N·y < N·x.  best_candidate therefore picks the same point from both
    sets, and they are empty together.
    """
    over = approximate_cone(s, level)
    forms, tri = dual_description(over, want_triangulation=True)
    if any(la.dot(f, g) < 0 for f in forms for g in s.gens):
        raise InternalConsistencyError("approximation is not an overcone")
    blocks = [as_rows(over)]
    for idx in tri:
        sub = make_simplicial_cone(tuple(over[i] for i in idx))
        if sub.det >= max(2, s.det):
            return ()
        if sub.det > 1:
            blocks.append(hb_candidates(sub))
    cands = np.vstack(blocks)
    vals = support_values(cands, s.facet_forms)
    aux = vals.sum(axis=1)
    keep = np.all(vals >= 0, axis=1) & (aux > 0) & (aux < s.det)
    return tuple(sorted({tuple(int(x) for x in row) for row in cands[keep]}))


def best_candidate(s: SimplicialCone, cands) -> IntVec | None:
    """Deterministic pick: lowest height, ties broken lexicographically."""
    if not cands:
        return None
    normal = s.height_normal
    return min(cands, key=lambda x: (la.dot(normal, x), x))
