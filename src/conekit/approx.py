"""Subdivision candidates from a lattice-cube approximation.

Instead of solving an integer program, the simplex is enclosed in an
overcone spanned by small lattice vectors: around every vertex of the
degree-`level` cross-section we take the vertices of the minimal face of
the staircase (braid-arrangement) triangulation of its surrounding unit
cube.  The overcone is cheap to evaluate; its fundamental-domain points
falling inside the original simplex and strictly below generator height
are reduced and returned as subdivision candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor

import numpy as np

from . import linalg as la
from .collect import as_rows, reduce_to_hilbert_basis, support_values
from .cone import SimplicialCone, dual_description, make_simplicial_cone
from .errors import DomainError, InternalConsistencyError
from .linalg import IntVec
from .simplex import hb_candidates


@dataclass(frozen=True)
class CrossSection:
    """Rational vertices of the simplex sliced at a given height level."""

    vertices: tuple[tuple[Fraction, ...], ...]
    height_form: IntVec
    level: int


def cross_section(s: SimplicialCone, level: int = 1) -> CrossSection:
    if level < 1:
        raise DomainError("approximation level must be positive")
    h = s.gen_height
    verts = tuple(tuple(Fraction(level * x, h) for x in g) for g in s.gens)
    return CrossSection(vertices=verts, height_form=s.height_normal, level=level)


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

    Containment of the simplex is guaranteed (each vertex is a convex
    combination of its cube-face vertices) and verified exactly.
    """
    cs = cross_section(s, level)
    gens: list[IntVec] = []
    seen = set()
    for v in cs.vertices:
        for w in minimal_cube_face_vertices(v):
            if any(w) and w not in seen:
                seen.add(w)
                gens.append(w)
    forms, _ = dual_description(gens)
    for g in s.gens:
        if any(la.dot(f, g) < 0 for f in forms):
            raise InternalConsistencyError("approximation is not an overcone")
    return tuple(gens)


def approx_candidates(s: SimplicialCone, level: int = 1) -> tuple[IntVec, ...]:
    """Reduced subdivision candidates found through the overcone.

    Evaluates the overcone's placing triangulation (without further
    subdivision), keeps candidates inside the simplex and strictly below
    generator height, and reduces them.  Empty output means the
    approximation found nothing at this level; it is also the result
    when an overcone simplex is at least as big as the simplex itself,
    in which case approximating cannot pay off.

    The facet forms sum to (det/h)·N for the height normal N and the
    generator height h, so N·x < h is the sum of x's facet values below
    det.  Zero and repeated rows are left to the reduction, which drops
    them.
    """
    over = approximate_cone(s, level)
    _, tri = dual_description(over, want_triangulation=True)
    blocks = [as_rows(over)]
    for idx in tri:
        sub = make_simplicial_cone(tuple(over[i] for i in idx))
        if sub.det >= max(2, s.det):
            return ()
        blocks.append(hb_candidates(sub))
    cands = np.vstack(blocks)
    vals = support_values(cands, s.facet_forms)
    keep = np.all(vals >= 0, axis=1) & (vals.sum(axis=1) < s.det)
    return reduce_to_hilbert_basis(cands[keep], s.facet_forms)


def best_candidate(s: SimplicialCone, cands) -> IntVec | None:
    """Deterministic pick: lowest height, ties broken lexicographically."""
    if not cands:
        return None
    normal = s.height_normal
    return min(cands, key=lambda x: (la.dot(normal, x), x))
