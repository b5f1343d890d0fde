"""Subdivision candidates from a lattice-cube approximation.

Instead of solving an integer program, the simplex is enclosed in an
overcone spanned by small lattice vectors: around every vertex of the
degree-`level` cross-section we take the vertices of the minimal face of
the staircase (braid-arrangement) triangulation of its surrounding unit
cube.  The overcone is cheap to evaluate; its fundamental-domain points
falling inside the original simplex and strictly below generator height
are returned as subdivision candidates, all of which recursive_subdivide
hands down its stellar tree.  The overcone's simplices stay one stack
of arrays (cone.Simplices) from their elimination to their sweep: the
size tests reduce its det array, and one hb_candidates call sweeps
every overcone simplex of det > 1 that no facet form separates from
the simplex, since a separated one holds none of the candidates.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor

import numpy as np

from . import linalg as la
from .cone import SimplicialCone, build_simplices, dual_description
from .errors import DomainError, InternalConsistencyError
from .linalg import IntVec
from .simplex import POINT_BUDGET, hb_candidates, points_below


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
    The barycentric weight of w_0 is 1 minus the largest fractional part,
    always positive; that of w_k is the k-th largest fractional part
    minus the next one (0 after the last).  Vertices of weight 0 (ties,
    zero fractional parts) are dropped, so a lattice point returns just
    itself.
    """
    v = tuple(Fraction(x) for x in v)
    w = [floor(x) for x in v]
    frac = [x - b for x, b in zip(v, w)]
    order = sorted(range(len(v)), key=lambda i: (-frac[i], i))
    desc = [frac[i] for i in order] + [0]
    out = [tuple(w)]
    for k, i in enumerate(order):
        w[i] += 1
        if desc[k] > desc[k + 1]:
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


def separated(s: SimplicialCone, gens: np.ndarray, forms: np.ndarray) -> np.ndarray:
    """Mask of the simplices of a stack, generators gens and facet forms
    forms (k, r, r), that a facet form separates from s: a form of s
    negative on all of their generators, or one of their forms negative
    on all of s's.  Either is a Gordan certificate that the two
    simplicial cones meet only at 0."""
    by_s = la.products(gens, la.stack(s.facet_forms).T)  # [k, gen, form of s]
    by_sub = la.products(forms, la.stack(s.gens).T)  # [k, form, gen of s]
    return (by_s < 0).all(axis=1).any(axis=1) | (by_sub < 0).all(axis=2).any(axis=1)


def approx_candidates(s: SimplicialCone, level: int = 1) -> tuple[IntVec, ...]:
    """Subdivision candidates found through the overcone, sorted.

    Builds the stack of the overcone's placing triangulation (without
    further subdivision) by build_simplices.  Empty output means the
    approximation found nothing at this level; it is also the result
    when an overcone simplex is at least as big as the simplex itself,
    in which case approximating cannot pay off, and when the overcone
    simplices of det > 1 hold more than POINT_BUDGET points together,
    which keeps the enumeration's memory bounded.  Both tests reduce the
    det array of every overcone simplex of det > 1, the sum in Python
    ints.  Of those, the ones that no facet form separates from the
    simplex (see separated) are swept by one hb_candidates call on their
    stack, and their distinct points that points_below keeps are
    returned: the points in the simplex strictly below generator
    height.  A separated overcone simplex meets the simplex only at 0,
    so none of its points can pass, and a unimodular one adds only its
    generators, which are overcone generators already.

    Every candidate goes into recursive_subdivide's pool, so they are
    not reduced to their minimal elements.  Stellar subdivision at any
    lattice point of the simplex below generator height lowers the total
    determinant to det·(N·x)/h, so an unreduced point is as valid a
    subdivision point as a minimal one.  The lowest candidate, where the
    simplex is cut, is minimal anyway: a candidate y that reduces x has
    facet values dominated by x's and aux(y) < aux(x), so N·y < N·x.
    """
    over = approximate_cone(s, level)
    forms, _, placing = dual_description(over)
    if any(la.dot(f, g) < 0 for f in forms for g in s.gens):
        raise InternalConsistencyError("approximation is not an overcone")
    subs = build_simplices(over, placing)
    if la.magnitude(subs.det) >= max(2, s.det):
        return ()
    subs = subs[subs.det > 1]
    if sum(subs.det.tolist()) > POINT_BUDGET:
        return ()
    subs = subs[~separated(s, subs.gens, subs.forms)]
    cands = np.vstack([la.stack(over), hb_candidates(subs)])
    return tuple(sorted({la.as_vec(row) for row in points_below(s, cands)}))
