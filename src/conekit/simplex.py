"""Evaluation of a single simplicial cone.

The fundamental domain E (all lattice points with generator coordinates
in [0,1)) is enumerated through the Smith normal form of the generator
matrix: residue-class representatives of Z^r modulo the generator
lattice sweep a diagonal box, and division with remainder maps each one
into E.  Everything is streamed in fixed-size blocks so that simplices
with determinants near the subdivision bound never materialize E at
once.  Blocks use int64 arithmetic when a pre-computed bound proves it
exact, and Python big-int (object dtype) arrays otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from . import linalg as la
from .cone import SimplicialCone
from .errors import DomainError, GradingNotPositiveError, InternalConsistencyError
from .linalg import IntVec

DEFAULT_BLOCK = 1 << 20
POINT_BUDGET = 1 << 22  # most points one overcone evaluation may enumerate


@dataclass(frozen=True)
class SeriesContribution:
    """Stanley-decomposition share of one half-open simplex.

    numerator[k] counts fundamental-domain points whose shifted degree
    is k; the denominator is the multiset of generator degrees.
    """

    numerator: tuple[int, ...]
    denom_degrees: tuple[int, ...]


def _residue_axes(s: SimplicialCone):
    """Mixed-radix axes (range, residue-increment row) of the SNF sweep.

    With u·gens·v = diag(d), row i of v^-1 is (u·gens)_i / d_i, so its
    q numerators, (v^-1)_i · facet_formsᵀ, are (det/d_i)·u_i.
    """
    snf = la.smith_normal_form(s.gens)
    det = s.det
    if prod(snf.d) != det:
        raise InternalConsistencyError("SNF diagonal product differs from det")
    axes = [(m, tuple(det // m * x % det for x in ui))
            for m, ui in zip(snf.d, snf.u) if m > 1]
    # each row must be the q-numerator vector of a lattice point
    if any(x % det for _, t in axes for x in la.vec_mat(t, s.gens)):
        raise InternalConsistencyError("residue axis is not a lattice point")
    return axes


def _block_dtype(s: SimplicialCone) -> object:
    # bounds the residue arithmetic, the generator entries and the
    # products v · gens of points_from_block
    det = s.det
    max_a = max((abs(x) for g in s.gens for x in g), default=1)
    return la.int_dtype(max(det * det + det, s.dim * det * max_a))


def residue_blocks(s: SimplicialCone):
    """Yield arrays of at most DEFAULT_BLOCK rows of q-coordinate
    numerators, in lexicographic order.

    Each row v encodes one fundamental-domain point e = (v · gens) / det
    with q-coordinates v/det in [0,1)^r.
    """
    det = s.det
    r = s.dim
    dtype = _block_dtype(s)
    axes = _residue_axes(s)
    radix = []
    tail = 1
    for m, _ in reversed(axes):
        radix.append(tail)
        tail *= m
    radix.reverse()
    rows = [np.array(row, dtype=dtype) for _, row in axes]
    start = 0
    while start < det:
        stop = min(det, start + DEFAULT_BLOCK)
        idx = np.arange(start, stop, dtype=np.int64)
        if dtype is object:
            idx = idx.astype(object)
        v = np.zeros((stop - start, r), dtype=dtype)
        for (m, _), p, row in zip(axes, radix, rows):
            c = (idx // p) % m
            v += c[:, None] * row[None, :]
            v %= det
        yield v
        start = stop


def points_from_block(s: SimplicialCone, v: np.ndarray) -> np.ndarray:
    """Map residue numerators to fundamental-domain points (exact)."""
    gens = np.array(s.gens, dtype=v.dtype)
    return v.dot(gens) // s.det


def fundamental_points(s: SimplicialCone) -> np.ndarray:
    """All |det| points of the fundamental domain, one per row."""
    pts = np.vstack([points_from_block(s, v) for v in residue_blocks(s)])
    if len(pts) != s.det:
        raise InternalConsistencyError(
            f"enumerated {len(pts)} points for determinant {s.det}")
    return pts


def half_open_shift(p: IntVec, s: SimplicialCone) -> IntVec:
    """Representative of p in the half-open simplex.

    Adds the generator opposite every excluded facet on which p lies;
    the shifted points are exactly the Stanley-decomposition offsets of
    the half-open cone.
    """
    u = s.q_numerators(p)
    if any(x < 0 or x >= s.det for x in u):
        raise DomainError("point is not in the fundamental domain")
    out = list(p)
    for i in s.excluded_facets:
        if u[i] == 0:
            for j, x in enumerate(s.gens[i]):
                out[j] += x
    return tuple(out)


def series_contribution(s: SimplicialCone, deg: IntVec) -> SeriesContribution:
    """Graded count of the half-open simplex's fundamental domain.

    numerator[k] = #{p in E : deg(shift(p)) = k}; together with the
    denominator product of (1 - t^deg(gen)) this is the Hilbert series
    of the half-open simplicial cone.
    """
    degs = tuple(la.dot(g, deg) for g in s.gens)
    if any(x <= 0 for x in degs):
        raise GradingNotPositiveError("grading is not positive on a generator")
    det = s.det
    top = sum(degs)
    counts = np.zeros(top, dtype=np.int64)
    w = np.array(degs, dtype=np.int64)
    for v in residue_blocks(s):
        dv = v.dot(w if v.dtype == np.int64 else w.astype(object)) // det
        for i in s.excluded_facets:
            dv = dv + degs[i] * (v[:, i] == 0)
        if dv.dtype == object:
            dv = dv.astype(np.int64)
        counts += np.bincount(dv, minlength=top)
    if int(counts.sum()) != det:
        raise InternalConsistencyError("fundamental domain count mismatch")
    while len(counts) > 1 and counts[-1] == 0:
        counts = counts[:-1]
    return SeriesContribution(numerator=tuple(int(c) for c in counts),
                              denom_degrees=tuple(sorted(degs)))


def hb_candidates(s: SimplicialCone) -> np.ndarray:
    """Hilbert-basis candidates of the simplex, one per row: E \\ {0}
    followed by the generators."""
    blocks = [points_from_block(s, v[np.any(v != 0, axis=1)])
              for v in residue_blocks(s)]
    blocks.append(np.array(s.gens, dtype=blocks[0].dtype))
    return np.vstack(blocks)
