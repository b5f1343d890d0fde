"""Evaluation of a single simplicial cone.

The fundamental domain E (all lattice points with generator coordinates
in [0,1)) is enumerated through its q numerators: they are the classes
of the lattice facet_forms·Z^r modulo det·Z^r.  When E is cyclic with
a unit point of order det, that point's facet-form column sweeps each
class once by its multiples; otherwise an upper-triangular Hermite form
of the lattice modulo det sweeps each class once in mixed radix.
Everything is streamed in fixed-size blocks so that simplices
with determinants near the subdivision bound never materialize E at
once.  Blocks use int64 arithmetic when a pre-computed bound proves it
exact, and Python big-int (object dtype) arrays otherwise.  A simplex
is only its generators, det and facet forms; the facets a half-open
simplex excludes are read off the triangulation's anchor when its
series is counted, the one place that needs them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod

import numpy as np

from . import linalg as la
from .cone import SimplicialCone
from .errors import DomainError, GradingNotPositiveError, InternalConsistencyError
from .linalg import IntVec

DEFAULT_BLOCK = 1 << 20
POINT_BUDGET = 1 << 22  # most overcone points or series coefficients held at once


@dataclass(frozen=True)
class SeriesContribution:
    """Stanley-decomposition share of one half-open simplex.

    numerator[k] counts fundamental-domain points whose shifted degree
    is k; the denominator is the multiset of generator degrees.
    """

    numerator: tuple[int, ...]
    denom_degrees: tuple[int, ...]


def _residue_axes(s: SimplicialCone):
    """Mixed-radix axes (range, residue-increment row) of the residue sweep.

    The q numerators of the lattice points are the lattice
    L = facet_forms·Z^r, which contains det·Z^r; its classes modulo
    det·Z^r are the points of E.  Column j of the facet forms is the q
    numerator vector of the unit point e_j; when gcd(column, det) = 1 it
    has order det, and it alone is an axis of range det.  Otherwise row
    i of the Hermite form of L modulo det, with pivot t_i, is an axis of
    range det/t_i; rows with t_i = det add nothing, so det 1 has no axis.
    """
    det = s.det
    cols = la.transpose(s.facet_forms)
    j = next((j for j, c in enumerate(cols) if gcd(*c, det) == 1), None)
    if det > 1 and j is not None:
        axes = [(det, tuple(x % det for x in cols[j]), j)]
    else:
        h = la.hermite_mod(cols, det)
        axes = [(det // row[i], row, i) for i, row in enumerate(h) if row[i] < det]
    if prod(m for m, _, _ in axes) != det:
        raise InternalConsistencyError("residue ranges do not multiply to det")
    # one axis of order det, or triangular rows with pivot·range = det,
    # make the mixed radix injective; entries below det keep digits·rows
    # below det²
    if any(not 0 <= min(row) <= max(row) < det for _, row, _ in axes) or (
            gcd(*axes[0][1], det) != 1 if len(axes) == 1 else
            any(any(row[:i]) or row[i] * m != det for m, row, i in axes)):
        raise InternalConsistencyError("residue axis is not triangular modulo det")
    # each row must be the q-numerator vector of a lattice point
    if any(x % det for _, t, _ in axes for x in la.vec_mat(t, s.gens)):
        raise InternalConsistencyError("residue axis is not a lattice point")
    return [(m, row) for m, row, _ in axes]


def _block_dtype(s: SimplicialCone) -> object:
    # bounds the residue sums digits·rows (at most Σ(m-1)(det-1) < det²
    # for ranges m multiplying to det, one axis or Hermite rows), the
    # generator entries and the products v · gens of points_from_block
    det = s.det
    max_a = max((abs(x) for g in s.gens for x in g), default=1)
    return la.int_dtype(max(det * det + det, s.dim * det * max_a))


def residue_blocks(s: SimplicialCone):
    """Yield arrays of at most DEFAULT_BLOCK rows of q-coordinate
    numerators, in the mixed-radix order of the residue axes.

    Each row v encodes one fundamental-domain point e = (v · gens) / det
    with q-coordinates v/det in [0,1)^r.  A block is its digit array
    times the axis rows, reduced modulo det once.  The digits are int64
    indices, so det >= INT64_SAFE raises DomainError.
    """
    det = s.det
    if det >= la.INT64_SAFE:
        raise DomainError(f"a simplex of det {det} is too large to sweep")
    dtype = _block_dtype(s)
    axes = _residue_axes(s)
    if not axes:  # det 1: the origin alone
        yield np.zeros((1, s.dim), dtype=dtype)
        return
    shape = tuple(m for m, _ in axes)
    rows = np.array([row for _, row in axes], dtype=dtype)
    for start in range(0, det, DEFAULT_BLOCK):
        idx = np.arange(start, min(det, start + DEFAULT_BLOCK), dtype=np.int64)
        digits = np.array(np.unravel_index(idx, shape), dtype=dtype)
        yield digits.T @ rows % det


def points_from_block(s: SimplicialCone, v: np.ndarray) -> np.ndarray:
    """Map residue numerators to fundamental-domain points (exact)."""
    gens = np.array(s.gens, dtype=v.dtype)
    return v.dot(gens) // s.det


def points_below(s: SimplicialCone, rows: np.ndarray) -> np.ndarray:
    """The rows that are nonzero lattice points of S strictly below its
    generator height: every facet value is >= 0 and the aux degree, their
    sum, lies in (0, det).  The facet forms sum to (det/h)·N for the
    height normal N and the generator height h, so aux < det says N·x < h.
    """
    vals = la.products(rows, la.stack(s.facet_forms).T)
    aux = vals.sum(axis=1)
    return rows[np.all(vals >= 0, axis=1) & (aux > 0) & (aux < s.det)]


def lex_sign(form: IntVec, anchor: IntVec) -> int:
    """Sign of form at anchor - sum(eps^j e_j) for infinitesimal eps."""
    v = la.dot(form, anchor)
    if v:
        return 1 if v > 0 else -1
    for e in form:
        if e:
            return -1 if e > 0 else 1
    return 0


def series_contribution(s: SimplicialCone, deg: IntVec,
                        anchor: IntVec) -> SeriesContribution:
    """Graded count of the half-open simplex's fundamental domain.

    The simplex excludes the facets whose form is negative at the anchor
    perturbed by lex_sign; the half-open simplices of a triangulation and
    of its stellar refinements cover the cone disjointly when they share
    an anchor inside it (Köppe and Verdoolaege 2008).  shift(p) adds the
    generator opposite each excluded facet that p lies on, and
    numerator[k] = #{p in E : deg(shift(p)) = k}; over the product of
    (1 - t^deg(gen)) it is the Hilbert series of the half-open simplex.
    """
    degs = tuple(la.dot(g, deg) for g in s.gens)
    if any(x <= 0 for x in degs):
        raise GradingNotPositiveError("grading is not positive on a generator")
    excluded = [i for i, f in enumerate(s.facet_forms) if lex_sign(f, anchor) < 0]
    det = s.det
    top = sum(degs)
    counts = np.zeros(top + 1, dtype=np.int64)  # degree top: the origin when every facet is excluded
    w = np.array(degs, dtype=np.int64)
    for v in residue_blocks(s):
        dv = v.dot(w if v.dtype == np.int64 else w.astype(object)) // det
        for i in excluded:
            dv = dv + degs[i] * (v[:, i] == 0)
        if dv.dtype == object:
            dv = dv.astype(np.int64)
        counts += np.bincount(dv, minlength=top + 1)
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
