"""Evaluation of simplicial cones.

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

A series is counted one simplex at a time (residue_blocks).  The
Hilbert-basis candidates of a whole stack of simplices (cone.Simplices),
most of them small, are swept as one concatenated range by
hb_candidates, so a simplex pays no fixed cost of its own beyond its
residue axes.  Both sweeps decode their indices by one mixed radix
(_digits) and take numerators as digits · axis rows modulo det.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from math import gcd, prod

import numpy as np

from . import linalg as la
from .cone import Simplices, SimplicialCone
from .errors import DomainError, GradingNotPositiveError, InternalConsistencyError
from .linalg import IntVec

DEFAULT_BLOCK = 1 << 20
POINT_BUDGET = 1 << 22  # most overcone points or series coefficients held at once
SWEEP_BUDGET = 1 << 40  # largest det swept: about 30 h at 10^7 points/s


@dataclass(frozen=True)
class SeriesContribution:
    """Stanley-decomposition share of one half-open simplex.

    numerator[k] counts fundamental-domain points whose shifted degree
    is k; the denominator is the multiset of generator degrees.
    """

    numerator: tuple[int, ...]
    denom_degrees: tuple[int, ...]


def _residue_axes(gens, det: int, forms):
    """Mixed-radix axes (range, residue-increment row) of the residue sweep
    of the simplex with generators gens, det det and facet forms forms.

    The q numerators of the lattice points are the lattice
    L = forms·Z^r, which contains det·Z^r; its classes modulo det·Z^r
    are the points of E.  Column j of the facet forms is the q
    numerator vector of the unit point e_j; when gcd(column, det) = 1 it
    has order det, and it alone is an axis of range det.  Otherwise row
    i of the Hermite form of L modulo det, with pivot t_i, is an axis of
    range det/t_i; rows with t_i = det add nothing, so det 1 has no axis.
    """
    cols = la.transpose(forms)
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
    if any(x % det for _, t, _ in axes for x in la.vec_mat(t, gens)):
        raise InternalConsistencyError("residue axis is not a lattice point")
    return [(m, row) for m, row, _ in axes]


def _block_dtype(det: int, entry: int, r: int) -> object:
    # bounds the residue sums digits·rows (at most Σ(m-1)(det-1) < det²
    # for ranges m multiplying to det, one axis or Hermite rows), the
    # generator entries, at most entry, and the products v · gens of
    # r terms that map a row to its point
    return la.int_dtype(max(det * det + det, r * det * entry))


def _too_large(det: int) -> None:
    if det > SWEEP_BUDGET:
        raise DomainError(f"a simplex of det {det} is too large to sweep")


def _digits(q: np.ndarray, ranges: np.ndarray) -> np.ndarray:
    """The (n, A) mixed-radix digits of the n int64 indices q, the last
    axis running fastest.  ranges holds the A axis ranges, one row for
    all indices or one row per index; each index is below the product of
    its ranges, so the first axis takes the quotient left by the others."""
    digits = np.empty((len(q), ranges.shape[-1]), dtype=np.int64)
    for a in range(ranges.shape[-1] - 1, 0, -1):
        q, digits[:, a] = np.divmod(q, ranges[..., a])
    digits[:, :1] = q[:, None]
    return digits


def residue_blocks(s: SimplicialCone):
    """Yield arrays of at most DEFAULT_BLOCK rows of q-coordinate
    numerators, in the mixed-radix order of the residue axes.

    Each row v encodes one fundamental-domain point e = (v · gens) / det
    with q-coordinates v/det in [0,1)^r.  A block is its digit array
    times the axis rows, reduced modulo det once; det 1 has no axis and
    one zero row.  A det above SWEEP_BUDGET raises DomainError.
    """
    det = s.det
    _too_large(det)
    dtype = _block_dtype(det, max(abs(x) for g in s.gens for x in g), s.dim)
    axes = _residue_axes(s.gens, det, s.facet_forms)
    ranges = np.array([m for m, _ in axes], dtype=np.int64)
    rows = np.array([row for _, row in axes], dtype=dtype).reshape(len(axes), s.dim)
    for start in range(0, det, DEFAULT_BLOCK):
        q = np.arange(start, min(det, start + DEFAULT_BLOCK), dtype=np.int64)
        yield _digits(q, ranges).astype(dtype, copy=False) @ rows % det


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


def hb_candidates(stack: Simplices) -> np.ndarray:
    """Hilbert-basis candidates of a stack of simplices, one per row: E \\ {0}
    of each simplex in stack order, then the generators of every simplex
    in stack order.

    The fundamental domains are swept as one.  Each simplex's axes come
    from _residue_axes, padded by axes of range 1 to the stack's widest
    count; its indices 1..det-1 decode to E \\ {0} in the order of
    residue_blocks, and its run of rows is mapped to points by its axis
    rows modulo det and one product with its generators.  A block has at
    most DEFAULT_BLOCK rows, so a large simplex spans several; its dtype
    comes from the largest det and generator entry of the simplices it
    meets.
    """
    k, r = len(stack), stack.gens.shape[-1]
    dets = stack.det.tolist()
    _too_large(max(dets, default=0))
    axes = [_residue_axes(g, det, f)
            for g, det, f in zip(stack.gens.tolist(), dets, stack.forms.tolist())]
    width = max(map(len, axes), default=0)
    axes = [ax + [(1, (0,) * r)] * (width - len(ax)) for ax in axes]
    ranges = np.array([[m for m, _ in ax] for ax in axes], dtype=np.int64).reshape(k, width)
    steps = np.array([[row for _, row in ax] for ax in axes],
                     dtype=np.int64).reshape(k, width, r)
    starts = list(accumulate((d - 1 for d in dets), initial=0))
    blocks = []
    for start in range(0, starts[-1], DEFAULT_BLOCK):
        n = min(starts[-1] - start, DEFAULT_BLOCK)
        # simplices first..last-1 meet the block, at its rows edges[j - first]
        # to edges[j - first + 1]
        first, last = bisect_right(starts, start) - 1, bisect_left(starts, start + n)
        edges = [min(max(x - start, 0), n) for x in starts[first:last + 1]]
        counts = np.diff(edges)
        gens = stack.gens[first:last]
        dtype = _block_dtype(max(dets[first:last]), la.magnitude(gens), r)
        # the index of each row in its simplex, from 1
        q = np.arange(n, dtype=np.int64) + np.repeat(
            np.array([start - x + 1 for x in starts[first:last]], dtype=np.int64), counts)
        digits = _digits(q, np.repeat(ranges[first:last], counts, axis=0)).astype(dtype)
        blocks += [digits[lo:hi] @ t % det @ g // det for t, g, det, lo, hi in zip(
            steps[first:last].astype(dtype, copy=False), gens.astype(dtype, copy=False),
            dets[first:last], edges, edges[1:])]
    blocks.append(stack.gens.reshape(k * r, r))
    return np.vstack(blocks)
