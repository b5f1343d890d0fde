"""Merging of per-simplex data: Hilbert basis, Hilbert series, statistics."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

import numpy as np

from . import linalg as la
from .cone import SimplicialCone, build_simplices, dual_description
from .errors import DomainError, InternalConsistencyError
from .linalg import IntMat, IntVec
from .simplex import POINT_BUDGET, hb_candidates

# sorted candidates per dominance pass, the boolean entries one
# comparison slab may hold, and the reducers of a row set's first slab
_BLOCK = 1 << 12
_SLAB = 1 << 20
_FIRST_SLAB = 32


# ---------------------------------------------------------------------------
# dense integer polynomials, constant term first.  Every denominator on
# the series path is a product of binomials 1 - t^d, so multiplying and
# dividing by one binomial at a time is all the arithmetic it needs.


def _poly_add_into(acc, p):
    if len(acc) < len(p):
        acc.extend([0] * (len(p) - len(acc)))
    for i, x in enumerate(p):
        acc[i] += x


def _times(p, d: int):
    """p · (1 - t^d)."""
    out = list(p) + [0] * d
    for i, x in enumerate(p):
        out[i + d] -= x
    return out


def _over(p, d: int):
    """p / (1 - t^d); raises if the division is inexact."""
    q = list(p)
    for k in range(d, len(q)):
        q[k] += q[k - d]
    n = max(0, len(q) - d)
    if any(q[n:]):
        raise InternalConsistencyError("polynomial division is inexact")
    return q[:n]


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HilbertSeries:
    """Hilbert series in Hilbert-Serre form R(t) / (1 - t^e)^r."""

    numerator: tuple[int, ...]
    e: int
    r: int

    def expand(self, upto: int) -> list[int]:
        """Power-series coefficients 0..upto of the rational function."""
        c = list(self.numerator) + [0] * max(0, upto + 1 - len(self.numerator))
        c = c[:upto + 1]
        for _ in range(self.r):
            for k in range(self.e, upto + 1):
                c[k] += c[k - self.e]
        return c


@dataclass
class StatsRecord:
    """Run statistics in the layout of the paper-style result tables."""

    simplex_volume: int = 0       # largest initial simplex determinant
    initial_volume: int = 0       # sum over the initial triangulation
    volume_used: int = 0          # sum over simplices actually evaluated
    ips_solved: int = 0
    approx_levels_used: int = 0   # highest level that produced a point
    wall_time: dict = field(default_factory=dict)

    @property
    def improvement_factor(self) -> Fraction:
        if self.volume_used <= 0 or self.initial_volume <= 0:
            return Fraction(1)
        return Fraction(self.initial_volume, self.volume_used)


@dataclass(frozen=True)
class ComputationResult:
    hilbert_basis: IntMat          # ambient coordinates
    support_forms: IntMat          # ambient coordinates
    series: HilbertSeries | None
    stats: StatsRecord


# ---------------------------------------------------------------------------


def _dominated(vals, aux, red_vals, red_aux) -> np.ndarray:
    """Mask of rows x with a reducer y: vals(x) >= vals(y), aux(y) < aux(x).

    Rows and reducers come in increasing aux order.  Each slab compares
    the rows not yet dominated with the next reducers: the first slab
    with _FIRST_SLAB of them, every later one with twice as many as the
    one before, but never more than keep the (rows x reducers) boolean
    temporary within _SLAB entries.  A reducible row is almost always
    dominated by one of the first few reducers of low aux degree, so
    most rows leave after a narrow slab, and the survivors meet the
    remaining reducers in a logarithmic number of slabs.
    """
    dominated = np.zeros(len(vals), dtype=bool)
    todo = np.arange(len(vals))
    lo, width = 0, _FIRST_SLAB
    while todo.size and lo < len(red_vals) and red_aux[lo] < aux[todo[-1]]:
        hi = lo + max(1, min(width, _SLAB // todo.size))
        x = vals[todo]
        hit = red_aux[None, lo:hi] < aux[todo, None]
        for k in range(vals.shape[1]):
            hit &= x[:, k, None] >= red_vals[None, lo:hi, k]
        hit = hit.any(1)
        dominated[todo[hit]] = True
        todo = todo[~hit]
        lo, width = hi, 2 * width
    return dominated


def reduce_to_hilbert_basis(candidates, support_forms) -> tuple[IntVec, ...]:
    """Discard reducible candidates; returns the minimal elements.

    x is reducible by another candidate y when x - y lies in the cone,
    i.e. when x's support-form values dominate y's; then y has smaller
    auxiliary degree (the sum of all support-form values, positive on
    the pointed cone).  The result is the set of nonzero candidates that
    no other candidate reduces, in increasing (aux, lex) order.  One
    lexsort gives that order, in which a duplicate follows its equal.

    Reduction is transitive, so a reducible candidate is also reduced by
    a minimal one, of smaller aux degree.  The sorted candidates are
    therefore taken in blocks of _BLOCK rows, each tested once against
    every minimal element of the earlier blocks and once against its own
    survivors; nothing within a block depends on the order of the tests.
    A test meets the reducers in slabs that start at _FIRST_SLAB and
    double, so the rows that the first, low-degree reducers dominate
    leave early; a slab holds at most _SLAB booleans, so the temporaries
    stay bounded whatever the number of candidates.

    Normaliz also skips reducers of more than half the aux degree of x.
    That cut stays off: it is sound only for a candidate set that
    contains the Hilbert basis, while this function returns the minimal
    elements of any set (x may be reducible only by a y of more than
    half its degree when x - y is not a candidate).  On the criterion-8
    Hilbert basis (205,262 candidates, a 7,022-element basis) it gave no
    gain either: 1.61-2.02 s with it against 1.66-1.88 s without.
    """
    cands = candidates if isinstance(candidates, np.ndarray) else la.stack(list(candidates))
    if cands.size:  # an empty candidate list comes as an array of one axis
        cands = cands[np.any(cands != 0, axis=1)]
    if cands.size == 0:
        return ()
    vals = la.products(cands, la.stack(support_forms).T)
    aux = vals.sum(axis=1)
    order = np.lexsort((*cands.T[::-1], aux))
    cands, vals, aux = cands[order], vals[order], aux[order]
    distinct = np.ones(len(cands), dtype=bool)
    distinct[1:] = np.any(cands[1:] != cands[:-1], axis=1)
    cands, vals, aux = cands[distinct], vals[distinct], aux[distinct]

    kept = np.zeros(0, dtype=np.intp)
    for start in range(0, len(cands), _BLOCK):
        idx = np.arange(start, min(len(cands), start + _BLOCK))
        idx = idx[~_dominated(vals[idx], aux[idx], vals[kept], aux[kept])]
        idx = idx[~_dominated(vals[idx], aux[idx], vals[idx], aux[idx])]
        kept = np.concatenate([kept, idx])
    return tuple(map(tuple, cands[kept].tolist()))


def series_period(extreme_degrees, rank: int) -> int:
    """e, the lcm of the extreme generator degrees; refused when the
    e·rank numerator coefficients over (1 - t^e)^rank pass POINT_BUDGET."""
    extreme_degrees = [int(x) for x in extreme_degrees]
    if any(x <= 0 for x in extreme_degrees):
        raise DomainError("extreme generator degrees must be positive")
    e = lcm(*extreme_degrees) if extreme_degrees else 1
    if e * rank > POINT_BUDGET:
        raise DomainError(f"Hilbert series denominator (1 - t^{e})^{rank} "
                          f"is above the budget of {POINT_BUDGET} coefficients")
    return e


def accumulate_series(contribs, extreme_degrees, rank: int) -> HilbertSeries:
    """Sum per-simplex contributions and rewrite over (1 - t^e)^r.

    e is the lcm of the degrees of the extreme generators.  Subdivision
    introduces denominators whose degrees need not divide e, so the sum
    is taken over a max-multiplicity common denominator first and the
    final conversion divides exactly (anything else signals a bug in the
    triangulation or the half-open shift).  It divides by one binomial
    of the common denominator at a time, which is exact exactly when
    the whole division is.  The empty sum is 0 for rank > 0.
    series_period refuses an e·rank above POINT_BUDGET before any
    expansion.
    """
    e = series_period(extreme_degrees, rank)
    if rank == 0:
        return HilbertSeries(numerator=(1,), e=e, r=rank)

    groups: dict[tuple[int, ...], list[int]] = {}
    for c in contribs:
        _poly_add_into(groups.setdefault(tuple(sorted(c.denom_degrees)), []),
                       c.numerator)
    common = Counter()
    for key in groups:
        common |= Counter(key)

    numer: list[int] = []
    for key, num in groups.items():
        for d in (common - Counter(key)).elements():
            num = _times(num, d)
        _poly_add_into(numer, num)
    for _ in range(rank):
        numer = _times(numer, e)
    for d in common.elements():
        numer = _over(numer, d)
    while numer and numer[-1] == 0:
        numer.pop()
    if len(numer) > e * rank:
        raise InternalConsistencyError(
            "Hilbert series does not have negative degree")
    return HilbertSeries(numerator=tuple(numer) or (0,), e=e, r=rank)


def bottom_volume(s: SimplicialCone) -> int:
    """Total determinant of a triangulated bottom of the simplex.

    The bottom is the union of the bounded faces of the convex hull of
    the nonzero lattice points of the cone; it is the theoretical
    optimum any subdivision could reach.  Brute force over the
    fundamental domain, refused above POINT_BUDGET points.
    """
    if s.det > POINT_BUDGET:
        raise DomainError(f"determinant {s.det} is above the budget of {POINT_BUDGET} points")
    r = s.dim
    points = reduce_to_hilbert_basis(hb_candidates(s), s.facet_forms)
    homog = [p + (1,) for p in points] + [tuple(g) + (0,) for g in s.gens]
    facets, _, _ = dual_description(homog)
    total = 0
    for form in facets:
        eta, offset = form[:r], form[r]
        if not all(la.dot(eta, g) > 0 for g in s.gens):
            continue
        on_facet = [p for p in points if la.dot(eta, p) + offset == 0]
        placing = dual_description(on_facet)[2]
        total += sum(sub.det for sub in build_simplices(on_facet, placing))
    return total
