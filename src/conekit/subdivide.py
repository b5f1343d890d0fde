"""Subdivision of large simplicial cones at candidate points.

A simplicial cone whose determinant exceeds the volume bound is cut by
stellar subdivision at a lattice point of the cone strictly below its
generator height; the pieces have a strictly smaller total determinant
and the process repeats.  A finder supplies candidate points: the exact
integer program below returns the one point of minimal height, the
overcone approximation every point it found.  A simplex is cut at its
lowest candidate (best_candidate), and its pieces inherit the rest:
each keeps those inside it below its own generator height and calls
the finder only when none are left.

The height-minimization problem is solved exactly by depth-first
interval search over LLL-reduced integer coordinates y, x = U·y, in
which the columns of the facet-form matrix F·U are a reduced basis
(Aardal, Hurkens and Lenstra 2000).  Every feasible point lies in the
fundamental domain, so the facet-form inequalities 0 <= F·U·y < det bound
the search.  A slab of heights [a, b] has a tight box around
(b/h)·conv(U^-1·generators), and one search either exhibits a point in
it or proves it empty.  The levels v = 1..8 are scanned as slabs [v, v]
first; above them, one search of the whole range gives an upper bound,
and bisection over height slabs closes the gap to the minimum.

Each search node first propagates its box through the rows cl <= c·y
<= cu.  With mn and mx the least and greatest c·y on the box, the row
moves hi_j (c_j > 0) or lo_j (c_j < 0) iff cu - mn < |c_j|·(hi_j - lo_j),
and the other bound iff mx - cl < |c_j|·(hi_j - lo_j).  So a row whose
two slacks are at least every |c_j|·(hi_j - lo_j) is skipped, exactly
(Achterberg 2007).  Tightening is monotone, so any sweep order reaches
the same fixpoint box (Apt 1999).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

from . import linalg as la
from .cone import SimplicialCone, exchange, simplicial_cones
from .errors import DomainError, InternalConsistencyError
from .linalg import IntVec
from .simplex import points_below

STRATEGIES = ("none", "ip", "approx", "ip_then_approx")

HUGE_DET = 10**9  # above this, a failed finder escalates the approximation level
APPROX_LEVEL_CAP = 3  # the highest level it escalates to


@dataclass(frozen=True)
class SubdivisionConfig:
    volume_bound: int = 10**6
    strategy: str = "ip_then_approx"
    time_limit_scale: Fraction = Fraction(1)  # per-simplex limit: scale·(log10 det)^2 s
    node_limit: int | None = None

    def __post_init__(self):
        if self.volume_bound < 1:
            raise DomainError("volume_bound must be at least 1")
        if self.strategy not in STRATEGIES:
            raise DomainError(f"unknown strategy {self.strategy!r}")
        for name in ("time_limit_scale", "node_limit"):
            if (getattr(self, name) or 0) < 0:
                raise DomainError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class IpOutcome:
    status: str  # "optimal" | "infeasible" | "limit"
    point: IntVec | None = None
    value: int | None = None

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


class _Limit(Exception):
    pass


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _terms(coeffs):
    """A row's nonzero terms: (j, c) for c > 0 and (j, -c) for c < 0."""
    return ([(j, c) for j, c in enumerate(coeffs) if c > 0],
            [(j, -c) for j, c in enumerate(coeffs) if c < 0])


def _propagate(rows, lo, hi) -> bool:
    """Tighten the box [lo, hi] in place to cl <= c·x <= cu for every row
    (*_terms(c), cl, cu), until no bound moves; False if a row fails.
    Rows that move no bound are skipped by the slack test."""
    changed = True
    while changed:
        changed = False
        for pos, neg, cl, cu in rows:
            mn = mx = span = 0
            for j, a in pos:
                l, h = lo[j], hi[j]
                mn += a * l
                mx += a * h
                if a * (h - l) > span:
                    span = a * (h - l)
            for j, a in neg:
                l, h = lo[j], hi[j]
                mn -= a * h
                mx -= a * l
                if a * (h - l) > span:
                    span = a * (h - l)
            if mn > cu or mx < cl:
                return False
            if cu - mn >= span and mx - cl >= span:
                continue
            changed = True
            # each x_j from the bounds the row saw before this visit
            for terms, up, dn in ((pos, cu - mn, mx - cl), (neg, mx - cl, cu - mn)):
                for j, a in terms:
                    l, h = lo[j], hi[j]
                    nh, nl = l + up // a, h - dn // a
                    if nh < h:
                        hi[j] = nh
                    if nl > l:
                        lo[j] = nl
                    if lo[j] > hi[j]:
                        return False
    return True


class _Search:
    """Depth-first interval search for integer points, under one node and
    time budget shared by all of its calls."""

    def __init__(self, deadline, node_limit):
        self.deadline = deadline
        self.node_limit = node_limit
        self.nodes = 0

    def _tick(self):
        self.nodes += 1
        if self.node_limit is not None and self.nodes > self.node_limit:
            raise _Limit
        if self.deadline is not None and self.nodes % 512 == 0 \
                and time.monotonic() > self.deadline:
            raise _Limit

    def find(self, rows, lo, hi, order):
        """The first integer point of the box [lo, hi] that satisfies every
        row, or None; narrows the lists lo and hi it is given.
        Branching tries low values of order·x first."""
        self._tick()
        if not _propagate(rows, lo, hi):
            return None
        free = [j for j in range(len(lo)) if lo[j] < hi[j]]
        if not free:
            return tuple(lo)
        j = min(free, key=lambda k: (hi[k] - lo[k], k))
        if hi[j] - lo[j] <= 4:
            parts = [(v, v) for v in range(lo[j], hi[j] + 1)]
        else:
            mid = (lo[j] + hi[j]) // 2
            parts = [(lo[j], mid), (mid + 1, hi[j])]
        if order[j] < 0:
            parts.reverse()
        for a, b in parts:
            nlo, nhi = list(lo), list(hi)
            nlo[j], nhi[j] = a, b
            point = self.find(rows, nlo, nhi, order)
            if point is not None:
                return point
        return None


def _deadline(cfg: SubdivisionConfig, det: int):
    if not cfg.time_limit_scale:
        return None
    budget = float(cfg.time_limit_scale) * math.log10(det) ** 2
    return time.monotonic() + budget


def solve_star_ip(s: SimplicialCone,
                  cfg: SubdivisionConfig = SubdivisionConfig()) -> IpOutcome:
    """Exact minimum of N·x over nonzero lattice points of S below N·gen.

    Feasible points have all generator coordinates in [0,1) (a
    coordinate q_i >= 1 would put x - gen_i in S at negative height), so
    the facet-form rows and the slab boxes bound the search.  The x != 0
    condition is subsumed by the height bound N·x >= 1.  A time or node
    limit yields the status "limit", never a silently suboptimal answer.
    """
    det = s.det
    if det == 1:
        return IpOutcome("infeasible")
    height = s.gen_height
    if height <= 1:
        return IpOutcome("infeasible")
    normal = s.height_normal
    # search in y = U^-1·x, U = h^T: the columns of F·U = reduced^T are LLL-reduced
    reduced, h, uinv = la.lll_reduce(la.transpose(s.facet_forms))
    ygens = [la.mat_vec(uinv, x) for x in s.gens]
    order = la.mat_vec(h, normal)
    r = s.dim
    gmin = [min(g[j] for g in ygens) for j in range(r)]
    gmax = [max(g[j] for g in ygens) for j in range(r)]
    facet_terms = [_terms(f) for f in la.transpose(reduced)]  # the rows of F·U
    order_terms = _terms(order)
    search = _Search(_deadline(cfg, det), cfg.node_limit)

    def slab(a: int, b: int):
        """Some nonzero lattice point x with height in [a, b], or None.

        A point at height v lies in (v/h)·conv(generators), so the slab
        has a tight box in y and fundamental-domain rows
        u_i <= det·b/h.
        """
        lo = [_ceil_div(min(a * m, b * m), height) for m in gmin]
        hi = [max(a * m, b * m) // height for m in gmax]
        if any(x > y for x, y in zip(lo, hi)):
            return None
        cap = (det * b) // height
        rows = [(*t, 0, cap) for t in facet_terms] + [(*order_terms, a, b)]
        y = search.find(rows, lo, hi, order)
        return None if y is None else la.vec_mat(y, h)

    try:
        # the lowest levels have the tightest boxes and, for big
        # determinants, almost always contain the optimum: scan them
        # one by one before bisecting the rest
        point = None
        prefix = min(height - 1, 8)
        for v in range(1, prefix + 1):
            point = slab(v, v)
            if point is not None:
                break
        if point is None and height - 1 > prefix:
            # the minimum lies in [a, w], w the height of a known point;
            # each step lowers w or proves [a, mid] empty
            a = prefix + 1
            point = slab(a, height - 1)
            while point is not None and (w := la.dot(normal, point)) > a:
                mid = (a + w - 1) // 2
                lower = slab(a, mid)
                if lower is None:
                    lower = slab(mid + 1, w - 1)
                    if lower is None:
                        break
                    a = mid + 1
                point = lower
    except _Limit:
        return IpOutcome("limit")
    if point is None:
        return IpOutcome("infeasible")
    value = la.dot(normal, point)
    u = s.q_numerators(point)
    if not (any(point) and all(0 <= x < det for x in u) and value < height):
        raise InternalConsistencyError("branch-and-bound returned a bad point")
    return IpOutcome("optimal", point=point, value=value)


def stellar_subdivide(s: SimplicialCone, xhat: IntVec) -> tuple[SimplicialCone, ...]:
    """Replace S by the simplices over its facets not containing xhat.

    Half-open by the anchor of the enclosing triangulation, the pieces
    cover the half-open S disjointly (series_contribution).  The
    total determinant satisfies sum det(T_i) = det(S)·(N·xhat)/(N·gen).
    A point inside a non-primitive ray gives one piece: that generator
    shortened to xhat.  Piece i is S with gens[i] replaced by xhat, so
    all pieces come from S's forms, det and u by one pivot
    (cone.exchange), not by pivoting from scratch.
    """
    xhat = la.as_vec(xhat)
    u = s.q_numerators(xhat)
    if any(x < 0 for x in u):
        raise DomainError("subdivision point lies outside the simplex")
    support = [i for i, x in enumerate(u) if x > 0]
    if not support:
        raise DomainError("subdivision point is zero")
    if len(support) == 1 and u[support[0]] >= s.det:
        raise DomainError("subdivision point lies on a ray of the simplex, "
                          "at or beyond its generator")
    same = [0] * len(support)  # row 0 once per piece
    pieces = exchange(la.stack([s.facet_forms])[same], la.stack([s.det])[same],
                      la.stack([u])[same], support,
                      la.stack([s.gens[:i] + (xhat,) + s.gens[i + 1:] for i in support]))
    if sum(pieces.det.tolist()) != sum(u[i] for i in support):
        raise InternalConsistencyError("stellar volume identity failed")
    return simplicial_cones(pieces)


def best_candidate(s: SimplicialCone, cands) -> IntVec | None:
    """Deterministic pick: lowest height, ties broken lexicographically."""
    if not len(cands):
        return None
    normal = s.height_normal
    return min((la.as_vec(x) for x in cands), key=lambda x: (la.dot(normal, x), x))


def recursive_subdivide(s: SimplicialCone, cfg: SubdivisionConfig,
                        finder) -> tuple[SimplicialCone, ...]:
    """Refine until every piece is at or below the volume bound.

    `finder(simplex)` returns a tuple of candidate points, possibly
    empty.  Every simplex above the bound carries a pool: its parent's
    pool, cut down by points_below to the points inside it below its
    generator height.  Only an empty pool is refilled by the finder.
    The simplex is cut at best_candidate of its pool and the pieces
    inherit that pool; a pool still empty terminates the branch (the
    large simplex is evaluated as is).  An IP's pool is its one point,
    a generator of every piece it makes, so each piece calls the finder
    again.
    """
    stack = [(s, ())]
    leaves = []
    while stack:
        cur, pool = stack.pop()
        if cur.det <= cfg.volume_bound:
            leaves.append(cur)
            continue
        if len(pool):
            pool = points_below(cur, pool)
        if not len(pool):
            pool = la.stack(finder(cur))
        xhat = best_candidate(cur, pool)
        if xhat is None:
            leaves.append(cur)
            continue
        if la.dot(cur.height_normal, xhat) >= cur.gen_height:
            raise DomainError("finder returned a point at generator height")
        pieces = stellar_subdivide(cur, xhat)
        stack.extend((p, pool) for p in reversed(pieces))
    return tuple(leaves)
