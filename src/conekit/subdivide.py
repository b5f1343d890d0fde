"""Subdivision of large simplicial cones driven by integer programming.

A simplicial cone whose determinant exceeds the volume bound is handed
to a finder for a lattice point of minimal height inside it; stellar
subdivision at that point replaces the simplex by strictly smaller
pieces and the process repeats.  The height-minimization problem is
solved by an internal exact branch-and-bound over the ambient integer
coordinates.  Every feasible point lies in the fundamental domain, so
the adjugate inequalities 0 <= adj·x < det bound the search; the
default mode sweeps the height levels v = 1, 2, ... as equality-
constrained feasibility problems (points at height v lie in the tiny
box around (v/h)·conv(generators), and all levels below the optimum are
empty), which makes optimality proofs cheap.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

from . import linalg as la
from .cone import SimplicialCone, make_simplicial_cone
from .errors import DomainError, InternalConsistencyError
from .linalg import IntVec

STRATEGIES = ("none", "ip", "approx", "ip_then_approx")

HUGE_DET = 10**9  # above this, a failed finder escalates the approximation level


@dataclass(frozen=True)
class SubdivisionConfig:
    volume_bound: int = 10**6
    strategy: str = "ip_then_approx"
    time_limit_scale: Fraction = Fraction(1)  # per-simplex limit: scale·(log10 det)^2 s
    node_limit: int | None = None
    approx_level_cap: int = 3

    def __post_init__(self):
        if self.volume_bound < 1:
            raise DomainError("volume_bound must be at least 1")
        if self.approx_level_cap < 1:
            raise DomainError("approx_level_cap must be at least 1")
        if self.strategy not in STRATEGIES:
            raise DomainError(f"unknown strategy {self.strategy!r}")


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


class _Found(Exception):
    pass


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


class _Search:
    """Depth-first interval branch-and-bound over integer coordinates."""

    def __init__(self, objective, obj_cap, deadline, node_limit):
        self.rows = []
        self.objective = objective
        self.obj_cap = obj_cap
        self.deadline = deadline
        self.node_limit = node_limit
        self.first_feasible = False
        self.nodes = 0
        self.best_val = None
        self.best_pt = None

    def offer(self, x):
        val = la.dot(self.objective, x)
        if val < 1 or val > self.obj_cap or not any(x):
            return
        if self.best_val is None or val < self.best_val:
            self.best_val = val
            self.best_pt = tuple(x)
            if self.first_feasible:
                raise _Found

    def _tick(self):
        self.nodes += 1
        if self.node_limit is not None and self.nodes > self.node_limit:
            raise _Limit
        if self.deadline is not None and self.nodes % 512 == 0 \
                and time.monotonic() > self.deadline:
            raise _Limit

    def _propagate(self, lo, hi):
        changed = True
        while changed:
            changed = False
            cap = self.obj_cap if self.best_val is None else \
                min(self.obj_cap, self.best_val - 1)
            for coeffs, cl, cu in [*self.rows, (self.objective, 1, cap)]:
                mn = mx = 0
                for c, l, h in zip(coeffs, lo, hi):
                    if c > 0:
                        mn += c * l
                        mx += c * h
                    elif c < 0:
                        mn += c * h
                        mx += c * l
                if mn > cu or mx < cl:
                    return False
                for j, c in enumerate(coeffs):
                    if c == 0:
                        continue
                    if c > 0:
                        tmin, tmax = c * lo[j], c * hi[j]
                    else:
                        tmin, tmax = c * hi[j], c * lo[j]
                    up = cu - (mn - tmin)   # c*x_j <= up
                    dn = cl - (mx - tmax)   # c*x_j >= dn
                    if c > 0:
                        nh = up // c
                        nl = _ceil_div(dn, c)
                    else:
                        nh = dn // c
                        nl = _ceil_div(up, c)
                    if nh < hi[j]:
                        hi[j] = nh
                        changed = True
                    if nl > lo[j]:
                        lo[j] = nl
                        changed = True
                    if lo[j] > hi[j]:
                        return False
        return True

    def run(self, lo, hi):
        self._tick()
        lo, hi = list(lo), list(hi)
        if not self._propagate(lo, hi):
            return
        free = [j for j in range(len(lo)) if lo[j] < hi[j]]
        if not free:
            self.offer(lo)
            return
        j = min(free, key=lambda k: (hi[k] - lo[k], k))
        asc = self.objective[j] >= 0
        if hi[j] - lo[j] <= 4:
            values = range(lo[j], hi[j] + 1)
            if not asc:
                values = reversed(values)
            for v in values:
                nlo, nhi = list(lo), list(hi)
                nlo[j] = nhi[j] = v
                self.run(nlo, nhi)
        else:
            mid = (lo[j] + hi[j]) // 2
            halves = [(lo[j], mid), (mid + 1, hi[j])]
            if not asc:
                halves.reverse()
            for a, b in halves:
                nlo, nhi = list(lo), list(hi)
                nlo[j], nhi[j] = a, b
                self.run(nlo, nhi)


def _deadline(cfg: SubdivisionConfig, det: int):
    if cfg.time_limit_scale is None or cfg.time_limit_scale <= 0:
        return None
    budget = float(cfg.time_limit_scale) * math.log10(det) ** 2
    return time.monotonic() + budget


def _probe_incumbent(s: SimplicialCone):
    """Fundamental-domain image of cheap centroids: a fast upper bound."""
    r = s.dim
    det = s.det
    height = s.gen_height
    normal = s.height_normal
    best = None
    acc = [0] * r
    for count, g in enumerate(s.gens, start=1):
        acc = [a + x for a, x in zip(acc, g)]
        p = tuple(a // count for a in acc)
        u = [x % det for x in s.q_numerators(p)]
        e = tuple(sum(u[i] * s.gens[i][j] for i in range(r)) // det
                  for j in range(r))
        if any(e):
            val = la.dot(normal, e)
            if 1 <= val < height and (best is None or val < best[0]):
                best = (val, e)
    return best


class _SlabSolver:
    """Localizes the minimal height by bisection over height slabs.

    A point at height v lies in (v/h)·conv(generators); a slab [a, b] of
    heights therefore has tight coordinate boxes and fundamental-domain
    rows u_i <= det·b/h.  Empty slabs are pruned by one feasibility
    search each, so the minimum is found in O(log h) slab queries, each
    of which only has to exhibit one point or prove none exists.
    """

    def __init__(self, s: SimplicialCone, search: _Search, pos_coord):
        self.s = s
        self.search = search
        self.pos_coord = pos_coord
        r = s.dim
        self.gmin = [min(g[j] for g in s.gens) for j in range(r)]
        self.gmax = [max(g[j] for g in s.gens) for j in range(r)]
        search.first_feasible = True

    def slab_feasible(self, a: int, b: int):
        """Some nonzero lattice point with height in [a, b], or None."""
        s = self.s
        height = s.gen_height
        r = s.dim
        lo, hi = [], []
        for j in range(r):
            lo.append(_ceil_div(min(a * self.gmin[j], b * self.gmin[j]), height))
            hi.append(max(a * self.gmax[j], b * self.gmax[j]) // height)
        if self.pos_coord is not None:
            lo[self.pos_coord] = max(lo[self.pos_coord], 1)
        if any(x > y for x, y in zip(lo, hi)):
            return None
        cap = (s.det * b) // height
        self.search.rows = [(f, 0, cap) for f in s.facet_forms] + \
            [(s.height_normal, a, b)]
        self.search.obj_cap = b
        self.search.best_val = None
        self.search.best_pt = None
        try:
            self.search.run(lo, hi)
        except _Found:
            return self.search.best_pt
        return None

    def minimize(self, a: int, b: int, known=None):
        """Exact minimal-height point in [a, b]; `known` is a feasible
        point in the slab if one was already exhibited."""
        normal = self.s.height_normal
        if known is None:
            known = self.slab_feasible(a, b)
            if known is None:
                return None
        w = la.dot(normal, known)
        while w > a:
            mid = (a + w - 1) // 2
            p = self.slab_feasible(a, mid)
            if p is not None:
                b, known, w = mid, p, la.dot(normal, p)
                continue
            q = self.slab_feasible(mid + 1, w - 1)
            if q is not None:
                a, known, w = mid + 1, q, la.dot(normal, q)
                continue
            return known
        return known


def solve_star_ip(s: SimplicialCone,
                  cfg: SubdivisionConfig = SubdivisionConfig()) -> IpOutcome:
    """Exact minimum of N·x over nonzero lattice points of S below N·gen.

    Feasible points have all generator coordinates in [0,1) (a
    coordinate q_i >= 1 would put x - gen_i in S at negative height), so
    the adjugate rows and the slab boxes bound the search.  The x != 0
    condition is subsumed by the height bound N·x >= 1; a coordinate on
    which all generators are positive additionally gets a lower bound of
    1.  A time or node limit yields LimitReached, never a silently
    suboptimal answer.
    """
    det = s.det
    if det == 1:
        return IpOutcome("infeasible")
    height = s.gen_height
    if height <= 1:
        return IpOutcome("infeasible")
    normal = s.height_normal
    r = s.dim
    pos_coord = next((j for j in range(r) if all(g[j] > 0 for g in s.gens)),
                     None)
    search = _Search(normal, height - 1, _deadline(cfg, det), cfg.node_limit)
    solver = _SlabSolver(s, search, pos_coord)
    try:
        # the lowest levels have the tightest boxes and, for big
        # determinants, almost always contain the optimum: scan them
        # one by one before bisecting the rest
        point = None
        prefix = min(height - 1, 8)
        for v in range(1, prefix + 1):
            point = solver.slab_feasible(v, v)
            if point is not None:
                break
        if point is None and height - 1 > prefix:
            probe = _probe_incumbent(s)
            if probe is not None:
                point = solver.minimize(prefix + 1, probe[0], known=probe[1])
            else:
                point = solver.minimize(prefix + 1, height - 1)
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

    The pieces inherit the anchor of the enclosing triangulation, so
    their half-open exclusions keep the refined union disjoint.  The
    total determinant satisfies sum det(T_i) = det(S)·(N·xhat)/(N·gen).
    """
    xhat = la.as_vec(xhat)
    u = s.q_numerators(xhat)
    if any(x < 0 for x in u):
        raise DomainError("subdivision point lies outside the simplex")
    support = [i for i, x in enumerate(u) if x > 0]
    if not support:
        raise DomainError("subdivision point is zero")
    if len(support) == 1:
        raise DomainError("subdivision point lies on a ray of the simplex")
    pieces = []
    for i in support:
        gens = s.gens[:i] + (xhat,) + s.gens[i + 1:]
        pieces.append(make_simplicial_cone(gens, anchor=s.anchor))
    if sum(p.det for p in pieces) != sum(u[i] for i in support):
        raise InternalConsistencyError("stellar volume identity failed")
    return tuple(pieces)


def recursive_subdivide(s: SimplicialCone, cfg: SubdivisionConfig, finder,
                        on_step=None) -> tuple[SimplicialCone, ...]:
    """Refine until every piece is at or below the volume bound.

    `finder(simplex) -> point | None`; a None terminates refinement of
    that branch (the large simplex is evaluated as is).  `on_step`
    receives (simplex, point, pieces) after every stellar subdivision.
    """
    stack = [s]
    leaves = []
    while stack:
        cur = stack.pop()
        if cur.det <= cfg.volume_bound:
            leaves.append(cur)
            continue
        xhat = finder(cur)
        if xhat is None:
            leaves.append(cur)
            continue
        if la.dot(cur.height_normal, xhat) >= cur.gen_height:
            raise DomainError("finder returned a point at generator height")
        u = cur.q_numerators(xhat)
        support = [i for i, x in enumerate(u) if x > 0]
        if len(support) == 1:
            # point inside a non-primitive ray: shorten that generator
            # (same cone, strictly smaller determinant, same exclusions)
            i = support[0]
            gens = cur.gens[:i] + (la.as_vec(xhat),) + cur.gens[i + 1:]
            pieces = (make_simplicial_cone(gens, anchor=cur.anchor),)
        else:
            pieces = stellar_subdivide(cur, xhat)
        if on_step is not None:
            on_step(cur, xhat, pieces)
        stack.extend(reversed(pieces))
    return tuple(leaves)
