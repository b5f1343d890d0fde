import random
import time
from fractions import Fraction
from itertools import product
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conekit import linalg as la, subdivide as subdivide_module
from conekit.collect import StatsRecord, reduce_to_hilbert_basis
from conekit.cone import make_simplicial_cone, stacked
from conekit.errors import DomainError
from conekit.pipeline import make_finder
from conekit.simplex import hb_candidates
from conekit.subdivide import (
    IpOutcome, SubdivisionConfig, best_candidate, recursive_subdivide,
    solve_star_ip, stellar_subdivide,
)

from oracles import (brute_star_minimum, dotv, fundamental_points, generator_sum,
                     in_half_open, minor_det, stellar_tree, sweep_propagate)


def simplex(gens):
    return make_simplicial_cone(gens)


class TestHeightNormal:
    def test_quadrant(self):
        assert simplex(((1, 0), (0, 1))).height_normal == (1, 1)

    def test_cone35(self):
        s = simplex(((1, 0), (3, 5)))
        assert s.height_normal == (5, -2)
        assert s.gen_height == 5

    def test_unit_simplex_3d(self):
        assert simplex(la.identity(3)).height_normal == (1, 1, 1)

    def test_equal_on_generators(self):
        s = simplex(((2, 1), (3, 7)))
        n = s.height_normal
        vals = {dotv(n, g) for g in s.gens}
        assert len(vals) == 1 and vals.pop() > 0

    def test_sum_of_determinants_proportionality(self):
        gens = ((1, 0), (3, 5))
        s = simplex(gens)
        n = s.height_normal
        h = s.gen_height
        for x in [(1, 1), (2, 3), (4, 4), (7, 2)]:
            total = 0
            for i in range(2):
                repl = list(map(list, gens))
                repl[i] = list(x)
                total += abs(minor_det(repl))
            if all(v >= 0 for v in s.q_numerators(x)):
                assert total * h == dotv(n, x) * s.det


class TestConfig:
    @pytest.mark.parametrize("name, value", [
        ("time_limit_scale", Fraction(-1, 10**9)), ("node_limit", -1)])
    def test_negative_budget_rejected(self, name, value):
        with pytest.raises(DomainError, match=f"{name} must be nonnegative"):
            SubdivisionConfig(**{name: value})


class TestSolveStarIp:
    def test_unimodular_infeasible(self):
        assert solve_star_ip(simplex(((1, 0), (0, 1)))).status == "infeasible"

    def test_cone35(self):
        out = solve_star_ip(simplex(((1, 0), (3, 5))))
        assert out.is_optimal
        assert out.point == (1, 1)
        assert out.value == 3

    def test_height_one_infeasible(self):
        out = solve_star_ip(simplex(((1, 0), (1, 2))))
        assert out.status == "infeasible"

    def test_node_limit(self):
        cfg = SubdivisionConfig(node_limit=0)
        out = solve_star_ip(simplex(((2, 1), (3, 70))), cfg)
        assert out.status == "limit"
        out = solve_star_ip(simplex(((2, 1), (3, 70))))
        assert out.is_optimal and out.value == 46

    def test_wall_clock_limit(self, monkeypatch):
        # the clock is read at every 512th node: with a deadline already
        # past and no node limit, ticks 1-511 pass and tick 512 raises
        search = subdivide_module._Search(time.monotonic() - 1, None)
        for _ in range(511):
            search._tick()
        with pytest.raises(subdivide_module._Limit):
            search._tick()
        assert search.nodes == 512

        def limit(self):
            raise subdivide_module._Limit
        # a raised _Limit becomes the status "limit", never an answer
        monkeypatch.setattr(subdivide_module._Search, "_tick", limit)
        assert solve_star_ip(simplex(((2, 1), (3, 70)))) == IpOutcome("limit")

    @settings(max_examples=60, deadline=None)
    @given(st.tuples(st.integers(-9, 9), st.integers(-9, 9),
                     st.integers(-9, 9), st.integers(-9, 9)))
    def test_matches_brute_force_2d(self, entries):
        a, b, c, d = entries
        if a * d - b * c == 0:
            return
        gens = ((a, b), (c, d))
        s = simplex(gens)
        out = solve_star_ip(s)
        ref = brute_star_minimum(gens, s.height_normal, s.gen_height)
        if ref is None:
            assert out.status == "infeasible"
        else:
            assert out.is_optimal
            assert out.value == ref[0]
            u = s.q_numerators(out.point)
            assert all(0 <= x < s.det for x in u)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3),
                    min_size=3, max_size=3))
    def test_matches_brute_force_3d(self, rows):
        if minor_det(rows) == 0:
            return
        s = simplex(rows)
        out = solve_star_ip(s)
        ref = brute_star_minimum(rows, s.height_normal, s.gen_height)
        if ref is None:
            assert out.status == "infeasible"
        else:
            assert out.is_optimal and out.value == ref[0]


@st.composite
def propagation_rows(draw):
    """Up to 7 rows (coeffs, cl, cu) over a box of up to 6 variables, with
    zero coefficients, coefficients up to 2^70, widths 0 and cl > cu.
    The sides are drawn around the row's activity range on the box, so
    rows that fail, tighten and do nothing all occur."""
    n = draw(st.integers(1, 6))
    size = st.sampled_from([0, 1, 3, 2**20, 2**70])
    lo = [draw(st.integers(-20, 20)) for _ in range(n)]
    hi = [l + draw(st.integers(0, draw(size))) for l in lo]
    rows = []
    for _ in range(draw(st.integers(1, 7))):
        coeffs = [draw(st.integers(-m, m)) for m in draw(st.lists(size, min_size=n,
                                                                  max_size=n))]
        mn = sum(min(c * l, c * h) for c, l, h in zip(coeffs, lo, hi))
        mx = sum(max(c * l, c * h) for c, l, h in zip(coeffs, lo, hi))
        side = st.integers(mn - 3, mx + 3)
        rows.append((coeffs, draw(side), draw(side)))
    return rows, lo, hi


@settings(max_examples=400, deadline=None)
@given(propagation_rows())
def test_propagate_matches_sweep(instance):
    """The slack-skipping propagation gives the textbook sweep's verdict,
    and its box when feasible."""
    rows, lo, hi = instance
    lo2, hi2 = list(lo), list(hi)
    ok = sweep_propagate(rows, lo, hi)
    split = [(*subdivide_module._terms(c), cl, cu) for c, cl, cu in rows]
    assert subdivide_module._propagate(split, lo2, hi2) == ok
    if ok:
        assert (lo2, hi2) == (lo, hi)


# (generators, the smallest node_limit at which the IP is optimal, the
# optimal point, its height).  The node budget is shared by the scan of
# levels 1-8, the search of the whole range above them and every slab
# of the bisection, so one node fewer gives "limit".
NODE_BUDGETS = [
    (((2, 1), (3, 70)), 5, (1, 23), 46),
    (((-8, -3, -6), (17, -16, 17), (9, 17, 11)), 34, (-1, 2, 0), 613),
    # a stellar piece of a series-ip cone: det 500,172, generator height 250,086
    (((29, -7, 7, -25, 6), (-26, 37, 22, -34, 11), (3, 3, 1, -4, -1),
      (-24, 25, 39, -37, 7), (-2, 27, 6, 10, -31)), 39, (-3, 5, 5, -6, 1),
     51286),
]


@pytest.mark.parametrize("gens, nodes, point, value", NODE_BUDGETS)
def test_node_budget(gens, nodes, point, value):
    s = simplex(gens)

    def solve(node_limit):
        return solve_star_ip(s, SubdivisionConfig(
            node_limit=node_limit, time_limit_scale=Fraction(0)))

    assert solve(nodes - 1).status == "limit"
    assert solve(nodes) == solve(None) == IpOutcome("optimal", point, value)


def height_ten_simplex(rng, d, entry, det_lo, det_hi):
    """Cone over a lattice (d-1)-simplex at coordinate sum 10."""
    while True:
        rows = []
        for _ in range(d):
            v = [rng.randint(-entry, entry) for _ in range(d - 1)]
            rows.append(tuple(v + [10 - sum(v)]))
        if all(gcd(*r) == 1 for r in rows) and \
                det_lo <= abs(minor_det(rows)) <= det_hi:
            return simplex(rows)


def min_height_by_enumeration(s):
    """Minimal height of a nonzero fundamental-domain point below the
    generators, or None."""
    pts = fundamental_points(s)
    heights = pts.dot(np.array(s.height_normal, dtype=pts.dtype))
    heights = heights[(heights > 0) & (heights < s.gen_height)]
    return int(heights.min()) if len(heights) else None


@pytest.mark.parametrize("d, entry, det_lo, det_hi",
                         [(4, 20, 5 * 10**4, 10**5), (5, 12, 2 * 10**4, 6 * 10**4)])
def test_star_ip_on_stellar_pieces(d, entry, det_lo, det_hi):
    """The IP's optimum is the enumerated minimum on a height-10 simplex
    and on its pieces one and two stellar steps down, whose generator
    heights reach the thousands."""
    rng = random.Random(d)
    cfg = SubdivisionConfig(time_limit_scale=Fraction(0))
    checked = 0
    for _ in range(3):
        pieces = [height_ten_simplex(rng, d, entry, det_lo, det_hi)]
        for depth in range(3):
            deeper = []
            for s in pieces:
                out = solve_star_ip(s, cfg)
                assert out.value == min_height_by_enumeration(s)
                assert out.status == ("infeasible" if out.value is None else "optimal")
                if depth > 0 and s.gen_height > 100:
                    checked += 1
                if out.is_optimal and depth < 2:
                    deeper.extend(stellar_subdivide(s, out.point))
            pieces = deeper
    assert checked >= 15


def test_star_ip_within_node_budget():
    """Three height-10 simplices whose ambient-coordinate search runs past
    500 nodes: in reduced coordinates each IP is optimal within them, at
    the enumerated minimum."""
    rng = random.Random(8)
    cfg = SubdivisionConfig(node_limit=500, time_limit_scale=Fraction(0))
    for _ in range(3):
        s = height_ten_simplex(rng, 5, 40, 2 * 10**5, 6 * 10**5)
        out = solve_star_ip(s, cfg)
        assert out.is_optimal
        assert out.value == min_height_by_enumeration(s)


class TestStellarSubdivide:
    def test_cone35(self):
        s = simplex(((1, 0), (3, 5)))
        pieces = stellar_subdivide(s, (1, 1))
        assert sorted(p.det for p in pieces) == [1, 2]
        gens = {p.gens for p in pieces}
        assert ((1, 1), (3, 5)) in gens
        assert ((1, 0), (1, 1)) in gens

    def test_point_on_facet_gives_fewer_pieces(self):
        s = simplex(la.identity(3))
        pieces = stellar_subdivide(s, (0, 1, 1))
        assert len(pieces) == 2
        assert all(p.det == 1 for p in pieces)

    def test_volume_identity(self):
        s = simplex(((1, 0), (3, 5)))
        pieces = stellar_subdivide(s, (1, 1))
        n, h = s.height_normal, s.gen_height
        assert sum(p.det for p in pieces) * h == s.det * dotv(n, (1, 1))

    def test_outside_rejected(self):
        s = simplex(((1, 0), (3, 5)))
        with pytest.raises(DomainError):
            stellar_subdivide(s, (0, 1))

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            stellar_subdivide(simplex(((1, 0), (3, 5))), (0, 0))

    def test_ray_point_rejected(self):
        with pytest.raises(DomainError):
            stellar_subdivide(simplex(((1, 0), (3, 5))), (2, 0))
        with pytest.raises(DomainError):
            stellar_subdivide(simplex(((1, 0), (3, 5))), (1, 0))

    def test_point_inside_ray_shortens_generator(self):
        pieces = stellar_subdivide(simplex(((2, 0), (1, 3))), (1, 0))
        assert [(p.gens, p.det) for p in pieces] == [(((1, 0), (1, 3)), 3)]

    def test_half_open_cover_preserved(self):
        s = simplex(((2, 1), (3, 7)))
        pieces = stellar_subdivide(s, (1, 1))
        anchor = generator_sum(s.gens)
        for x in product(range(0, 15), repeat=2):
            inside = in_half_open(s, x, anchor)
            assert sum(in_half_open(p, x, anchor) for p in pieces) == (1 if inside else 0)


def ip_finder(cfg):
    def find(s):
        out = solve_star_ip(s, cfg)
        return (out.point,) if out.is_optimal else ()
    return find


class TestRecursiveSubdivide:
    def test_below_bound_untouched(self):
        s = simplex(((1, 0), (3, 5)))
        cfg = SubdivisionConfig(volume_bound=5, strategy="ip")
        leaves = recursive_subdivide(s, cfg, ip_finder(cfg))
        assert leaves == (s,)

    def test_cone35_bound_two(self, monkeypatch):
        s = simplex(((1, 0), (3, 5)))
        cfg = SubdivisionConfig(volume_bound=2, strategy="ip")
        calls = []

        def step(cur, xhat):
            calls.append((cur, xhat))
            return stellar_subdivide(cur, xhat)

        monkeypatch.setattr(subdivide_module, "stellar_subdivide", step)
        leaves = recursive_subdivide(s, cfg, ip_finder(cfg))
        assert sorted(p.det for p in leaves) == [1, 2]
        assert sum(p.det for p in leaves) == 3
        assert len(calls) == 1

    def test_unimodular_stays(self):
        s = simplex(((1, 0), (0, 1)))
        cfg = SubdivisionConfig(volume_bound=1, strategy="ip")
        leaves = recursive_subdivide(s, cfg, ip_finder(cfg))
        assert leaves == (s,)

    def test_monotone_improvement(self):
        s = simplex(((2, 1), (3, 70)))
        cfg = SubdivisionConfig(volume_bound=10, strategy="ip")
        leaves = recursive_subdivide(s, cfg, ip_finder(cfg))
        assert sum(p.det for p in leaves) < s.det
        assert all(p.det <= max(10, s.det) for p in leaves)

    @settings(max_examples=20, deadline=None)
    @given(st.tuples(st.integers(-7, 7), st.integers(-7, 7),
                     st.integers(-7, 7), st.integers(-7, 7)),
           st.sampled_from([2, 10, 100]))
    def test_half_open_cover_after_subdivision(self, entries, bound):
        a, b, c, d = entries
        if a * d - b * c == 0:
            return
        s = simplex(((a, b), (c, d)))
        cfg = SubdivisionConfig(volume_bound=bound, strategy="ip")
        leaves = recursive_subdivide(s, cfg, ip_finder(cfg))
        assert sum(p.det for p in leaves) <= s.det
        anchor = generator_sum(s.gens)
        for x in product(range(-10, 11), repeat=2):
            inside = in_half_open(s, x, anchor)
            assert sum(in_half_open(p, x, anchor) for p in leaves) == (1 if inside else 0)


def test_subdivision_node_counts(monkeypatch):
    """Two height-10 simplices cut down to volume 10^4 by the star IP:
    the IPs, their search nodes, the leaves and the leaves' volume are
    pinned, so a propagation change that moves any box shows here."""
    searches = []

    class Counted(subdivide_module._Search):
        def __init__(self, *args):
            super().__init__(*args)
            searches.append(self)

    monkeypatch.setattr(subdivide_module, "_Search", Counted)
    rng = random.Random(18)
    cfg = SubdivisionConfig(volume_bound=10**4, strategy="ip", node_limit=500,
                            time_limit_scale=Fraction(0))
    counts = []
    for _ in range(2):
        s = height_ten_simplex(rng, 5, 40, 4 * 10**6, 6 * 10**6)
        searches.clear()
        leaves = recursive_subdivide(s, cfg, ip_finder(cfg))
        counts.append((len(searches), sum(x.nodes for x in searches),
                       len(leaves), sum(p.det for p in leaves)))
    assert counts == [(8, 241, 33, 72568), (10, 511, 41, 85114)]


def test_approx_pool_lowers_volume():
    """Three height-10 simplices under the approximation: cutting the
    pieces at the candidates their parents found, instead of asking the
    overcone of each piece again (which misses), leaves strictly less
    volume, and the leaves still give the simplex's Hilbert basis."""
    rng = random.Random(12)
    cfg = SubdivisionConfig(volume_bound=10**4, strategy="approx")
    for _ in range(3):
        s = height_ten_simplex(rng, 5, 40, 2 * 10**5, 6 * 10**5)
        find = make_finder(cfg, StatsRecord())
        pooled = recursive_subdivide(s, cfg, find)
        oracle = stellar_tree(s, cfg, lambda t: best_candidate(t, find(t)))
        assert sum(p.det for p in pooled) < sum(p.det for p in oracle)
        cands = hb_candidates(stacked(pooled, s.dim))
        direct = reduce_to_hilbert_basis(hb_candidates(stacked([s], s.dim)), s.facet_forms)
        assert set(reduce_to_hilbert_basis(cands, s.facet_forms)) == set(direct)
