import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conekit import approx
from conekit.approx import (
    approx_candidates, approximate_cone, cross_section,
    minimal_cube_face_vertices,
)
from conekit.collect import StatsRecord, reduce_to_hilbert_basis
from conekit.cone import build_simplices, dual_description, make_simplicial_cone
from conekit.errors import InternalConsistencyError
from conekit.simplex import POINT_BUDGET, hb_candidates
from conekit.pipeline import make_finder
from conekit.subdivide import (APPROX_LEVEL_CAP, HUGE_DET, SubdivisionConfig,
                               best_candidate, recursive_subdivide, solve_star_ip)

from oracles import (dotv, filter_approx_candidates, fundamental_points, minor_det,
                     staircase_face_vertices, sweep_all_approx_candidates)


def simplex(gens):
    return make_simplicial_cone(gens)


class TestCubeFaceVertices:
    def test_lattice_point(self):
        assert minimal_cube_face_vertices((2, -3)) == ((2, -3),)

    def test_fifth(self):
        assert set(minimal_cube_face_vertices((Fraction(1, 5), 0))) == \
            {(0, 0), (1, 0)}

    def test_three_fifths_one(self):
        assert set(minimal_cube_face_vertices((Fraction(3, 5), 1))) == \
            {(0, 1), (1, 1)}

    def test_tie_collapses(self):
        got = set(minimal_cube_face_vertices((Fraction(1, 2), Fraction(1, 2))))
        assert got == {(0, 0), (1, 1)}

    def test_generic_interior_point(self):
        got = set(minimal_cube_face_vertices((Fraction(1, 3), Fraction(2, 3))))
        assert got == {(0, 0), (0, 1), (1, 1)}

    @settings(max_examples=120, deadline=None)
    @given(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=12),
                    min_size=1, max_size=5))
    def test_barycentric_reconstruction(self, v):
        v = tuple(v)
        verts = minimal_cube_face_vertices(v)
        d = len(v)
        # recompute the weights the staircase construction implies
        base = tuple(x.__floor__() for x in v)
        frac = [x - b for x, b in zip(v, base)]
        order = sorted(range(d), key=lambda i: (-frac[i], i))
        lambdas = [1 - frac[order[0]]]
        for k in range(1, d):
            lambdas.append(frac[order[k - 1]] - frac[order[k]])
        lambdas.append(frac[order[-1]])
        kept = [w for w, lam in zip(_chain(base, order), lambdas) if lam > 0]
        assert tuple(kept) == verts
        pos = [lam for lam in lambdas if lam > 0]
        assert sum(pos) == 1
        recon = [sum(lam * w[j] for lam, w in zip(pos, verts)) for j in range(d)]
        assert tuple(recon) == v
        assert len(verts) <= d + 1

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.integers(-3, 3),
                              st.fractions(min_value=-5, max_value=5, max_denominator=6),
                              st.fractions(min_value=-5, max_value=5)),
                    max_size=6))
    def test_matches_barycentric_weights(self, v):
        # the weights' reference construction, ties and lattice entries included
        assert minimal_cube_face_vertices(v) == staircase_face_vertices(v)


def _chain(base, order):
    w = list(base)
    out = [tuple(w)]
    for i in order:
        w[i] += 1
        out.append(tuple(w))
    return out


class TestApproximateCone:
    def test_cone35_level_one(self):
        over = approximate_cone(simplex(((1, 0), (3, 5))))
        assert set(over) == {(1, 0), (0, 1), (1, 1)}

    def test_unimodular_self(self):
        over = approximate_cone(simplex(((1, 0), (0, 1))))
        assert set(over) == {(1, 0), (0, 1)}

    def test_height_one_generators_give_self(self):
        gens = ((1, 0, 0), (1, 2, 0), (1, 1, 3))
        s = simplex(gens)
        assert s.height_normal == (1, 0, 0)
        over = approximate_cone(s)
        assert set(over) == set(gens)

    def test_cross_section_heights(self):
        s = simplex(((2, 1), (3, 7)))
        for level in (1, 2, 3):
            for v in cross_section(s, level):
                assert sum(Fraction(n) * x for n, x in
                           zip(s.height_normal, v)) == level

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                    min_size=3, max_size=3),
           st.sampled_from([1, 2, 3]))
    def test_overcone_contains_simplex(self, rows, level):
        if minor_det(rows) == 0:
            return
        s = simplex(rows)
        over = approximate_cone(s, level)
        forms, _, _ = dual_description(over)
        for g in s.gens:
            assert all(dotv(f, g) >= 0 for f in forms)


class TestApproxCandidates:
    def test_cone35(self):
        assert approx_candidates(simplex(((1, 0), (3, 5)))) == ((1, 1),)

    def test_unimodular_empty(self):
        assert approx_candidates(simplex(((1, 0), (0, 1)))) == ()

    def test_height_one_empty(self):
        assert approx_candidates(simplex(((1, 0), (1, 2)))) == ()

    def test_soundness(self):
        for gens in [((2, 1), (3, 7)), ((5, 2), (3, 11)),
                     ((1, 0, 0), (1, 4, 0), (1, 1, 7))]:
            s = simplex(gens)
            for level in (1, 2):
                for b in approx_candidates(s, level):
                    assert any(b)
                    assert all(dotv(f, b) >= 0 for f in s.facet_forms)
                    assert dotv(s.height_normal, b) < s.gen_height

    def test_best_candidate_deterministic(self):
        s = simplex(((2, 1), (3, 7)))
        cands = approx_candidates(s)
        b = best_candidate(s, cands)
        assert b is not None
        assert b in cands
        heights = [dotv(s.height_normal, c) for c in cands]
        assert dotv(s.height_normal, b) == min(heights)

    def test_empty_best(self):
        assert best_candidate(simplex(((1, 0), (0, 1))), ()) is None


def tuple_approx_candidates(s, level):
    """approx_candidates with the candidates filtered as tuples, every
    overcone simplex evaluated (unimodular ones too)."""
    over = approximate_cone(s, level)
    _, _, tri = dual_description(over)
    cands = list(over)
    for idx in tri:
        sub = make_simplicial_cone(tuple(over[i] for i in idx))
        if sub.det >= max(2, s.det):
            return ()
        cands.extend(tuple(int(a) for a in x) for x in hb_candidates(sub))
    survivors = filter_approx_candidates(cands, s.facet_forms, s.height_normal,
                                         s.gen_height)
    return tuple(sorted(survivors))


class TestApproxFilterProperty:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 3).flatmap(lambda d: st.lists(
               st.lists(st.integers(-9, 9), min_size=d, max_size=d),
               min_size=d, max_size=d)),
           st.sampled_from([1, 2]),
           st.sampled_from([1, 1, 2**40 + 1]))
    def test_matches_tuple_filter(self, rows, level, scale):
        # scaling the generators keeps the overcone but pushes the facet
        # forms past int64 in dimension 3
        assume(minor_det(rows) != 0)
        s = simplex([[scale * x for x in r] for r in rows])
        assert approx_candidates(s, level) == tuple_approx_candidates(s, level)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 4).flatmap(lambda d: st.lists(
               st.lists(st.integers(-9, 9), min_size=d, max_size=d),
               min_size=d, max_size=d)),
           st.sampled_from([1, 2, 3]),
           st.sampled_from([1, 1, 2**40 + 1]))
    def test_best_candidate_is_minimal(self, rows, level, scale):
        # the lowest candidate survives reduction, so reducing first
        # would pick the same point
        assume(minor_det(rows) != 0)
        s = simplex([[scale * x for x in r] for r in rows])
        cands = approx_candidates(s, level)
        reduced = reduce_to_hilbert_basis(cands, s.facet_forms)
        assert bool(cands) == bool(reduced)
        assert best_candidate(s, cands) == best_candidate(s, reduced)

    def test_not_an_overcone_raises(self):
        # cone((1,0),(1,1)) misses the generator (3,7)
        s = simplex(((2, 1), (3, 7)))
        with mock.patch.object(approx, "minimal_cube_face_vertices",
                               lambda v: ((1, 0), (1, 1))):
            with pytest.raises(InternalConsistencyError, match="overcone"):
                approx_candidates(s)


def separating_form(s, sub):
    """Whether a form of s is negative on every generator of sub, or a
    form of sub on every generator of s."""
    return any(all(dotv(f, g) < 0 for g in b.gens) for a, b in ((s, sub), (sub, s))
               for f in a.facet_forms)


def lattice_simplex_cone(rng, d, h, entry, det_lo, det_hi):
    """A cone over a lattice (d-1)-simplex at height h, primitive rows,
    drawn as acceptance criterion 8 draws its instances."""
    while True:
        rows = []
        for _ in range(d):
            v = [rng.randint(-entry, entry) for _ in range(d - 1)]
            rows.append(tuple(v) + (h - sum(v),))
        if all(gcd(*r) == 1 for r in rows) and det_lo <= abs(minor_det(rows)) <= det_hi:
            return simplex(rows)


class TestSeparatedSkip:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 5).flatmap(lambda d: st.lists(
               st.lists(st.integers(-(12 // d), 12 // d), min_size=d, max_size=d),
               min_size=d, max_size=d)),
           st.sampled_from([1, 2]))
    def test_matches_full_sweep(self, rows, level):
        assume(minor_det(rows) != 0)
        s = simplex(rows)
        assert approx_candidates(s, level) == sweep_all_approx_candidates(s, level)

    def test_criterion_8_tiny_instances(self):
        # cones of d = 5 over simplices at height 10, as criterion 8 draws
        # them, with det in [10^3, 10^4] instead of [2·10^7, 7·10^7]
        rng = random.Random(108)
        found = 0
        for _ in range(5):
            s = lattice_simplex_cone(rng, 5, 10, 4, 10**3, 10**4)
            for level in (1, 2, 3):
                cands = approx_candidates(s, level)
                assert cands == sweep_all_approx_candidates(s, level)
                found += bool(cands)
        assert found

    def test_separated_simplex_is_not_swept(self):
        # det 12: four simplices of the level-1 overcone have det > 1; the
        # last, of det 2, has the form (-6, -6, 6) of s at -6, -6, -12 on
        # its generators, and its one nonzero fundamental point (0, 1, 1)
        # lies outside s
        s = simplex(((2, -4, 1), (-3, 5, 5), (-2, 4, 5)))
        over = approximate_cone(s)
        big = [t for t in build_simplices(over, dual_description(over)[2]) if t.det > 1]
        assert [t.det for t in big] == [2, 4, 2, 2]
        assert [separating_form(s, t) for t in big] == [False, False, False, True]
        outside = big[-1]
        assert outside.gens == ((1, -1, 0), (-1, 2, 2), (0, 2, 2))
        point = tuple(fundamental_points(outside)[1])
        assert point == (0, 1, 1) and min(s.q_numerators(point)) < 0
        with mock.patch.object(approx, "hb_candidates",
                               wraps=approx.hb_candidates) as swept:
            cands = approx_candidates(s)
        assert [t.gens for t in (c.args[0] for c in swept.call_args_list)] == \
            [t.gens for t in big[:3]]
        assert cands == sweep_all_approx_candidates(s) == ((0, 0, 1),)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 4).flatmap(lambda d: st.lists(
               st.lists(st.integers(-9, 9), min_size=d, max_size=d),
               min_size=d, max_size=d)),
           st.sampled_from([1, 2]))
    def test_separated_mask_matches_forms(self, rows, level):
        assume(minor_det(rows) != 0)
        s = simplex(rows)
        over = approximate_cone(s, level)
        subs = list(build_simplices(over, dual_description(over)[2]))
        assert approx.separated(s, subs).tolist() == [separating_form(s, t) for t in subs]


def approx_finder(cfg):
    def find(s):
        return approx_candidates(s, 1)
    return find


class TestApproxDrivenSubdivision:
    def test_volume_reduced(self):
        s = simplex(((2, 1), (3, 70)))
        cfg = SubdivisionConfig(volume_bound=10, strategy="approx")
        leaves = recursive_subdivide(s, cfg, approx_finder(cfg))
        assert sum(p.det for p in leaves) < s.det

    def test_matches_ip_pipeline_results(self):
        s = simplex(((2, 1), (3, 70)))
        cfg = SubdivisionConfig(volume_bound=10, strategy="approx")

        def ip_find(t):
            out = solve_star_ip(t, cfg)
            return (out.point,) if out.is_optimal else ()

        basis = {}
        for name, finder in [("approx", approx_finder(cfg)), ("ip", ip_find)]:
            leaves = recursive_subdivide(s, cfg, finder)
            cands = np.vstack([hb_candidates(leaf) for leaf in leaves])
            basis[name] = set(reduce_to_hilbert_basis(cands, s.facet_forms))
        direct = set(reduce_to_hilbert_basis(hb_candidates(s), s.facet_forms))
        assert basis["approx"] == basis["ip"] == direct


def overcone_points(s, level):
    """Total det of the overcone simplices approx_candidates evaluates."""
    over = approximate_cone(s, level)
    _, _, tri = dual_description(over)
    dets = [simplex(tuple(over[i] for i in idx)).det for idx in tri]
    return sum(d for d in dets if d > 1)


def segment_cones(rng, count, det_lo, det_hi):
    """d = 2 cones over lattice segments at height h in [1000, 3000] with
    det = h·k in (det_lo, det_hi].  The overcone pieces of levels 1-3
    stay near det·(level/h)^2, so evaluating them is cheap; each cone is
    checked to fit POINT_BUDGET at every level."""
    out = []
    while len(out) < count:
        h = rng.randint(1000, 3000)
        a = rng.randint(-10**7, 10**7)
        k = rng.randint(det_lo // h + 1, det_hi // h)
        if gcd(a, h) == 1 and gcd(a + k, h) == 1:
            s = simplex(((a, h - a), (a + k, h - a - k)))
            assert all(overcone_points(s, level) <= POINT_BUDGET
                       for level in range(1, APPROX_LEVEL_CAP + 1))
            out.append(s)
    return out


def first_level_candidates(s):
    """(level, candidates) of the first approximation level with any."""
    for level in range(1, APPROX_LEVEL_CAP + 1):
        cands = approx_candidates(s, level)
        if cands:
            return level, cands
    return 0, ()


class TestHugeDetFinder:
    CFG = SubdivisionConfig(strategy="ip", node_limit=0)

    def test_ip_limit_escalates_approximation(self):
        levels = []
        for s in segment_cones(random.Random(4), 40, HUGE_DET, 10 * HUGE_DET):
            assert s.det > HUGE_DET
            assert solve_star_ip(s, self.CFG).status == "limit"
            stats = StatsRecord()
            level, cands = first_level_candidates(s)
            assert make_finder(self.CFG, stats)(s) == cands
            assert stats.approx_levels_used == level
            assert stats.ips_solved == 1
            levels.append(level)
        assert max(levels) >= 2

    def test_ip_limit_below_huge_det_gives_nothing(self):
        for s in segment_cones(random.Random(5), 10, HUGE_DET // 10, HUGE_DET):
            assert s.det <= HUGE_DET
            assert solve_star_ip(s, self.CFG).status == "limit"
            assert first_level_candidates(s)[1]
            stats = StatsRecord()
            assert make_finder(self.CFG, stats)(s) == ()
            assert stats.approx_levels_used == 0


# d = 2 cones over segments at generator heights 3 and 11, det 8.5·10^9
# and 3.6·10^9: each has a level-1 overcone simplex far above POINT_BUDGET
# (det 1,888,888,884 and 29,752,065), whose enumeration would need
# gigabytes
OVER_BUDGET = (((-5, 8), (2833333328, -2833333325)),
               ((-5, 16), (327272722, -327272711)))

GUARD_CHILD = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from conekit.approx import approx_candidates
from conekit.cone import make_simplicial_cone
for gens in {gens!r}:
    print(approx_candidates(make_simplicial_cone(gens), 1))
"""


class TestApproxMemoryGuard:
    def test_cones_exceed_budget(self):
        for gens in OVER_BUDGET:
            s = simplex(gens)
            assert s.det > HUGE_DET
            assert overcone_points(s, 1) > POINT_BUDGET

    def test_over_budget_returns_empty_within_one_gib(self):
        # a child process under its own 1 GiB address-space limit: the
        # unguarded enumeration raises MemoryError there instead of
        # exhausting the machine
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", GUARD_CHILD.format(gens=OVER_BUDGET)],
                             capture_output=True, text=True, env=env, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["()", "()"]
