from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from conekit import linalg as la
from conekit.approx import (
    approx_candidates, approximate_cone, best_candidate, cross_section,
    minimal_cube_face_vertices,
)
from conekit.collect import reduce_to_hilbert_basis
from conekit.cone import dual_description, make_simplicial_cone
from conekit.simplex import hb_candidates
from conekit.subdivide import SubdivisionConfig, recursive_subdivide

from oracles import dotv, filter_approx_candidates


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
            cs = cross_section(s, level)
            for v in cs.vertices:
                assert sum(Fraction(n) * x for n, x in
                           zip(cs.height_form, v)) == level

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                    min_size=3, max_size=3),
           st.sampled_from([1, 2, 3]))
    def test_overcone_contains_simplex(self, rows, level):
        if la.determinant(la.as_mat(rows)) == 0:
            return
        s = simplex(rows)
        over = approximate_cone(s, level)
        forms, _ = dual_description(over)
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
    """approx_candidates with the candidates filtered as tuples."""
    over = approximate_cone(s, level)
    _, tri = dual_description(over, want_triangulation=True)
    cands = list(over)
    for idx in tri:
        sub = make_simplicial_cone(tuple(over[i] for i in idx))
        if sub.det >= max(2, s.det):
            return ()
        cands.extend(tuple(int(a) for a in x) for x in hb_candidates(sub))
    survivors = filter_approx_candidates(cands, s.facet_forms, s.height_normal,
                                         s.gen_height)
    return reduce_to_hilbert_basis(survivors, s.facet_forms)


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
        assume(la.determinant(la.as_mat(rows)) != 0)
        s = simplex([[scale * x for x in r] for r in rows])
        assert approx_candidates(s, level) == tuple_approx_candidates(s, level)


def approx_finder(cfg):
    def find(s):
        return best_candidate(s, approx_candidates(s, 1))
    return find


class TestApproxDrivenSubdivision:
    def test_volume_reduced(self):
        s = simplex(((2, 1), (3, 70)))
        cfg = SubdivisionConfig(volume_bound=10, strategy="approx")
        leaves = recursive_subdivide(s, cfg, approx_finder(cfg))
        assert sum(p.det for p in leaves) < s.det

    def test_matches_ip_pipeline_results(self):
        from conekit.subdivide import solve_star_ip

        s = simplex(((2, 1), (3, 70)))
        cfg = SubdivisionConfig(volume_bound=10, strategy="approx")

        def ip_find(t):
            out = solve_star_ip(t, cfg)
            return out.point if out.is_optimal else None

        basis = {}
        for name, finder in [("approx", approx_finder(cfg)), ("ip", ip_find)]:
            leaves = recursive_subdivide(s, cfg, finder)
            cands = np.vstack([hb_candidates(leaf) for leaf in leaves])
            basis[name] = set(reduce_to_hilbert_basis(cands, s.facet_forms))
        direct = set(reduce_to_hilbert_basis(hb_candidates(s), s.facet_forms))
        assert basis["approx"] == basis["ip"] == direct
