from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conekit import linalg as la, simplex as simplex_module
from conekit.cone import make_simplicial_cone
from conekit.errors import DomainError, InternalConsistencyError
from conekit.simplex import (
    _residue_axes, fundamental_points, half_open_shift, hb_candidates,
    residue_blocks, series_contribution,
)

from oracles import brute_fundamental_points, dotv, explicit_residue_axes, minor_det


def simplex(gens):
    return make_simplicial_cone(gens)


def rows(points):
    """Rows of a point array as sorted tuples of Python ints."""
    return sorted(tuple(int(x) for x in p) for p in points)


class TestFundamentalPoints:
    def test_unimodular(self):
        pts = fundamental_points(simplex(((1, 0), (0, 1))))
        assert pts.shape == (1, 2)
        assert rows(pts) == [(0, 0)]

    def test_det_two(self):
        assert rows(fundamental_points(simplex(((1, 0), (1, 2))))) == [(0, 0), (1, 1)]

    def test_cone35(self):
        assert rows(fundamental_points(simplex(((1, 0), (3, 5))))) == \
            [(0, 0), (1, 1), (2, 2), (2, 3), (3, 4)]

    def test_matches_grid_oracle(self):
        for gens in [((2, 1), (3, 7)), ((1, -2), (4, 1)), ((5, 3), (2, 4)),
                     ((1, 0, 0), (1, 2, 0), (1, 1, 3))]:
            assert rows(fundamental_points(simplex(gens))) == \
                brute_fundamental_points(gens)

    def test_block_streaming_consistent(self):
        # one residue axis, then two; a block of 3 splits both sweeps
        for gens, deg in [(((2, 1), (3, 17)), (1, 0)),
                          (((2, 0, 1), (0, 2, 1), (0, 0, 4)), (0, 0, 1))]:
            s = simplex(gens)
            big = fundamental_points(s), series_contribution(s, deg), hb_candidates(s)
            with mock.patch.object(simplex_module, "DEFAULT_BLOCK", 3):
                small = (fundamental_points(s), series_contribution(s, deg),
                         hb_candidates(s))
                assert len(list(residue_blocks(s))) == -(-s.det // 3)
            assert np.array_equal(small[0], big[0])
            assert small[1] == big[1]
            assert np.array_equal(small[2], big[2])

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=n, max_size=n)))
    def test_count_equals_determinant(self, rows_):
        det = la.determinant(la.as_mat(rows_))
        if det == 0:
            return
        s = simplex(rows_)
        pts = rows(fundamental_points(s))
        assert len(pts) == abs(det)
        # all q-coordinates in [0,1), exactly
        for p in pts:
            u = s.q_numerators(p)
            assert all(0 <= x < s.det for x in u)
        assert len(set(pts)) == len(pts)

    def test_distinct_modulo_generator_lattice(self):
        s = simplex(((2, 1), (3, 7)))
        # p ≡ p' modulo Z·g1 + Z·g2 iff their q-coordinates agree mod 1,
        # i.e. their q numerators agree mod det
        classes = {tuple(x % s.det for x in s.q_numerators(p))
                   for p in rows(fundamental_points(s))}
        assert len(classes) == s.det


class TestHalfOpenShift:
    def test_closed_simplex_unchanged(self):
        s = simplex(((1, 0), (1, 2)))
        assert half_open_shift((1, 1), s) == (1, 1)
        assert half_open_shift((0, 0), s) == (0, 0)

    def test_shift_on_excluded_facet(self):
        base = simplex(((1, 0), (1, 2)))
        s = replace(base, excluded_facets=frozenset({0}))
        assert half_open_shift((0, 0), s) == (1, 0)
        assert half_open_shift((1, 1), s) == (1, 1)

    def test_outside_domain_rejected(self):
        s = simplex(((1, 0), (1, 2)))
        with pytest.raises(DomainError):
            half_open_shift((5, 0), s)
        with pytest.raises(DomainError):
            half_open_shift((-1, 0), s)


class TestSeriesContribution:
    def test_unimodular_orthant(self):
        c = series_contribution(simplex(((1, 0), (0, 1))), (1, 1))
        assert c.numerator == (1,)
        assert c.denom_degrees == (1, 1)

    def test_det_two(self):
        c = series_contribution(simplex(((1, 0), (1, 2))), (1, 0))
        assert c.numerator == (1, 1)
        assert c.denom_degrees == (1, 1)

    def test_cone35(self):
        c = series_contribution(simplex(((1, 0), (3, 5))), (1, 0))
        assert c.numerator == (1, 1, 2, 1)
        assert c.denom_degrees == (1, 3)

    def test_coefficient_sum_is_det(self):
        for gens in [((2, 1), (3, 7)), ((1, 0, 0), (1, 2, 0), (1, 1, 3))]:
            s = simplex(gens)
            deg = (1,) * len(gens)
            if any(dotv(g, deg) <= 0 for g in gens):
                continue
            c = series_contribution(s, deg)
            assert sum(c.numerator) == s.det

    def test_half_open_counts_match_shift(self):
        base = simplex(((1, 0), (3, 5)))
        s = replace(base, excluded_facets=frozenset({1}))
        deg = (1, 0)
        c = series_contribution(s, deg)
        # brute: shift each fundamental point, histogram its degree
        hist = {}
        for p in rows(fundamental_points(s)):
            d = dotv(half_open_shift(p, s), deg)
            hist[d] = hist.get(d, 0) + 1
        got = {i: x for i, x in enumerate(c.numerator) if x}
        assert got == hist


class TestHbCandidates:
    def test_unimodular(self):
        got = hb_candidates(simplex(((1, 0), (0, 1))))
        assert got.shape == (2, 2)
        assert rows(got) == [(0, 1), (1, 0)]

    def test_det_two(self):
        assert rows(hb_candidates(simplex(((1, 0), (1, 2))))) == \
            [(1, 0), (1, 1), (1, 2)]

    def test_cone35(self):
        got = hb_candidates(simplex(((1, 0), (3, 5))))
        assert rows(got) == [(1, 0), (1, 1), (2, 2), (2, 3), (3, 4), (3, 5)]
        # E \ {0} first, then the generators in order
        assert rows(got[-2:]) == [(1, 0), (3, 5)]
        assert tuple(got[-1]) == (3, 5)


class TestBlocks:
    def test_big_int_fallback_matches(self):
        from conekit.simplex import _block_dtype
        for gens in [
            # entries large enough to force the object-dtype path, small det
            ((1, 10**18), (1, 10**18 + 5)),
            # det 1: only the zero residue, but entries past int64
            ((1, 0), (2**64, 1)),
        ]:
            s = simplex(gens)
            assert _block_dtype(s) is object
            assert sum(len(v) for v in residue_blocks(s)) == s.det
            pts = rows(fundamental_points(s))
            assert len(set(pts)) == s.det
            for p in pts:
                u = s.q_numerators(p)
                assert all(0 <= x < s.det for x in u)
            assert rows(hb_candidates(s)) == sorted(
                {p for p in pts if any(p)} | set(gens))


def patched_snf(**fields):
    """Patch smith_normal_form so that its result has the given fields
    replaced by functions of the true result."""
    true_snf = la.smith_normal_form

    def fake(m):
        snf = true_snf(m)
        return replace(snf, **{k: f(snf) for k, f in fields.items()})
    return mock.patch.object(la, "smith_normal_form", fake)


class TestResidueAxes:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.one_of(st.integers(-9, 9), st.integers(-2**70, 2**70)),
                     min_size=n, max_size=n),
            min_size=n, max_size=n)))
    def test_matches_explicit_inverse(self, gens):
        assume(minor_det(gens) != 0)
        s = simplex(gens)
        snf = la.smith_normal_form(s.gens)
        assert _residue_axes(s) == explicit_residue_axes(gens, snf.d, snf.v)

    def test_wrong_diagonal_rejected(self):
        # d = (1, 5); dropping the 5 leaves no axis row to check
        s = simplex(((1, 0), (3, 5)))
        with patched_snf(d=lambda snf: snf.d[:-1] + (1,)):
            with pytest.raises(InternalConsistencyError):
                _residue_axes(s)

    def test_row_off_the_lattice_rejected(self):
        # adding e_0 to the axis row of u adds gens[0]/det to its point
        s = simplex(((1, 0), (3, 5)))
        with patched_snf(u=lambda snf: (snf.u[0], (snf.u[1][0] + 1, snf.u[1][1]))):
            with pytest.raises(InternalConsistencyError):
                _residue_axes(s)

    def test_negated_row_is_another_valid_transform(self):
        # diag(1, -1)·u is unimodular too: the axis generates the same
        # classes, so the same points come out in another order
        s = simplex(((2, 1), (3, 17)))
        with patched_snf(u=lambda snf: (snf.u[0], tuple(-x for x in snf.u[1]))):
            negated = rows(fundamental_points(s))
        assert negated == rows(fundamental_points(s))
