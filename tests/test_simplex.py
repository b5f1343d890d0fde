from dataclasses import replace
from math import gcd, prod
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conekit import linalg as la, simplex as simplex_module
from conekit.cone import make_simplicial_cone
from conekit.errors import DomainError, InternalConsistencyError
from conekit.simplex import (
    _block_dtype, _residue_axes, hb_candidates, points_below, residue_blocks,
    series_contribution,
)

from oracles import (brute_fundamental_points, dotv, excluded_facets, fundamental_points,
                     generator_sum, hermite_residue_axes, minor_det, residue_classes)


def simplex(gens):
    return make_simplicial_cone(gens)


def rows(points):
    """Rows of a point array as sorted tuples of Python ints."""
    return sorted(tuple(int(x) for x in p) for p in points)


def half_open_shift(p, s, anchor):
    """Representative of the fundamental-domain point p in the simplex
    half-open at the anchor: p plus the generator opposite every excluded
    facet on which p lies.  The shifted points are the Stanley-decomposition
    offsets of the half-open cone, the reference for series_contribution."""
    u = s.q_numerators(p)
    assert all(0 <= x < s.det for x in u), "point is not in the fundamental domain"
    out = list(p)
    for i in excluded_facets(s, anchor):
        if u[i] == 0:
            out = [a + b for a, b in zip(out, s.gens[i])]
    return tuple(out)


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
            anchor = generator_sum(s.gens)
            big = (fundamental_points(s), series_contribution(s, deg, anchor),
                   hb_candidates(s))
            with mock.patch.object(simplex_module, "DEFAULT_BLOCK", 3):
                small = (fundamental_points(s), series_contribution(s, deg, anchor),
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
        det = minor_det(rows_)
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
        assert half_open_shift((1, 1), s, generator_sum(s.gens)) == (1, 1)
        assert half_open_shift((0, 0), s, generator_sum(s.gens)) == (0, 0)

    def test_shift_on_excluded_facet(self):
        s = simplex(((1, 0), (1, 2)))
        anchor = (0, 2)  # Σg - 2·g_0 lies beyond facet 0 alone
        assert excluded_facets(s, anchor) == frozenset({0})
        assert half_open_shift((0, 0), s, anchor) == (1, 0)
        assert half_open_shift((1, 1), s, anchor) == (1, 1)

    def test_outside_domain_rejected(self):
        s = simplex(((1, 0), (1, 2)))
        with pytest.raises(AssertionError, match="fundamental domain"):
            half_open_shift((5, 0), s, generator_sum(s.gens))
        with pytest.raises(AssertionError, match="fundamental domain"):
            half_open_shift((-1, 0), s, generator_sum(s.gens))


def closed_series(gens, deg):
    """series_contribution at the simplex's own generator sum, which lies
    inside it and so excludes no facet."""
    return series_contribution(simplex(gens), deg, generator_sum(gens))


class TestSeriesContribution:
    def test_unimodular_orthant(self):
        c = closed_series(((1, 0), (0, 1)), (1, 1))
        assert c.numerator == (1,)
        assert c.denom_degrees == (1, 1)

    def test_det_two(self):
        c = closed_series(((1, 0), (1, 2)), (1, 0))
        assert c.numerator == (1, 1)
        assert c.denom_degrees == (1, 1)

    def test_cone35(self):
        c = closed_series(((1, 0), (3, 5)), (1, 0))
        assert c.numerator == (1, 1, 2, 1)
        assert c.denom_degrees == (1, 3)

    def test_coefficient_sum_is_det(self):
        for gens in [((2, 1), (3, 7)), ((1, 0, 0), (1, 2, 0), (1, 1, 3))]:
            s = simplex(gens)
            deg = (1,) * len(gens)
            if any(dotv(g, deg) <= 0 for g in gens):
                continue
            c = series_contribution(s, deg, generator_sum(gens))
            assert sum(c.numerator) == s.det

    def test_half_open_counts_match_shift(self):
        s = simplex(((1, 0), (3, 5)))
        anchor = (-2, -5)  # Σg - 2·g_1 lies beyond facet 1 alone
        assert excluded_facets(s, anchor) == frozenset({1})
        deg = (1, 0)
        c = series_contribution(s, deg, anchor)
        # brute: shift each fundamental point, histogram its degree
        hist = {}
        for p in rows(fundamental_points(s)):
            d = dotv(half_open_shift(p, s, anchor), deg)
            hist[d] = hist.get(d, 0) + 1
        got = {i: x for i, x in enumerate(c.numerator) if x}
        assert got == hist

    @pytest.mark.parametrize("gens, deg", [
        (((1, 0), (3, 5)), (1, 0)),
        (((2, 0, 1), (0, 2, 1), (0, 0, 4)), (0, 0, 1)),
        (((1, 0, 0), (1, 2, 0), (1, 1, 3)), (1, 0, 0)),
    ])
    def test_anchor_selects_the_excluded_facets(self, gens, deg):
        # Σg - 2·g_i takes the value -det on facet form i and det on the
        # others: exactly facet i is excluded, so every point of E with
        # u_i = 0 (the origin among them) moves up by deg(g_i)
        s = simplex(gens)
        points = rows(fundamental_points(s))

        def shifted(out):
            hist = [0] * (sum(dotv(g, deg) for g in gens) + 1)
            for p in points:
                u = s.q_numerators(p)
                hist[dotv(p, deg) + sum(dotv(gens[i], deg) for i in out if u[i] == 0)] += 1
            while hist[-1] == 0:
                hist.pop()
            return tuple(hist)

        total = generator_sum(gens)
        assert closed_series(gens, deg).numerator == shifted(())
        for i, g in enumerate(gens):
            anchor = tuple(a - 2 * b for a, b in zip(total, g))
            assert excluded_facets(s, anchor) == frozenset({i})
            assert series_contribution(s, deg, anchor).numerator == shifted((i,))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda r: st.tuples(
        st.lists(st.tuples(*[st.integers(-3, 3)] * (r - 1), st.integers(1, 4)),
                 min_size=r, max_size=r),
        st.tuples(*[st.integers(-1, 1)] * (r - 1), st.integers(1, 4)))))
    @example((((1, 0), (1, 2)), (1, 1)))
    def test_stanley_reciprocity(self, case):
        # at the anchor -Σg every facet is excluded, and p -> Σg - p maps
        # E onto its shifts, the points with generator coordinates in
        # (0, 1]: the numerator is the closed one reversed over the
        # degrees 0..Σdeg(g), the last of which the origin's shift reaches
        gens, deg = case
        assume(minor_det(gens) != 0 and all(dotv(g, deg) > 0 for g in gens))
        s, top = simplex(gens), sum(dotv(g, deg) for g in gens)
        anchor = tuple(-x for x in generator_sum(gens))
        assert excluded_facets(s, anchor) == frozenset(range(len(gens)))
        closed = closed_series(gens, deg)
        opened = series_contribution(s, deg, anchor)
        assert opened.numerator == (closed.numerator + (0,) * top)[top::-1]
        assert opened.denom_degrees == closed.denom_degrees


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


class TestPointsBelow:
    def test_keeps_nonzero_points_below_generator_height(self):
        s = simplex(((1, 0), (3, 5)))
        pts = np.array([[1, 1], [2, 3], [3, 5], [0, 0], [-1, 0], [1, 2]])
        assert rows(points_below(s, pts)) == [(1, 1), (2, 3)]

    def test_zero_rows_against_huge_forms(self):
        # the rows' magnitude is 0, so only the forms' own magnitude
        # sends the product to Python ints
        s = simplex(((2**64, 0), (1, 2**64)))
        got = points_below(s, np.zeros((1, 2), np.int64))
        assert got.shape == (0, 2)


class TestBlocks:
    def test_big_int_fallback_matches(self):
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


def patched_hermite(change):
    """Patch hermite_mod so that its result h comes back as `change(h)`;
    returns the patch and the dets of the calls it saw."""
    true_hermite = la.hermite_mod
    calls = []

    def fake(rows, det):
        calls.append(det)
        return change(true_hermite(rows, det))
    return mock.patch.object(la, "hermite_mod", fake), calls


def replaced_row(i, row):
    return lambda h: h[:i] + (row,) + h[i + 1:]


big_square = st.integers(1, 6).flatmap(
    lambda n: st.lists(
        st.lists(st.one_of(st.integers(-9, 9), st.integers(-2**70, 2**70)),
                 min_size=n, max_size=n),
        min_size=n, max_size=n))


def unit_column(s):
    """A facet-form column of gcd 1 with det > 1, the one-axis route."""
    return s.det > 1 and any(gcd(*c, s.det) == 1 for c in zip(*s.facet_forms))


# upper-triangular gens of det at most 6^4, off-diagonal entries up to 2^70
small_det_big_entries = st.integers(1, 4).flatmap(
    lambda n: st.tuples(*(st.tuples(*(
        st.integers(1, 6) if j == i else
        st.one_of(st.integers(-9, 9), st.integers(-2**70, 2**70)) if j > i else
        st.just(0) for j in range(n))) for i in range(n))))


def swept_rows(s):
    return {tuple(int(x) for x in v) for b in residue_blocks(s) for v in b}


class TestResidueAxes:
    @settings(max_examples=80, deadline=None)
    @given(big_square)
    def test_axes_are_triangular_lattice_points(self, gens):
        # one axis of range det whose row has order det on the column
        # route, triangular Hermite rows otherwise
        assume(minor_det(gens) != 0)
        s = simplex(gens)
        det = s.det
        axes = _residue_axes(s)
        assert prod(m for m, _ in axes) == det
        if unit_column(s):
            [(m, row)] = axes
            assert m == det and gcd(*row, det) == 1
            assert row in {tuple(x % det for x in c) for c in zip(*s.facet_forms)}
        else:
            pivots = [next(j for j, x in enumerate(row) if x) for _, row in axes]
            assert pivots == sorted(set(pivots))
            assert all(row[p] * m == det for (m, row), p in zip(axes, pivots))
        for m, row in axes:
            assert m > 1 and all(0 <= x < det for x in row)
            # row·gens / det is a lattice point whose q numerators are row
            point = [sum(row[k] * gens[k][j] for k in range(len(gens)))
                     for j in range(len(gens))]
            assert all(x % det == 0 for x in point)
            x = tuple(c // det for c in point)
            assert tuple(q % det for q in s.q_numerators(x)) == row

    @settings(max_examples=120, deadline=None)
    @given(st.one_of(small_det_big_entries, st.integers(1, 5).flatmap(
        lambda n: st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                           min_size=n, max_size=n))))
    @example(((1, 0), (2**70, 1)))  # det 1
    @example(((1, 2**70), (0, 5)))  # object dtype, one axis
    @example(((2, 2**70, 0), (0, 2, 2**66), (0, 0, 4)))  # object dtype, Hermite
    def test_routes_sweep_the_same_rows(self, gens):
        # the unit column and the Hermite form sweep the same det classes
        assume(0 < abs(minor_det(gens)) <= 4000)
        s = simplex(gens)
        got = swept_rows(s)
        assert sum(len(b) for b in residue_blocks(s)) == len(got) == s.det
        with mock.patch.object(simplex_module, "_residue_axes", hermite_residue_axes):
            assert swept_rows(s) == got

    def test_both_routes_are_taken(self):
        patch, calls = patched_hermite(lambda h: h)
        with patch:
            assert _residue_axes(simplex(((1, 0), (3, 5)))) == [(5, (2, 1))]
            assert _residue_axes(simplex(((1, 0), (2**70, 1)))) == []
            assert len(_residue_axes(simplex(((2, 0, 1), (0, 2, 1), (0, 0, 4))))) == 3
        assert calls == [1, 16]

    def test_corrupted_facet_form_rejected(self):
        # column 1 of the forms ((5, -3), (0, 1)) is the unit axis (2, 1);
        # form 1 doubled makes it (2, 2), of order 5 but off the lattice
        s = simplex(((1, 0), (3, 5)))
        bad = replace(s, facet_forms=(s.facet_forms[0], (0, 2)))
        patch, calls = patched_hermite(lambda h: h)
        with patch, pytest.raises(InternalConsistencyError, match="lattice point"):
            _residue_axes(bad)
        assert calls == []

    def test_unit_column_of_lower_order_rejected(self):
        # a column taken although its gcd with det is not 1 sweeps a
        # class more than once: the first gcd call lies
        s = simplex(((2, 0, 1), (0, 2, 1), (0, 0, 4)))
        lies = iter([1])
        with mock.patch.object(simplex_module, "gcd",
                               lambda *a: next(lies, None) or gcd(*a)), \
                pytest.raises(InternalConsistencyError, match="triangular"):
            _residue_axes(s)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 5).flatmap(
        lambda n: st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                           min_size=n, max_size=n)))
    def test_matches_explicit_inverse(self, gens):
        # the enumerated rows are the classes that the rows of det·gens^-1
        # generate modulo det, each exactly once
        assume(0 < abs(minor_det(gens)) <= 4000)
        s = simplex(gens)
        got = [tuple(int(x) for x in v) for b in residue_blocks(s) for v in b]
        assert len(got) == len(set(got)) == s.det
        assert sorted(got) == residue_classes(gens)

    def test_big_entries_match_explicit_inverse(self):
        # small determinants, entries past int64: the object-dtype blocks
        for gens, det in [(((1, 10**18), (1, 10**18 + 5)), 5),
                          (((2, 2**70, 0), (0, 2, 2**66), (0, 0, 4)), 16)]:
            s = simplex(gens)
            assert s.det == det and _block_dtype(s) is object
            got = [tuple(int(x) for x in v) for b in residue_blocks(s) for v in b]
            assert len(got) == det
            assert sorted(got) == residue_classes(gens)

    def test_wrong_diagonal_rejected(self):
        # the Hermite rows of this simplex are (8, 0, 14), (0, 8, 14) and
        # (0, 0, 4) modulo 16; pivot 16 on row 0 drops an axis
        s = simplex(((2, 0, 1), (0, 2, 1), (0, 0, 4)))
        patch, calls = patched_hermite(replaced_row(0, (16, 0, 0)))
        with patch, pytest.raises(InternalConsistencyError, match="multiply"):
            _residue_axes(s)
        assert calls == [16]
        # pivot 7 keeps the ranges (2, 2, 4) but does not divide 16
        patch, _ = patched_hermite(replaced_row(0, (7, 0, 14)))
        with patch, pytest.raises(InternalConsistencyError, match="triangular"):
            _residue_axes(s)

    def test_row_left_of_pivot_rejected(self):
        s = simplex(((2, 0, 1), (0, 2, 1), (0, 0, 4)))
        patch, _ = patched_hermite(replaced_row(1, (8, 8, 14)))
        with patch, pytest.raises(InternalConsistencyError, match="triangular"):
            _residue_axes(s)

    def test_entry_above_det_rejected(self):
        # (8, 0, 30) is (8, 0, 14) plus det·e_2: the same class and still a
        # lattice point, but past the det² bound that _block_dtype relies on
        s = simplex(((2, 0, 1), (0, 2, 1), (0, 0, 4)))
        patch, _ = patched_hermite(replaced_row(0, (8, 0, 30)))
        with patch, pytest.raises(InternalConsistencyError, match="triangular"):
            _residue_axes(s)

    def test_row_off_the_lattice_rejected(self):
        # adding e_2 to the axis row adds gens[2]/det to its point
        s = simplex(((2, 0, 1), (0, 2, 1), (0, 0, 4)))
        patch, calls = patched_hermite(replaced_row(0, (8, 0, 15)))
        with patch, pytest.raises(InternalConsistencyError, match="lattice point"):
            _residue_axes(s)
        assert calls == [16]

    def test_negated_row_is_another_valid_transform(self):
        # negating a generator leaves the lattice, and so the points, as
        # they are, but the Hermite rows come out different
        s = simplex(((2, 0, 1), (0, 2, 1), (0, 0, 4)))
        true_hermite = la.hermite_mod

        def negated_first(rows, det):
            return true_hermite((tuple(-x for x in rows[0]),) + tuple(rows[1:]), det)
        with mock.patch.object(la, "hermite_mod", negated_first):
            axes = _residue_axes(s)
            negated = rows(fundamental_points(s))
        assert axes != _residue_axes(s)
        assert negated == rows(fundamental_points(s))


def unimodular(draw, n):
    """Lower times upper unitriangular, off-diagonal entries near ±2^40."""
    near = st.integers(2**40 - 2**20, 2**40 + 2**20).flatmap(
        lambda x: st.sampled_from([x, -x]))
    low = [[1 if i == j else (draw(near) if j < i else 0) for j in range(n)]
           for i in range(n)]
    up = [[1 if i == j else (draw(near) if j > i else 0) for j in range(n)]
          for i in range(n)]
    return [[sum(low[i][k] * up[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


@st.composite
def gens_and_unimodular(draw):
    n = draw(st.integers(2, 4))
    gens = draw(st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    return gens, unimodular(draw, n)


@settings(max_examples=40, deadline=None)
@given(gens_and_unimodular())
def test_unimodular_invariance(case):
    # x -> x·U maps Z^n onto itself, so E(gens·U) = E(gens)·U; the
    # transformed entries reach about 2^80 and take the object dtype
    gens, u = case
    assume(0 < abs(minor_det(gens)) <= 2000)
    moved = [[sum(g[k] * u[k][j] for k in range(len(g))) for j in range(len(g))]
             for g in gens]
    s = simplex(moved)
    assert _block_dtype(s) is object
    got = rows(fundamental_points(s))
    want = sorted(tuple(sum(p[k] * u[k][j] for k in range(len(p)))
                        for j in range(len(p)))
                  for p in rows(fundamental_points(simplex(gens))))
    assert got == want
    # the series runs its degree sums in that dtype too: gens·U under the
    # grading U^-1·deg has the degrees of gens under deg.  The anchor
    # sum((-1)^k·g_k) moves with U and lies off every facet hyperplane,
    # so both simplices exclude the same (odd) facets.
    deg = simplex(gens).height_normal
    uinv_t = make_simplicial_cone(u).facet_forms  # U^-1 = F^T
    anchor = [tuple(sum((-1) ** k * g[j] for k, g in enumerate(m)) for j in range(len(m)))
              for m in (gens, moved)]
    want = series_contribution(simplex(gens), deg, anchor[0])
    moved_s = simplex(moved)
    assert excluded_facets(moved_s, anchor[1]) == frozenset(range(1, len(gens), 2))
    assert series_contribution(moved_s, la.vec_mat(deg, uinv_t), anchor[1]) == want


HUGE = ((1, 0, 1), (0, 1, 1), (2**70, 2**70 + 1, 1))  # det 2^71, generator height 1


@pytest.mark.parametrize("sweep", [
    lambda s: series_contribution(s, (0, 0, 1), (1, 1, 1)),
    hb_candidates,
], ids=["series_contribution", "hb_candidates"])
def test_sweep_past_int64_indices_raises(sweep):
    # the mixed-radix digits are int64 indices, so a sweep of det >=
    # INT64_SAFE is refused up front, with the det in the message
    s = simplex(HUGE)
    assert s.det == 2**71 and s.gen_height == 1
    with pytest.raises(DomainError, match=f"det {2**71} is too large to sweep"):
        sweep(s)
