import os
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conekit import collect
from conekit import linalg as la
from conekit.cone import ConeInput, build_cone, make_simplicial_cone, stacked, triangulate
from conekit.collect import (
    HilbertSeries, StatsRecord, accumulate_series, bottom_volume, reduce_to_hilbert_basis,
)
from conekit.errors import DomainError, InternalConsistencyError
from conekit.pipeline import RunOptions, compute
from conekit.simplex import POINT_BUDGET, SeriesContribution, hb_candidates
from conekit.subdivide import SubdivisionConfig

from oracles import (brute_hilbert_basis, brute_support_forms, dotv,
                     enumerate_polytope_points, in_cone, minor_det,
                     sweep_polytope_points, unique_sort_reduction)


QUADRANT_FORMS = ((1, 0), (0, 1))


class TestReduce:
    def test_already_minimal(self):
        got = reduce_to_hilbert_basis([(1, 0), (0, 1)], QUADRANT_FORMS)
        assert set(got) == {(1, 0), (0, 1)}

    def test_scalar_multiple(self):
        got = reduce_to_hilbert_basis([(1, 0), (2, 0)], QUADRANT_FORMS)
        assert got == ((1, 0),)

    def test_cone35_candidates(self):
        c = build_cone(ConeInput(2, generators=((1, 0), (3, 5))))
        cands = hb_candidates(stacked(triangulate(c)[:1], c.rank))
        got = reduce_to_hilbert_basis(cands, c.support_forms)
        assert set(got) == {(1, 0), (1, 1), (2, 3), (3, 5)}

    def test_idempotent_and_order_free(self):
        c = build_cone(ConeInput(2, generators=((1, 0), (3, 5))))
        cands = hb_candidates(stacked(triangulate(c)[:1], c.rank))
        once = reduce_to_hilbert_basis(cands, c.support_forms)
        twice = reduce_to_hilbert_basis(once, c.support_forms)
        assert set(once) == set(twice)
        rev = reduce_to_hilbert_basis(list(reversed(cands)), c.support_forms)
        assert set(rev) == set(once)

    def test_discarded_have_witnesses(self):
        c = build_cone(ConeInput(2, generators=((1, 0), (3, 5))))
        cands = {tuple(int(a) for a in x) for x in hb_candidates(stacked(triangulate(c)[:1], c.rank))}
        kept = set(reduce_to_hilbert_basis(cands, c.support_forms))
        for x in cands - kept:
            assert any(
                all(la.dot(f, tuple(a - b for a, b in zip(x, y))) >= 0
                    for f in c.support_forms)
                for y in kept)

    def test_matches_brute_force(self):
        for gens in [((1, 0), (3, 5)), ((2, 1), (3, 7)), ((1, -2), (4, 1))]:
            c = build_cone(ConeInput(2, generators=gens))
            cands = hb_candidates(stacked(triangulate(c), c.rank))
            got = set(reduce_to_hilbert_basis(cands, c.support_forms))
            assert got == set(brute_hilbert_basis(list(c.generators)))

    @pytest.mark.parametrize("gens", [((1, 0), (3, 5)), ((1, 0, 0), (0, 1, 0), (1, 1, 2))])
    def test_narrow_integer_arrays(self, gens):
        # int32 rows (numpy's default integer on some platforms) of even
        # and odd width reduce as their int64 copies do
        c = build_cone(ConeInput(len(gens), generators=gens))
        cands = hb_candidates(stacked(triangulate(c), c.rank))
        got = reduce_to_hilbert_basis(cands.astype(np.int32), c.support_forms)
        assert got == reduce_to_hilbert_basis(cands, c.support_forms)
        assert set(got) == set(brute_hilbert_basis(list(c.generators)))

    def test_duplicates_and_zero_dropped(self):
        got = reduce_to_hilbert_basis([(0, 0), (1, 0), (1, 0)], QUADRANT_FORMS)
        assert got == ((1, 0),)

    def test_aux_degree_does_not_wrap_in_int64(self):
        # each support value of x fits in int64, but x's aux degree, the
        # sum over the octagon's 8 facets, does not
        octagon = build_cone(ConeInput(3, generators=(
            (1, 2, 1), (-1, 2, 1), (1, -2, 1), (-1, -2, 1),
            (2, 1, 1), (-2, 1, 1), (2, -1, 1), (-2, -1, 1))))
        y = (0, 0, 2**62 // 19)
        x = tuple(2 * a for a in y)
        got = reduce_to_hilbert_basis(np.array([x, y]), octagon.support_forms)
        assert got == (y,)

    def test_support_forms_past_int64_with_int64_candidates(self):
        # the candidates fit in int64, but the support forms, minors of
        # the generators, do not
        gens = ((1, 0, 0), (2**40, 1, 0), (7, 2**40 + 1, 2))
        expected = {(1, 0, 0), (2**40, 1, 0), (7, 2**40 + 1, 2),
                    (549755813892, 549755813889, 1)}
        got = compute(ConeInput(3, generators=gens), RunOptions(
            goals=frozenset({"hilbert_basis"}),
            subdivision=SubdivisionConfig(strategy="none")))
        assert set(got.hilbert_basis) == expected
        s = make_simplicial_cone(gens)
        cands = [tuple(int(a) for a in x) for x in hb_candidates(stacked([s], s.dim))]
        assert set(reduce_to_hilbert_basis(cands, s.facet_forms)) == expected

    def test_subdivided_basis_matches_undivided_at_det_2e4(self):
        # 22,244 candidates reach the reduction without subdivision
        ci = ConeInput(5, generators=(
            (11, 5, 1, 8, -15), (-4, -1, -2, 9, 8), (-8, -6, 11, -12, 25),
            (-4, 8, 6, 11, -11), (-2, -4, 9, -10, 17)))
        hb = frozenset({"hilbert_basis"})
        none = compute(ci, RunOptions(
            goals=hb, subdivision=SubdivisionConfig(strategy="none")))
        ip = compute(ci, RunOptions(goals=hb, subdivision=SubdivisionConfig(
            strategy="ip", volume_bound=1000, node_limit=500,
            time_limit_scale=None)))
        assert none.stats.volume_used == 22240
        assert ip.stats.volume_used < none.stats.volume_used
        assert len(none.hilbert_basis) == 753
        assert ip.hilbert_basis == none.hilbert_basis


class TestStack:
    def test_int64_up_to_the_int64_edge(self):
        out = la.stack([(2**63 - 1, 0), (0, -2**63)])
        assert out.dtype == np.int64
        assert out.tolist() == [[2**63 - 1, 0], [0, -2**63]]

    @pytest.mark.parametrize("edge", [2**63, -2**63 - 1])
    def test_object_past_the_int64_edge(self, edge):
        out = la.stack([(edge, 0), (1, 1)])
        assert out.dtype == object
        assert out.tolist() == [[edge, 0], [1, 1]]

    def test_empty(self):
        out = la.stack([])
        assert out.dtype == np.int64 and out.size == 0


@st.composite
def product_pairs(draw):
    """(a, b) as nested lists whose largest entries ma, mb put the
    products bound, inner · cols · ma · mb, at and around INT64_SAFE:
    mb is INT64_SAFE / 2^shift / ma, give or take 2.  Most entries are
    +ma or +mb, so row sums reach past the int64 range when the bound
    leaves out a factor."""
    n, inner = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    cols = draw(st.integers(1, 8))
    ma = draw(st.integers(1, 1 << 31))
    mb = max(1, (la.INT64_SAFE >> draw(st.integers(0, 3))) // ma + draw(st.integers(-2, 2)))
    a = [[draw(st.sampled_from([ma, ma, ma, -ma, 0, 1])) for _ in range(inner)]
         for _ in range(n)]
    b = [[draw(st.sampled_from([mb, mb, mb, -mb, 0, 1])) for _ in range(cols)]
         for _ in range(inner)]
    return a, b


class TestProducts:
    @settings(max_examples=200, deadline=None)
    @given(product_pairs(), st.sampled_from(["stack", "object"]))
    # each product below INT64_SAFE, their row sum near 2^64
    @example(([[2**31]], [[2**31 - 1] * 4]), "stack")
    def test_products_and_row_sums_are_exact(self, pair, kind):
        a, b = pair
        if kind == "stack":
            arr_a, arr_b = la.stack(a), la.stack(b)
        else:
            arr_a, arr_b = np.array(a, dtype=object), np.array(b, dtype=object)
        want = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
        got = la.products(arr_a, arr_b)
        assert got.dtype in (np.int64, object)
        assert got.tolist() == want
        assert got.sum(axis=1).tolist() == [sum(row) for row in want]


def naive_minimal(candidates, forms):
    """Nonzero distinct x with no other candidate y, forms·(x − y) ≥ 0,
    in (aux, lex) order."""
    pts = {tuple(int(a) for a in x) for x in candidates if any(x)}
    kept = [x for x in pts
            if not any(y != x and in_cone(forms, tuple(a - b for a, b in zip(x, y)))
                       for y in pts)]
    return tuple(sorted(kept, key=lambda x: (sum(dotv(f, x) for f in forms), x)))


@st.composite
def candidate_sets(draw):
    """A subset of a small simplex's candidates with repeats and zero
    rows, optionally scaled past int64."""
    d = draw(st.integers(2, 3))
    rows = draw(st.lists(st.lists(st.integers(-4, 4), min_size=d, max_size=d),
                         min_size=d, max_size=d))
    assume(0 < abs(minor_det(rows)) <= 60)
    s = make_simplicial_cone(rows)
    pool = [tuple(int(a) for a in x) for x in hb_candidates(stacked([s], s.dim))]
    picked = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    picked += [(0,) * d] * draw(st.integers(0, 2))
    scale = draw(st.sampled_from([1, 1, 2**62 + 1]))
    picked = [tuple(scale * a for a in x) for x in picked]
    return draw(st.permutations(picked)), s.facet_forms


@st.composite
def candidate_unions(draw):
    """The hb_candidates of every simplex of a small cone's placing
    triangulation, stacked with repeats of some rows and zero rows, so
    that shared generators are duplicates and many rows tie in aux
    degree; returned with the cone's support forms."""
    d = draw(st.integers(2, 4))
    coords = st.lists(st.integers(-4, 4), min_size=d - 1, max_size=d - 1)
    gens = draw(st.lists(st.tuples(coords, st.integers(1, 5)),
                         min_size=d + 1, max_size=d + 3))
    c = build_cone(ConeInput(d, generators=tuple((*x, h) for x, h in gens)))
    tri = triangulate(c)
    assume(sum(s.det for s in tri) <= 500)
    rows = hb_candidates(stacked(tri, c.rank))
    again = draw(st.lists(st.integers(0, len(rows) - 1), max_size=20))
    rows = np.vstack([rows, rows[again], np.zeros((draw(st.integers(0, 2)), c.rank),
                                                  dtype=rows.dtype)])
    return rows[draw(st.permutations(range(len(rows))))], c.support_forms


class TestReduceProperty:
    @settings(max_examples=150, deadline=None)
    @given(candidate_sets(), st.sampled_from([
        (1, 1, 1), (3, 2, 1), (1, 1 << 20, 1), (3, 1 << 20, 1), (1, 1 << 20, 32),
        (3, 1 << 20, 32), (4096, 1 << 20, 32)]))
    def test_matches_naive_minimal_elements(self, case, sizes):
        # _BLOCK, _SLAB and _FIRST_SLAB; a wide _SLAB with _FIRST_SLAB 1
        # lets the slabs double several times within one test
        cands, forms = case
        with mock.patch.object(collect, "_BLOCK", sizes[0]), \
                mock.patch.object(collect, "_SLAB", sizes[1]), \
                mock.patch.object(collect, "_FIRST_SLAB", sizes[2]):
            got = reduce_to_hilbert_basis(cands, forms)
            got_array = reduce_to_hilbert_basis(
                np.array(cands, dtype=object), forms)
        want = naive_minimal(cands, forms)
        assert got == want
        assert got_array == want

    @settings(max_examples=100, deadline=None)
    @given(candidate_unions(), st.sampled_from(["int64", "object", "tuples", "scaled"]),
           st.sampled_from([1, 32]))
    def test_matches_unique_sort_reference(self, case, form, first):
        # scaled rows pass 2^62, so their support values take Python ints
        rows, forms = case
        if form == "object":
            rows = rows.astype(object)
        elif form == "tuples":
            rows = [tuple(int(x) for x in row) for row in rows]
        elif form == "scaled":
            rows = [tuple((2**62 + 1) * int(x) for x in row) for row in rows]
        with mock.patch.object(collect, "_FIRST_SLAB", first):
            got = reduce_to_hilbert_basis(rows, forms)
        assert got == unique_sort_reduction(rows, forms)
        assert all(type(x) is int for row in got for x in row)


def pairwise_hilbert_basis(gens):
    """The loop reference: every nonzero swept point not reducible by an
    earlier one in aux order, over the pure-Python sweep."""
    forms = brute_support_forms(gens)
    d = len(gens[0])
    aux_row = tuple(sum(f[j] for f in forms) for j in range(d))
    dmax = d * max(dotv(aux_row, g) for g in gens)
    ineqs = [(f, 0) for f in forms] + [(tuple(-x for x in aux_row), -dmax)]
    pts = sorted((p for p in enumerate_polytope_points(ineqs, d) if any(p)),
                 key=lambda p: (dotv(aux_row, p), p))
    basis = []
    for p in pts:
        if not any(in_cone(forms, tuple(a - b for a, b in zip(p, q)))
                   for q in basis):
            basis.append(p)
    return sorted(basis)


class TestBruteHilbertBasis:
    def test_readme_cone(self):
        assert brute_hilbert_basis([(1, 0), (3, 5)]) == [
            (1, 0), (1, 1), (2, 3), (3, 5)]

    @pytest.mark.parametrize("n", [1, 2, 5, 13])
    def test_thin_cone_is_one_row(self, n):
        assert brute_hilbert_basis([(1, 0), (1, n)]) == [
            (1, j) for j in range(n + 1)]

    @pytest.mark.parametrize("k", [10, 2**62 + 3, 10**19])
    def test_unimodular_with_large_entries(self, k):
        # values near and past 2^63 must not wrap in int64
        assert brute_hilbert_basis([(0, 1), (1, k)]) == [(0, 1), (1, k)]

    @pytest.mark.parametrize("gens", [
        ((1, 0, 0), (0, 1, 0), (1, 1, 3)),
        ((2, 1, 1), (1, 3, 1), (1, 1, 4), (1, 2, 2)),
        ((1, -1, 2), (0, 1, 1), (-1, 0, 3), (2, 1, 1)),
    ])
    def test_matches_pairwise_reference(self, gens):
        assert brute_hilbert_basis(list(gens)) == pairwise_hilbert_basis(gens)

    @pytest.mark.parametrize("ineqs, dim", [
        ([((1, 0), 0), ((0, 1), 0), ((-1, -1), -7)], 2),
        ([((1, 0), -3), ((-1, 0), -3), ((0, 1), -2), ((0, -1), -2)], 2),
        ([((2, -1), 0), ((-1, 3), 1), ((-1, -1), -9)], 2),
        ([((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
          ((-1, -2, -3), -12)], 3),
        ([((1, 1, 0), 0), ((1, -1, 0), 0), ((0, 0, 1), 1),
          ((-1, 0, -1), -6)], 3),
        # the cone (0,1),(1,k) cut at aux degree 2, k = 2^62 + 3
        ([((1, 0), 0), ((-(2**62 + 3), 1), 0), ((2**62 + 2, -1), -2)], 2),
    ])
    def test_sweep_matches_loop(self, ineqs, dim):
        got = sweep_polytope_points(ineqs, dim)
        assert [tuple(int(x) for x in row) for row in got] == \
            enumerate_polytope_points(ineqs, dim)


class TestAccumulateSeries:
    def test_free_monoid(self):
        h = accumulate_series([SeriesContribution((1,), (1, 1))], [1, 1], 2)
        assert (h.numerator, h.e, h.r) == ((1,), 1, 2)

    def test_det_two(self):
        h = accumulate_series([SeriesContribution((1, 1), (1, 1))], [1, 1], 2)
        assert (h.numerator, h.e, h.r) == ((1, 1), 1, 2)

    def test_cone35(self):
        h = accumulate_series([SeriesContribution((1, 1, 2, 1), (1, 3))], [1, 3], 2)
        assert h.numerator == (1, 2, 4, 4, 3, 1)
        assert (h.e, h.r) == (3, 2)

    def test_cone35_expansion(self):
        h = accumulate_series([SeriesContribution((1, 1, 2, 1), (1, 3))], [1, 3], 2)
        assert h.expand(8) == [1, 2, 4, 6, 7, 9, 11, 12, 14]

    def test_negative_degree(self):
        h = accumulate_series([SeriesContribution((1, 1, 2, 1), (1, 3))], [1, 3], 2)
        assert len(h.numerator) - 1 < h.e * h.r

    def test_mixed_denominators(self):
        # quadrant with grading (1,1), stellarly split at (1,1): the halves
        # carry a denominator degree 2 that does not divide e = 1
        contribs = [
            SeriesContribution((1,), (1, 2)),
            SeriesContribution((0, 1), (1, 2)),
        ]
        h = accumulate_series(contribs, [1, 1], 2)
        assert (h.numerator, h.e, h.r) == ((1,), 1, 2)
        assert h.expand(6) == [1, 2, 3, 4, 5, 6, 7]

    def test_inexact_division_rejected(self):
        with pytest.raises(InternalConsistencyError):
            accumulate_series([SeriesContribution((1, 1, 1), (2, 2))], [1, 1], 2)

    def test_trivial_rank_zero(self):
        h = accumulate_series([], [], 0)
        assert (h.numerator, h.r) == ((1,), 0)
        assert h.expand(3) == [1, 0, 0, 0]

    def test_empty_sum_is_zero(self):
        h = accumulate_series([], [1, 1], 2)
        assert (h.numerator, h.e, h.r) == ((0,), 1, 2)
        assert h.expand(4) == [0] * 5

    def test_degree_repeated_across_groups(self):
        # 1/(1-t)^2 = 1/((1-t)(1-t^2)) + (t + t^2)/(1-t^2)^2: the common
        # denominator holds 1 - t^2 twice
        contribs = [
            SeriesContribution((1,), (1, 2)),
            SeriesContribution((0, 1, 1), (2, 2)),
        ]
        h = accumulate_series(contribs, [1, 1], 2)
        assert (h.numerator, h.e, h.r) == ((1,), 1, 2)
        h = accumulate_series(contribs, [2, 2], 2)
        assert (h.numerator, h.e, h.r) == ((1, 2, 1), 2, 2)

    def test_factor_longer_than_numerator(self):
        # the numerator times 1 - t has at most four terms, and 1 - t^5
        # has six: the division is exact only when the numerator is zero
        cancel = [SeriesContribution((1,), (5,)), SeriesContribution((-1,), (5,))]
        h = accumulate_series(cancel, [1], 1)
        assert (h.numerator, h.e, h.r) == ((0,), 1, 1)
        for contribs in ([SeriesContribution((1,), (5,))],
                         # the top terms cancel and leave trailing zeros
                         [SeriesContribution((1, 0, 1), (5,)),
                          SeriesContribution((0, 0, -1), (5,))]):
            with pytest.raises(InternalConsistencyError,
                               match="polynomial division is inexact"):
                accumulate_series(contribs, [1], 1)

    def test_inexact_sum_across_groups_rejected(self):
        # 1/((1-t)(1-t^2)) + 1/(1-t^2)^2 = (2 + t)/((1-t)^2 (1+t)^2)
        contribs = [
            SeriesContribution((1,), (1, 2)),
            SeriesContribution((1,), (2, 2)),
        ]
        with pytest.raises(InternalConsistencyError,
                           match="polynomial division is inexact"):
            accumulate_series(contribs, [1, 1], 2)


@st.composite
def graded_cones(draw):
    """A pointed cone in Z^d, d = 2..4, with a grading positive on every
    generator: each generator's last coordinate is at least 1, and the
    grading's last coordinate outweighs the others."""
    d = draw(st.integers(2, 4))
    entry = {2: 6, 3: 3, 4: 2}[d]
    row = st.tuples(*[st.integers(-entry, entry)] * (d - 1), st.integers(1, entry))
    gens = draw(st.lists(row, min_size=d, max_size=d + 2))
    head = draw(st.lists(st.integers(-1, 1), min_size=d - 1, max_size=d - 1))
    last = 1 + entry * sum(abs(x) for x in head) + draw(st.integers(0, 1))
    return ConeInput(d, generators=tuple(gens), grading=tuple(head) + (last,))


# one simplex of det 768 whose extreme degrees 383, 307, 63 and 81 give
# e = lcm = 66,668,427 at rank 4: the numerator over (1 - t^e)^4 would
# have 266,673,709 coefficients
HUGE_E_INPUT = """amb_space 5
inequalities 6
1 -2 -1 -2 1
-3 3 1 -3 1
1 -1 -1 -2 -2
1 3 -2 1 0
-2 1 3 3 1
3 1 1 2 2
equations 1
-3 0 1 -1 3
grading
1 5 1 -1 3
"""

# the quadrant graded by (10^9, 1): one simplex of det 1 whose degree
# counts alone would take 10^9 int64 entries, 7.45 GiB
BIG_DEGREE_INPUT = """amb_space 2
cone 2
1 0
0 1
grading
1000000000 1
"""

SERIES_GUARD_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from conekit.cli import main
sys.exit(main([{path!r}, "--goal", "series"]))
"""


def run_series_child(tmp_path, text):
    """The input file and the finished `conekit --goal series` child run
    on it under a 1 GiB address-space limit."""
    path = tmp_path / "series.in"
    path.write_text(text, encoding="utf-8")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(sys.path))
    return path, subprocess.run(
        [sys.executable, "-c", SERIES_GUARD_CHILD.format(path=str(path))],
        capture_output=True, text=True, env=env, timeout=120)


class TestSeriesSizeGuard:
    def test_budget_is_on_e_times_rank(self):
        e = POINT_BUDGET // 2
        assert accumulate_series([], [e], 2).numerator == (0,)
        with pytest.raises(DomainError, match="budget"):
            accumulate_series([], [e + 1], 2)

    def test_huge_denominator_exits_2_within_one_gib(self, tmp_path):
        # a child process under its own 1 GiB address-space limit: the
        # unguarded expansion raises MemoryError there instead of
        # exhausting the machine
        path, out = run_series_child(tmp_path, HUGE_E_INPUT)
        assert out.returncode == 2, out.stderr
        assert out.stderr == ("error: Hilbert series denominator (1 - t^66668427)^4 "
                              f"is above the budget of {POINT_BUDGET} coefficients\n")
        assert not path.with_suffix(".out").exists()

    def test_big_degree_exits_2_within_one_gib(self, tmp_path):
        # refused before evaluation, whose degree counts would need 7.45 GiB
        path, out = run_series_child(tmp_path, BIG_DEGREE_INPUT)
        assert out.returncode == 2, out.stderr
        assert out.stderr == ("error: Hilbert series denominator (1 - t^1000000000)^2 "
                              f"is above the budget of {POINT_BUDGET} coefficients\n")
        assert not path.with_suffix(".out").exists()

    def test_refused_before_evaluation(self):
        ci = ConeInput(2, generators=((1, 0), (0, 1)), grading=(3 * 10**6, 1))
        with mock.patch("conekit.pipeline.series_contribution") as evaluate, \
                pytest.raises(DomainError, match="budget"):
            compute(ci, RunOptions(goals=frozenset({"hilbert_series"})))
        evaluate.assert_not_called()


class TestSubdividedSeries:
    @settings(max_examples=100, deadline=None)
    @given(graded_cones(), st.sampled_from([1, 2, 5]))
    # e·rank = 1,907,620·3 is above POINT_BUDGET: both runs refuse
    @example(ConeInput(3, generators=((-1, 3, 3), (1, 3, 3), (0, 3, 2), (-3, -2, 3),
                                      (2, -3, 3)), grading=(1, -1, 8)), 1)
    def test_ip_leaves_give_the_undivided_series(self, ci, bound):
        # stellar points get degrees that need not divide e; e is the lcm
        # of the extreme degrees alone, so a series over budget is refused
        # with the same message whatever the strategy
        series = frozenset({"hilbert_series"})
        ip = SubdivisionConfig(strategy="ip", volume_bound=bound, node_limit=200,
                               time_limit_scale=None)
        try:
            none = compute(ci, RunOptions(
                goals=series, subdivision=SubdivisionConfig(strategy="none")))
        except DomainError as refused:
            with pytest.raises(DomainError) as also:
                compute(ci, RunOptions(goals=series, subdivision=ip))
            assert str(also.value) == str(refused)
            return
        assert compute(ci, RunOptions(goals=series, subdivision=ip)).series == none.series


class TestBottomVolume:
    def test_unimodular(self):
        assert bottom_volume(make_simplicial_cone(((1, 0), (0, 1)))) == 1

    def test_cone35(self):
        assert bottom_volume(make_simplicial_cone(((1, 0), (3, 5)))) == 3

    def test_det_two(self):
        assert bottom_volume(make_simplicial_cone(((1, 0), (1, 2)))) == 2

    def test_guard(self):
        s = make_simplicial_cone(((1, 0), (3, 5)))
        with mock.patch.object(collect, "POINT_BUDGET", 4):
            with pytest.raises(DomainError, match="budget"):
                bottom_volume(s)

    def test_bottom_is_lower_bound_for_subdivision(self):
        s = make_simplicial_cone(((2, 1), (3, 7)))
        assert bottom_volume(s) <= s.det


class TestStats:
    def test_improvement_factor_exact(self):
        st_ = StatsRecord(simplex_volume=5, initial_volume=5, volume_used=3)
        assert st_.improvement_factor == Fraction(5, 3)
        assert st_.improvement_factor * st_.volume_used == st_.simplex_volume

    def test_disabled_is_one(self):
        st_ = StatsRecord(simplex_volume=7, initial_volume=7, volume_used=7)
        assert st_.improvement_factor == 1


class TestHilbertSeriesExpand:
    def test_geometric(self):
        h = HilbertSeries((1,), 1, 1)
        assert h.expand(4) == [1, 1, 1, 1, 1]

    def test_two_dims(self):
        h = HilbertSeries((1,), 1, 2)
        assert h.expand(4) == [1, 2, 3, 4, 5]
