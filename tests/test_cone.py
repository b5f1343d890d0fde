import importlib.util
import random
import sys
from dataclasses import fields, replace
from itertools import combinations, product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conekit import approx as approx_module, cone as cone_module, linalg as la, \
    subdivide as subdivide_module
from conekit.cli import parse_input
from conekit.approx import approximate_cone
from conekit.cone import (
    ConeInput, build_cone, dual_description, exchange, make_simplicial_cone,
    normalize_grading, build_simplices, simplicial_cones, triangulate,
    ambient_support_forms,
)
from conekit.errors import (GradingNotPositiveError, InternalConsistencyError,
                            NotPointedError, SingularMatrixError)
from conekit.pipeline import RunOptions, compute
from conekit.subdivide import SubdivisionConfig, stellar_subdivide

from oracles import (brute_extreme_rays, brute_facets, brute_support_forms, dotv,
                     excluded_facets, frac_rank, generator_sum, in_cone, in_half_open,
                     is_pointed, minor_det, placing_triangulation, rank_pointed)


QUADRANT = ((1, 0), (0, 1))
CONE35 = ((1, 0), (3, 5))
SQUARE3 = ((0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1))
FIXTURES = Path(__file__).parent / "fixtures"
SUBLATTICE = FIXTURES / "sublattice"
PYRAMIDS = FIXTURES / "pyramids"


def forms_set(forms):
    return {la.primitive(f) for f in forms}


def support_hyperplanes(generators):
    """Irredundant primitive support forms of a spanning generator set,
    sorted: the rays of the double description's dual."""
    return tuple(sorted(dual_description(generators)[0]))


def pointed_gens(d, min_size, max_size, entry=4):
    """Generator lists in Z^d whose cone is pointed by construction: every
    generator has a positive last coordinate."""
    row = st.tuples(*[st.integers(-entry, entry)] * (d - 1), st.integers(1, entry))
    return st.lists(row, min_size=min_size, max_size=max_size)


@st.composite
def cluttered_gens(draw, d):
    """Generators of a pointed cone in Z^d plus redundant ones (sums of two
    generators, multiples and repeats), shuffled."""
    gens = draw(pointed_gens(d, min_size=d, max_size=d + 3))
    extra = []
    for _ in range(draw(st.integers(0, 4))):
        a, b = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
        k = draw(st.integers(1, 3))
        extra.append(draw(st.sampled_from([
            tuple(x + y for x, y in zip(a, b)), tuple(k * x for x in a)])))
    return draw(st.permutations(gens + extra))


class TestSupportHyperplanes:
    def test_orthant(self):
        assert forms_set(support_hyperplanes(la.identity(3))) == \
            forms_set(la.identity(3))

    def test_cone35(self):
        assert forms_set(support_hyperplanes(CONE35)) == {(0, 1), (5, -3)}

    def test_square_cone(self):
        forms = support_hyperplanes(SQUARE3)
        assert len(forms) == 4
        assert forms_set(forms) == {(1, 0, 0), (0, 1, 0), (-1, 0, 1), (0, -1, 1)}

    def test_each_form_vanishes_on_a_facet(self):
        forms = support_hyperplanes(SQUARE3)
        for f in forms:
            on = [g for g in SQUARE3 if dotv(f, g) == 0]
            assert frac_rank(on) == 2
            assert all(dotv(f, g) >= 0 for g in SQUARE3)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9)),
                    min_size=3, max_size=6))
    def test_matches_brute_force_3d(self, gens):
        gens = tuple(g for g in gens if any(g))
        if frac_rank(gens) < 3 or not is_pointed(gens):
            return
        ours = forms_set(support_hyperplanes(gens))
        brute = brute_support_forms(gens)
        # ours is irredundant; every brute candidate must follow from ours,
        # and every one of ours must appear among the brute candidates
        assert ours <= set(brute)
        for x in product((-3, -1, 0, 2, 5), repeat=3):
            assert in_cone(brute, x) == all(dotv(f, x) >= 0 for f in ours)

    @pytest.mark.parametrize("d", [4, 5])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_irredundant_brute_force(self, d, data):
        gens = data.draw(pointed_gens(d, min_size=d, max_size=d + 4))
        assume(frac_rank(gens) == d)
        assert list(support_hyperplanes(gens)) == brute_facets(gens)


@st.composite
def redundant_vectors(draw, d):
    """Vector lists in Z^d that end in repeats, positive multiples and
    sums of earlier vectors, each inside the cone of those before it."""
    vectors = draw(pointed_gens(d, min_size=d, max_size=d + 2))
    for _ in range(draw(st.integers(1, 5))):
        a, b = draw(st.sampled_from(vectors)), draw(st.sampled_from(vectors))
        k = draw(st.integers(2, 3))
        vectors.append(draw(st.sampled_from([
            a, tuple(k * x for x in a), tuple(x + y for x, y in zip(a, b))])))
    return vectors


class TestMasks:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 4).flatmap(
        lambda d: st.one_of(redundant_vectors(d), cluttered_gens(d))))
    def test_masks_are_zero_sets(self, vectors):
        # build_cone reads every generator's facets off these bits
        assume(frac_rank(vectors) == len(vectors[0]))
        rays, masks, _ = dual_description(vectors)
        assert len(masks) == len(rays)
        for ray, mask in zip(rays, masks):
            for i, v in enumerate(vectors):
                assert bool(mask >> i & 1) == (dotv(ray, v) == 0)
            assert mask >> len(vectors) == 0


class TestBuildCone:
    def test_quadrant_self_dual(self):
        c = build_cone(ConeInput(2, generators=QUADRANT))
        assert forms_set(c.support_forms) == {(1, 0), (0, 1)}
        assert set(c.generators) == {(1, 0), (0, 1)}
        assert c.rank == 2

    def test_cone35(self):
        c = build_cone(ConeInput(2, generators=CONE35))
        assert forms_set(c.support_forms) == {(0, 1), (5, -3)}

    def test_quadrant_from_inequalities(self):
        c = build_cone(ConeInput(2, inequalities=((1, 0), (0, 1))))
        assert set(c.generators) == {(1, 0), (0, 1)}

    def test_not_pointed_rejected(self):
        with pytest.raises(NotPointedError):
            build_cone(ConeInput(2, generators=((1, 0), (-1, 0), (0, 1))))

    def test_half_space_not_pointed(self):
        with pytest.raises(NotPointedError):
            build_cone(ConeInput(2, inequalities=((1, 0),)))

    def test_trivial_cone(self):
        c = build_cone(ConeInput(2, generators=((0, 0),)))
        assert c.rank == 0
        assert c.generators == ()

    def test_redundant_generator_dropped(self):
        c = build_cone(ConeInput(2, generators=((1, 0), (1, 1), (0, 1))))
        assert set(c.generators) == {(1, 0), (0, 1)}

    def test_non_primitive_input_normalized(self):
        c = build_cone(ConeInput(2, generators=((2, 0), (0, 3))))
        assert set(c.generators) == {(1, 0), (0, 1)}

    def test_low_dimensional_cone(self):
        c = build_cone(ConeInput(3, generators=((1, 1, 0), (2, 2, 0))))
        assert c.rank == 1
        assert c.generators == ((1,),)
        assert c.to_ambient((1,)) in {(1, 1, 0), (-1, -1, 0)}

    def test_equations_input(self):
        # x = y plane intersected with x >= 0 in Z^3: a 2D cone in a plane
        c = build_cone(ConeInput(3, inequalities=((1, 0, 0), (0, 0, 1)),
                                 equations=((1, -1, 0),)))
        assert c.rank == 2
        amb = sorted(c.to_ambient(g) for g in c.generators)
        assert amb == [(0, 0, 1), (1, 1, 0)]

    def test_generators_and_inequalities_intersect(self):
        c = build_cone(ConeInput(2, generators=((1, 0), (0, 1)),
                                 inequalities=((1, -1),)))
        assert set(c.generators) == {(1, 0), (1, 1)}
        # a rank-3 generator cone {(a, b, c, a + b + c)} in Z^4 cut by
        # x0 = x1 and x2 >= x0: the equation is solved in its lattice
        c = build_cone(ConeInput(4, generators=((1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1)),
                                 inequalities=((-1, 0, 1, 0),),
                                 equations=((1, -1, 0, 0),)))
        assert c.rank == 2
        assert {c.to_ambient(g) for g in c.generators} == {(1, 1, 1, 3), (0, 0, 1, 1)}

    def test_dual_round_trip_2d(self):
        for gens in [CONE35, QUADRANT, ((2, 1), (3, 7)), ((1, -2), (4, 1))]:
            c1 = build_cone(ConeInput(2, generators=gens))
            c2 = build_cone(ConeInput(2, inequalities=c1.support_forms))
            assert forms_set(c1.support_forms) == forms_set(c2.support_forms)
            assert set(c1.generators) == set(c2.generators)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(-7, 7), st.integers(-7, 7), st.integers(-7, 7)),
                    min_size=3, max_size=5))
    def test_dual_round_trip_3d(self, gens):
        gens = tuple(g for g in gens if any(g))
        if frac_rank(gens) < 3 or not is_pointed(gens):
            return
        c1 = build_cone(ConeInput(3, generators=gens))
        c2 = build_cone(ConeInput(3, inequalities=c1.support_forms))
        assert forms_set(c1.support_forms) == forms_set(c2.support_forms)
        assert set(c1.generators) == set(c2.generators)

    def test_generators_positive_on_forms(self):
        c = build_cone(ConeInput(3, generators=SQUARE3))
        for g in c.generators:
            assert all(dotv(f, g) >= 0 for f in c.support_forms)
        for f in c.support_forms:
            on = [g for g in c.generators if dotv(f, g) == 0]
            assert frac_rank(on) == c.rank - 1


class TestRestrictedCoordinates:
    """The lattice basis of a rank-deficient cone is LLL-reduced, and a
    generator cone cut by constraints is restricted only once."""

    def test_skew_entries_stay_small(self):
        # the Smith-form basis of these generators had entries of 47 bits
        # and restricted generators of 38 bits
        ci = parse_input((SUBLATTICE / "skew.in").read_text())
        c = build_cone(ConeInput(ci.ambient_dim, generators=ci.generators))
        assert c.rank == 5
        assert all(abs(x) < 2**8 for m in (c.lattice_basis, c.generators)
                   for row in m for x in row)

    def test_intersection_solved_in_generator_lattice(self):
        # one sublattice for the generator cone, one for the equations in
        # its lattice, one for the rank-3 intersection; the generators'
        # kernel is not computed a second time
        ci = parse_input((SUBLATTICE / "intersect.in").read_text())
        with mock.patch.object(la, "sublattice", wraps=la.sublattice) as spy:
            c = build_cone(ci)
        assert spy.call_count == 3
        assert c.rank == 3


class TestExtremeRays:
    """build_cone keeps the extreme generators, primitive, in input order
    and without repeats; `brute_extreme_rays` decides extremality from the
    rank of the valid forms through each generator."""

    def test_redundant_and_repeated(self):
        gens = ((0, 3), (1, 1), (2, 0), (0, 1), (1, 0), (0, 2))
        c = build_cone(ConeInput(2, generators=gens))
        assert c.generators == ((0, 1), (1, 0)) == tuple(brute_extreme_rays(gens))

    def test_square_with_interior_generator(self):
        gens = ((1, 1, 2),) + SQUARE3 + ((0, 0, 2),)
        c = build_cone(ConeInput(3, generators=gens))
        assert c.generators == SQUARE3 == tuple(brute_extreme_rays(gens))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 4).flatmap(cluttered_gens))
    def test_full_dimensional(self, gens):
        d = len(gens[0])
        assume(frac_rank(gens) == d)
        c = build_cone(ConeInput(d, generators=gens))
        assert list(c.generators) == brute_extreme_rays(gens)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda k: st.tuples(
        cluttered_gens(k),
        st.lists(st.tuples(*[st.integers(-3, 3)] * (k + 2)), min_size=k, max_size=k))))
    def test_low_rank_through_lattice_basis(self, data):
        # a rank-k cone embedded into Z^(k+2) by an injective integer map
        gens, embed = data
        k = len(gens[0])
        assume(frac_rank(gens) == k and frac_rank(embed) == k)

        def lift(v):
            return tuple(dotv(v, col) for col in zip(*embed))

        c = build_cone(ConeInput(k + 2, generators=[lift(g) for g in gens]))
        assert c.rank == k
        assert [c.to_ambient(g) for g in c.generators] == \
            [la.primitive(lift(p)) for p in brute_extreme_rays(gens)]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 4).flatmap(lambda d: pointed_gens(d, d, d + 3)))
    def test_inequality_input(self, ineqs):
        # cone(ineqs) is pointed and spans, so its dual {x : ineqs·x >= 0}
        # is full-dimensional and pointed, and the valid forms of
        # cone(ineqs) generate it
        d = len(ineqs[0])
        assume(frac_rank(ineqs) == d)
        c = build_cone(ConeInput(d, inequalities=ineqs))
        rays = brute_extreme_rays(brute_support_forms(ineqs))
        assert c.rank == d
        assert sorted(c.generators) == sorted(rays)


class TestIsPointed:
    """The oracle filter that the random-cone tests use."""

    def test_quadrant(self):
        assert is_pointed(QUADRANT)

    def test_line_not_pointed(self):
        assert not is_pointed(((1, 0), (-1, 0), (0, 1)))

    def test_cone35(self):
        assert is_pointed(CONE35)

    def test_on_cone_object(self):
        c = build_cone(ConeInput(2, generators=CONE35))
        assert is_pointed(c.generators)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 4).flatmap(lambda d: st.tuples(
        st.lists(st.tuples(*[st.integers(-3, 3)] * d), max_size=d + 2),
        st.lists(st.tuples(*[st.integers(-3, 3)] * d), min_size=1, max_size=2))),
        st.randoms(use_true_random=False))
    def test_opposite_generators_raise(self, vectors, rng):
        # g and -g among the generators: both lie on every facet
        others, lines = vectors
        assume(all(any(g) for g in lines))
        gens = others + lines + [tuple(-x for x in g) for g in lines]
        rng.shuffle(gens)
        assert not rank_pointed(gens)
        with pytest.raises(NotPointedError):
            build_cone(ConeInput(len(gens[0]), generators=tuple(gens)))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda d: st.lists(
        st.tuples(*[st.integers(-2, 2)] * d), min_size=1, max_size=d + 3)))
    def test_masks_agree_with_rank_test(self, gens):
        # build_cone's verdict, a generator on every facet, is the rank test's
        assert is_pointed(gens) == rank_pointed(gens)


class TestNormalizeGrading:
    def test_degenerate_rejected(self):
        c = build_cone(ConeInput(2, generators=QUADRANT))
        with pytest.raises(GradingNotPositiveError):
            normalize_grading(c, (2, 0))

    def test_rescale(self):
        c = build_cone(ConeInput(2, generators=QUADRANT))
        assert normalize_grading(c, (2, 2)) == (1, 1)

    def test_already_normal(self):
        c = build_cone(ConeInput(2, generators=CONE35))
        assert normalize_grading(c, (1, 0)) == (1, 0)

    def test_low_dim_rescale(self):
        # on the diagonal ray, the ambient grading (1,1) evaluates to 2
        c = build_cone(ConeInput(2, generators=((1, 1),)))
        assert normalize_grading(c, (1, 1)) == (1,)


def half_open_count(simplices, x, anchor):
    return sum(1 for s in simplices if in_half_open(s, x, anchor))


class TestTriangulate:
    def test_simplicial_input(self):
        c = build_cone(ConeInput(2, generators=CONE35))
        tri = triangulate(c)
        assert len(tri) == 1
        assert tri[0].det == 5
        assert excluded_facets(tri[0], generator_sum(c.generators)) == frozenset()

    def test_square_cone(self):
        c = build_cone(ConeInput(3, generators=SQUARE3))
        tri = triangulate(c)
        assert len(tri) == 2
        assert [s.det for s in tri] == [1, 1]
        # pulled from (0,0,1): the diagonal facet is the one excluded
        assert [s.gens[0] for s in tri] == [(0, 0, 1), (0, 0, 1)]
        anchor = generator_sum(c.generators)
        assert excluded_facets(tri[0], anchor) == frozenset({1})
        assert excluded_facets(tri[1], anchor) == frozenset()

    def test_square_cone_half_open_cover(self):
        c = build_cone(ConeInput(3, generators=SQUARE3))
        tri = triangulate(c)
        anchor = generator_sum(c.generators)  # the pipeline's anchor
        for x in product(range(0, 4), range(0, 4), range(0, 4)):
            inside = all(dotv(f, x) >= 0 for f in c.support_forms)
            assert half_open_count(tri, x, anchor) == (1 if inside else 0)

    def test_redundant_generator(self):
        # (1,1) is not extreme, so the stored generators drop it
        c = build_cone(ConeInput(2, generators=((1, 0), (0, 1), (1, 1))))
        tri = triangulate(c)
        anchor = generator_sum(c.generators)
        total = 0
        for x in product(range(-2, 8), repeat=2):
            cnt = half_open_count(tri, x, anchor)
            inside = x[0] >= 0 and x[1] >= 0
            assert cnt == (1 if inside else 0)
            total += cnt
        assert sum(s.det for s in tri) == 1

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
                    min_size=2, max_size=6))
    def test_half_open_cover_2d(self, gens):
        gens = tuple(g for g in gens if any(g))
        if frac_rank(gens) < 2 or not is_pointed(gens):
            return
        c = build_cone(ConeInput(2, generators=gens))
        tri = triangulate(c)
        anchor = generator_sum(c.generators)
        for x in product(range(-12, 13), repeat=2):
            inside = all(dotv(f, x) >= 0 for f in c.support_forms)
            assert half_open_count(tri, x, anchor) == (1 if inside else 0)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)),
                    min_size=3, max_size=6))
    def test_half_open_cover_3d(self, gens):
        gens = tuple(g for g in gens if any(g))
        if frac_rank(gens) < 3 or not is_pointed(gens):
            return
        c = build_cone(ConeInput(3, generators=gens))
        tri = triangulate(c)
        anchor = generator_sum(c.generators)
        for x in product(range(-6, 7), repeat=3):
            inside = all(dotv(f, x) >= 0 for f in c.support_forms)
            assert half_open_count(tri, x, anchor) == (1 if inside else 0)

    def test_cross_section_volume(self):
        # both square-cone simplices have all generators at degree 1;
        # their determinants add up to the normalized area of the square
        c = build_cone(ConeInput(3, generators=SQUARE3))
        assert sum(s.det for s in triangulate(c)) == 2


class TestSimplicialCone:
    def test_facet_forms_scaling(self):
        s = make_simplicial_cone(CONE35)
        for i in range(2):
            for j in range(2):
                assert la.dot(s.facet_forms[i], s.gens[j]) == \
                    (s.det if i == j else 0)

    def test_q_numerators(self):
        s = make_simplicial_cone(CONE35)
        assert s.q_numerators((1, 1)) == (2, 1)  # q = (2/5, 1/5)

    def test_standalone_simplex_is_closed(self):
        s = make_simplicial_cone(((2, 1), (3, 7)))
        assert excluded_facets(s, generator_sum(s.gens)) == frozenset()

    def test_fields_are_gens_det_and_forms(self):
        # the half-open exclusions and the height normal are not stored:
        # series_contribution derives the one, a property computes the other
        s = make_simplicial_cone(CONE35)
        assert [f.name for f in fields(s)] == ["gens", "det", "facet_forms"]


class TestAmbientSupportForms:
    def test_full_dim_passthrough(self):
        c = build_cone(ConeInput(2, generators=CONE35))
        assert ambient_support_forms(c) == c.support_forms

    def test_low_dim_lift(self):
        c = build_cone(ConeInput(3, inequalities=((1, 0, 0), (0, 0, 1)),
                                 equations=((1, -1, 0),)))
        lifted = ambient_support_forms(c)
        ambient_gens = [c.to_ambient(g) for g in c.generators]
        for f in lifted:
            assert all(dotv(f, g) >= 0 for g in ambient_gens)
            assert any(dotv(f, g) == 0 for g in ambient_gens)


# entries of up to 70 bits, so that some simplices leave int64 range
SMALL = st.integers(-9, 9)
ENTRY = st.one_of(SMALL, st.integers(-(1 << 70), 1 << 70))


@st.composite
def exchange_case(draw, r=None, entry=ENTRY):
    """(s, i, x): a simplex of rank r <= 6, an index and a point x with
    u_i != 0, drawn as a nonnegative combination of the generators (a
    point of the simplex) or freely (mostly outside it)."""
    r = r or draw(st.integers(1, 6))
    gens = draw(st.lists(st.tuples(*[entry] * r), min_size=r, max_size=r))
    assume(minor_det(gens) != 0)
    s = make_simplicial_cone(gens)
    i = draw(st.integers(0, r - 1))
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(0, 3), min_size=r, max_size=r))
        coeffs[i] = draw(st.integers(1, 3))
        x = tuple(sum(c * g[j] for c, g in zip(coeffs, s.gens)) for j in range(r))
    else:
        x = draw(st.tuples(*[entry] * r))
    assume(s.q_numerators(x)[i] != 0)
    return s, i, x


def replaced(s, i, x):
    return s.gens[:i] + (x,) + s.gens[i + 1:]


@st.composite
def mixed_level(draw):
    """Jobs (s, i, x) of one rank r in 2-4 with small entries, one of
    them scaled by 2^64, so that its facet forms, the (r-1)-minors,
    leave int64 range."""
    r = draw(st.integers(2, 4))
    cases = draw(st.lists(exchange_case(r, SMALL), min_size=2, max_size=5))
    k = draw(st.integers(0, len(cases) - 1))
    s, i, x = cases[k]
    cases[k] = (make_simplicial_cone([[c << 64 for c in g] for g in s.gens]), i,
                tuple(c << 64 for c in x))
    return cases


def pivot_dtypes():
    """A wrapper of linalg.pivot that records the dtype of every stack
    of forms it returns."""
    dtypes, pivot = [], la.pivot

    def spy(*args):
        out = pivot(*args)
        dtypes.append(out[0].dtype)
        return out
    return spy, dtypes


def cones(stack):
    """The simplices of a stack as a list of SimplicialCones, after
    checking the shapes of its arrays."""
    k, r = len(stack), stack.gens.shape[-1]
    assert stack.gens.shape == stack.forms.shape == (k, r, r) and stack.det.shape == (k,)
    return list(simplicial_cones(stack))


def exchange_jobs(jobs):
    """The SimplicialCones of cone.exchange's stack on the jobs (s, i, x),
    s with gens[i] replaced by x: their parents' forms, dets, u = F·x and
    the new generators stacked."""
    parents, i, xs = map(list, zip(*jobs))
    return cones(exchange(la.stack([s.facet_forms for s in parents]),
                    la.stack([s.det for s in parents]),
                    la.stack([s.q_numerators(x) for s, x in zip(parents, xs)]),
                    i, la.stack([replaced(*job) for job in jobs])))


@st.composite
def star_case(draw):
    """(s, x, support): a simplex, a point of it and the indices where
    its q-numerators u are positive, as stellar_subdivide passes them."""
    s, i, _ = draw(exchange_case())
    coeffs = draw(st.lists(st.integers(0, 3), min_size=s.dim, max_size=s.dim))
    coeffs[i] = draw(st.integers(1, 3))
    x = tuple(sum(c * g[j] for c, g in zip(coeffs, s.gens)) for j in range(s.dim))
    return s, x, [j for j, v in enumerate(s.q_numerators(x)) if v > 0]


class TestExchange:
    @settings(max_examples=200, deadline=None)
    @given(exchange_case())
    def test_equals_adjugate_route(self, case):
        s, i, x = case
        assert exchange_jobs([(s, i, x)]) == [make_simplicial_cone(replaced(s, i, x))]

    @settings(max_examples=200, deadline=None)
    @given(star_case())
    def test_shared_parent_equals_adjugate_route(self, case):
        # the pieces of a stellar cut: one parent repeated down the stack
        s, x, support = case
        assert exchange_jobs([(s, i, x) for i in support]) == \
            [make_simplicial_cone(replaced(s, i, x)) for i in support]

    def test_one_pivot_on_the_given_u(self):
        # a stellar cut pivots every piece on the parent's forms, det and
        # its u; the one array product left is the F'·g' check
        s = make_simplicial_cone(((1, 0, 0), (0, 1, 0), (1, 1, 3)))
        x = (1, 1, 1)
        calls, pivot = [], la.pivot

        def spy(forms, delta, u, i):
            calls.append((forms.tolist(), delta.tolist(), u.tolist(), list(i)))
            return pivot(forms, delta, u, i)
        with mock.patch.object(la, "pivot", spy), \
                mock.patch.object(la, "products", wraps=la.products) as products:
            out = stellar_subdivide(s, x)
        forms = [list(f) for f in s.facet_forms]
        assert calls == [([forms] * 3, [s.det] * 3, [list(s.q_numerators(x))] * 3, [0, 1, 2])]
        assert products.call_count == 1
        assert out == tuple(make_simplicial_cone(replaced(s, i, x)) for i in range(3))

    @settings(max_examples=60, deadline=None)
    @given(mixed_level())
    def test_mixed_level_falls_back_to_object(self, jobs):
        # one job of big forms puts the whole stack in Python ints; every
        # job still gets the forms of its own simplex
        spy, dtypes = pivot_dtypes()
        with mock.patch.object(la, "pivot", spy):
            out = exchange_jobs(jobs)
        assert dtypes == [object]
        assert out == [make_simplicial_cone(replaced(*job)) for job in jobs]

    def test_small_level_stays_int64(self):
        s = make_simplicial_cone(((2, 1), (3, 7)))
        spy, dtypes = pivot_dtypes()
        with mock.patch.object(la, "pivot", spy):
            out = exchange_jobs([(s, 0, (1, 1)), (s, 1, (1, 1))])
        assert dtypes == [np.int64]
        assert out == [make_simplicial_cone(((1, 1), (3, 7))),
                       make_simplicial_cone(((2, 1), (1, 1)))]

    def test_point_on_opposite_facet(self):
        # u_0 = 0 for (3, 5), a generator of the facet opposite g_0
        s = make_simplicial_cone(CONE35)
        with pytest.raises(SingularMatrixError):
            exchange_jobs([(s, 0, (3, 5))])
        with pytest.raises(SingularMatrixError):
            exchange_jobs([(s, 1, (1, 1)), (s, 0, (3, 5))])

    def test_shared_parent_point_on_opposite_facet(self):
        s = make_simplicial_cone(CONE35)
        with pytest.raises(SingularMatrixError):
            exchange_jobs([(s, 0, (3, 5)), (s, 1, (3, 5))])

    def test_shared_parent_wrong_forms_raise(self):
        # as below, with one corrupted parent repeated down the stack
        s = make_simplicial_cone(((2, 1), (3, 7)))
        bad = replace(s, facet_forms=(s.facet_forms[0],
                                      (s.facet_forms[1][0] + 1, s.facet_forms[1][1])))
        with pytest.raises(InternalConsistencyError, match="remainder"):
            exchange_jobs([(bad, 0, (1, 1)), (bad, 1, (1, 1))])
        bad = replace(s, facet_forms=((s.facet_forms[0][0] + s.det, s.facet_forms[0][1]),
                                      s.facet_forms[1]))
        with pytest.raises(InternalConsistencyError, match="F'"):
            exchange_jobs([(bad, 0, (1, 1)), (bad, 0, (1, 1))])

    @staticmethod
    def corrupted(s, forms):
        """A stack of good jobs around one job on s with wrong forms."""
        good = make_simplicial_cone(((1, 2), (4, 1)))
        return [(good, 0, (1, 1)), (replace(s, facet_forms=forms), 0, (1, 1)),
                (good, 1, (1, 1))]

    def test_inexact_division_raises(self):
        # det 11 and u = (4, 1) at x = (1, 1); one more on an entry of
        # the other row leaves a remainder modulo 11
        s = make_simplicial_cone(((2, 1), (3, 7)))
        assert s.det == 11 and s.q_numerators((1, 1)) == (4, 1)
        forms = (s.facet_forms[0], (s.facet_forms[1][0] + 1, s.facet_forms[1][1]))
        with pytest.raises(InternalConsistencyError, match="remainder"):
            exchange_jobs(self.corrupted(s, forms))

    def test_wrong_form_row_raises(self):
        # det added to an entry of the pivot row keeps every division
        # exact, but that row no longer vanishes on the other generator
        s = make_simplicial_cone(((2, 1), (3, 7)))
        pivot = (s.facet_forms[0][0] + s.det, s.facet_forms[0][1])
        with pytest.raises(InternalConsistencyError, match="F'"):
            exchange_jobs(self.corrupted(s, (pivot, s.facet_forms[1])))


def pivoted_simplices(*exchange_mocks) -> int:
    """The number of simplices pivoted through wrapped exchanges."""
    return sum(len(c.args[3]) for m in exchange_mocks for c in m.call_args_list)


def check_simplices(vectors, cells, rng):
    """build_simplices over the cells, shuffled, returns the stack of
    make_simplicial_cone's simplex over each cell's vectors, in the order
    of the cells; a lone cell is built from scratch, two or more by one
    exchange over every cell."""
    cells = list(cells)
    assert all(idx == tuple(sorted(idx)) for idx in cells)
    rng.shuffle(cells)
    with mock.patch.object(cone_module, "make_simplicial_cone",
                           wraps=cone_module.make_simplicial_cone) as scratch, \
            mock.patch.object(cone_module, "exchange",
                              wraps=cone_module.exchange) as pivoted:
        built = cones(build_simplices(vectors, cells))
    assert scratch.call_count == (len(cells) == 1)
    assert pivoted_simplices(pivoted) == (len(cells) if len(cells) > 1 else 0)
    assert built == [make_simplicial_cone([vectors[g] for g in idx]) for idx in cells]


@st.composite
def random_cells(draw):
    """(vectors, cells): r to r + 3 vectors in Z^r, r = 1-4, with entries
    of up to 70 bits, and one to six sorted r-subsets of them that span,
    repeats allowed."""
    r = draw(st.integers(1, 4))
    vectors = draw(st.lists(st.tuples(*[ENTRY] * r), min_size=r, max_size=r + 3))
    spanning = [idx for idx in combinations(range(len(vectors)), r)
                if minor_det([vectors[g] for g in idx])]
    assume(spanning)
    return vectors, draw(st.lists(st.sampled_from(spanning), min_size=1, max_size=6))


class TestBuildSimplices:
    @settings(max_examples=150, deadline=None)
    @given(random_cells(), st.randoms(use_true_random=False))
    def test_random_cells(self, case, rng):
        check_simplices(*case, rng)

    def test_stack_dtype_follows_its_entries(self):
        # 2-cells over the rays (1, k), k = 0..4: a small stack pivots in
        # int64 throughout; ray 0 scaled by 2^64, the first generator of
        # one cell, puts both steps in Python ints, and ray 4, the last
        # generator of one cell, only the exchange step
        cells = [(k, k + 1) for k in range(4)]
        for big, expected in [(None, [np.int64, np.int64]), (0, [object, object]),
                              (4, [np.int64, object])]:
            vectors = [(1 << 64, k << 64) if k == big else (1, k) for k in range(5)]
            spy, dtypes = pivot_dtypes()
            with mock.patch.object(la, "pivot", spy):
                built = cones(build_simplices(vectors, cells))
            assert dtypes == expected
            assert built == [make_simplicial_cone([vectors[g] for g in idx])
                             for idx in cells]

    @pytest.mark.parametrize("cells", [[(0, 2, 3), (0, 1, 2)], [(0, 2, 3), (0, 2, 4)]])
    def test_dependent_cell_raises(self, cells):
        # (0, 1, 2) is dependent at its second generator, (0, 2, 4) at its last
        vectors = [(1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)]
        with pytest.raises(SingularMatrixError):
            build_simplices(vectors, cells)

    def test_empty_and_lone_cell(self):
        assert cones(build_simplices(CONE35, [])) == []
        assert build_simplices(CONE35, []).gens.shape == (0, 2, 2)
        check_simplices(CONE35, [(0, 1)], random.Random(0))


FIXTURE_CONES = [build_cone(parse_input(p.read_text()))
                 for p in sorted(FIXTURES.glob("*.in")) + sorted(SUBLATTICE.glob("*.in"))
                 + sorted(PYRAMIDS.glob("*.in"))]


def check_placing(vectors, rng):
    """The placing triangulation of the vectors is built as
    check_simplices requires."""
    check_simplices(vectors, dual_description(vectors)[2], rng)


def apex_of(c):
    """The generator on the most facets of a built cone, the lowest index
    on a tie, found from the brute-force facets."""
    facets = brute_facets(c.generators)
    on = [sum(dotv(f, g) == 0 for f in facets) for g in c.generators]
    return on.index(max(on)), facets


def check_pulling(c):
    """The triangulation of a built cone of rank at least 2 is pulled from
    its apex: every simplex holds the apex, its other vertices lie on one
    facet without the apex, and every simplicial facet without the apex
    is the base of one simplex."""
    apex, facets = apex_of(c)
    cells = set(c.triangulation)
    assert all(apex in idx for idx in cells)
    for idx in cells:
        base = [c.generators[g] for g in idx if g != apex]
        assert any(all(dotv(f, g) == 0 for g in base) for f in facets)
    for f in facets:
        face = tuple(j for j, g in enumerate(c.generators) if dotv(f, g) == 0)
        if apex not in face and len(face) == c.rank - 1:
            assert tuple(sorted(face + (apex,))) in cells


class TestPlacingLinks:
    @pytest.mark.parametrize("c", FIXTURE_CONES, ids=lambda c: str(c.generators))
    def test_fixture_cones(self, c):
        check_placing(c.generators, random.Random(0))
        check_simplices(c.generators, c.triangulation, random.Random(1))
        if c.rank > 1:
            check_pulling(c)
        assert triangulate(c) == tuple(make_simplicial_cone([c.generators[g] for g in idx])
                                       for idx in c.triangulation)

    @pytest.mark.parametrize("c", FIXTURE_CONES, ids=lambda c: str(c.generators))
    @pytest.mark.parametrize("level", [1, 2])
    def test_fixture_overcones(self, c, level):
        for s in triangulate(c):
            if s.dim > 1:
                check_placing(approximate_cone(s, level), random.Random(level))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 4).flatmap(cluttered_gens), st.randoms(use_true_random=False))
    def test_random_cones(self, gens, rng):
        gens = tuple(g for g in gens if any(g))
        assume(gens and frac_rank(gens) == len(gens[0]))
        c = build_cone(ConeInput(len(gens[0]), generators=gens))
        check_placing(c.generators, rng)
        check_simplices(c.generators, c.triangulation, rng)
        check_pulling(c)
        # redundant input or not, the triangulation is that of the extreme generators
        assert c.triangulation == build_cone(
            ConeInput(len(gens[0]), generators=c.generators)).triangulation

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 4).flatmap(lambda d: st.lists(
        st.tuples(*[st.integers(-30, 30)] * (d - 1), st.integers(1, 30)),
        min_size=d, max_size=d)), st.integers(1, 2), st.randoms(use_true_random=False))
    def test_random_overcones(self, gens, level, rng):
        assume(minor_det(gens) != 0)
        check_placing(approximate_cone(make_simplicial_cone(gens), level), rng)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 5).flatmap(lambda d: st.one_of(
        redundant_vectors(d), cluttered_gens(d),
        st.lists(st.tuples(*[st.integers(-3, 3)] * d), min_size=d, max_size=d + 8))))
    def test_index_tuples_distinct(self, vectors):
        # each new tuple extends one boundary facet of the current cone,
        # so none arises twice, also for repeated, non-extreme and
        # non-pointed input vectors
        assume(frac_rank(vectors) == len(vectors[0]))
        idx = dual_description(vectors)[2]
        assert len(set(idx)) == len(idx)
        assert all(len(set(t)) == len(vectors[0]) for t in idx)


@st.composite
def pulling_cones(draw):
    """Generators of a pointed cone in Z^d, d = 3-5: the cone over a cube
    or a prism (non-simplicial facets for d >= 4), sheared, or random
    generators, with repeats, multiples and sums of two generators (on a
    shared facet when both lie on it) mixed in and shuffled."""
    d = draw(st.integers(3, 5))
    kind = draw(st.sampled_from(["cube", "prism", "random"]))
    if kind == "cube":
        gens = [v + (1,) for v in product((0, 1), repeat=d - 1)]
    elif kind == "prism":
        base = [tuple(int(i == j) for j in range(d - 2)) for i in range(-1, d - 2)]
        gens = [b + (h, 1) for b in base for h in (0, 1)]
    else:
        gens = draw(pointed_gens(d, min_size=d, max_size=d + 5, entry=3))
    if kind != "random":
        # a unimodular shear of the first d - 1 coordinates keeps the
        # lattice polytope at height 1
        for i in range(d - 1):
            for j in range(i):
                a = draw(st.integers(-1, 1))
                gens = [g[:i] + (g[i] + a * g[j],) + g[i + 1:] for g in gens]
    for _ in range(draw(st.integers(0, 4))):
        a, b = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
        gens.append(draw(st.sampled_from([
            a, tuple(2 * x for x in a), tuple(x + y for x, y in zip(a, b))])))
    return draw(st.permutations(gens))


class TestPulling:
    @settings(max_examples=40, deadline=None)
    @given(pulling_cones(), st.randoms(use_true_random=False))
    def test_pulled_triangulation(self, gens, rng):
        d = len(gens[0])
        assume(frac_rank(gens) == d)
        c = build_cone(ConeInput(d, generators=gens))
        # the simplices of the cells, in their order
        check_simplices(c.generators, c.triangulation, rng)
        # every simplex holds the apex and stands on a facet without it
        check_pulling(c)
        # the half-open simplices cover the cone exactly once
        tri = triangulate(c)
        anchor = generator_sum(c.generators)
        for x in product(range(-1, 3), repeat=d):
            inside = all(dotv(f, x) >= 0 for f in c.support_forms)
            assert half_open_count(tri, x, anchor) == (1 if inside else 0)
        # over a lattice polytope, the normalized volume is that of the placing
        if all(g[-1] == 1 for g in c.generators):
            placing = placing_triangulation(c.generators)
            assert sum(s.det for s in tri) == sum(
                abs(minor_det([c.generators[g] for g in idx])) for idx in placing)

    def test_simplicial_cone_is_its_one_simplex(self):
        c = build_cone(ConeInput(3, generators=((1, 2, 0), (0, 1, 5), (3, 0, 1))))
        assert c.triangulation == ((0, 1, 2),)

    def test_apex_on_most_facets(self):
        # the prism over a triangle at height 1: its six vertices lie on
        # three facets each, so the first pulls; the other triangle and
        # the one square without it carry 1 + 2 simplices, of det 1 each
        prism = tuple(b + (h, 1) for b in ((0, 0), (1, 0), (0, 1)) for h in (0, 1))
        c = build_cone(ConeInput(4, generators=prism))
        assert apex_of(c)[0] == 0
        assert [s.det for s in triangulate(c)] == [1, 1, 1]
        assert all(0 in idx for idx in c.triangulation)


def polytope_cone(rng, points=16, box=5, d=6):
    """The cone over `points` distinct random lattice points of
    [0, box]^(d-1) at height 1, drawn as conebench's series-polytope
    workload draws its cones."""
    seen = []
    while len(seen) < points:
        p = tuple(rng.randint(0, box) for _ in range(d - 1)) + (1,)
        if p not in seen:
            seen.append(p)
    return ConeInput(d, generators=seen)


def passes(ci):
    """The cone and triangulation of `ci` and the number of
    dual_description calls build_cone and triangulate make."""
    with mock.patch.object(cone_module, "dual_description",
                           wraps=cone_module.dual_description) as dd:
        c = build_cone(ci)
        tri = triangulate(c)
    return c, tri, dd.call_count


class TestOnePass:
    @pytest.mark.parametrize("name", ["cone35", "quadrant", "square3d", "subdiv",
                                      "sublattice/skew"])
    def test_generator_fixtures(self, name):
        ci = parse_input((FIXTURES / f"{name}.in").read_text())
        c, _, count = passes(ci)
        assert len(c.generators) == len(ci.generators)
        assert count == 1

    def test_polytope_cone(self):
        # every facet without the apex is simplicial, so no pyramid takes
        # a double description of its own; the placing took 125 simplices
        ci = polytope_cone(random.Random(17))
        c, tri, count = passes(ci)
        assert len(c.generators) == 16 and c.rank == 6
        assert count == 1
        assert len(tri) == len(c.triangulation) == 54
        placing = placing_triangulation(c.generators)
        assert len(placing) == 125
        assert sum(s.det for s in tri) == sum(
            abs(minor_det([c.generators[g] for g in idx])) for idx in placing) == 22348

    def test_redundant_input_takes_one_pass(self):
        # the facet masks are remapped onto the extreme generators
        c, tri, count = passes(ConeInput(2, generators=((1, 1), (1, 0), (0, 1))))
        assert count == 1
        extreme, tri_extreme, _ = passes(ConeInput(2, generators=((1, 0), (0, 1))))
        assert c == extreme
        assert tri == tri_extreme and len(tri) == 1

    def test_non_simplicial_pyramids_take_a_pass_each(self):
        # the cube cone pulled from (0,0,0,1): three of its six facets
        # miss the apex, each a square with four generators
        cube = tuple(v + (1,) for v in product((0, 1), repeat=3))
        c, tri, count = passes(ConeInput(4, generators=cube))
        assert count == 1 + 3
        assert len(tri) == 6 and all(0 in idx for idx in c.triangulation)

    @pytest.mark.parametrize("name, count", [("constraints", 2), ("lowdim", 2),
                                             ("sublattice/intersect", 3)])
    def test_constraint_fixtures(self, name, count):
        ci = parse_input((FIXTURES / f"{name}.in").read_text())
        assert passes(ci)[2] == count

    @pytest.mark.parametrize("name, count", [("constraints", 3), ("lowdim", 3),
                                             ("sublattice/intersect", 6)])
    def test_constraint_pivot_passes(self, name, count):
        # the constraint rows take one pass, that of their double
        # description: no rank pass before it (5, 5, 9 with one), and
        # none over the cone's forms, as pointedness is read off its masks;
        # sublattice takes none, as LLL carries its transform's inverse
        ci = parse_input((FIXTURES / f"{name}.in").read_text())
        with mock.patch.object(la, "basis_forms", wraps=la.basis_forms) as bf:
            build_cone(ci)
        assert bf.call_count == count

    @pytest.mark.parametrize("ineqs", [((0, 0),), ((1, 0),), ((1, 1), (2, 2))])
    def test_constraints_holding_a_line_raise(self, ineqs):
        # no nonzero row, or rows that span less than the space: the
        # constraint cone holds a line
        with pytest.raises(NotPointedError):
            build_cone(ConeInput(2, inequalities=ineqs))

    def test_non_spanning_vectors_raise(self):
        with pytest.raises(NotPointedError, match="do not span"):
            dual_description(((1, 0, 0), (0, 1, 0), (1, 1, 0)))

    @pytest.mark.parametrize("vectors", [CONE35, SQUARE3, ((1, 1), (1, 0), (2, 2), (0, 1))])
    def test_one_pivot_pass_starts_dual_description(self, vectors):
        # the pass that picks the first simplex also gives its rays
        with mock.patch.object(la, "basis_forms", wraps=la.basis_forms) as bf:
            dual_description(vectors)
        assert bf.call_count == 1
        assert bf.call_args.args == (la.as_mat(vectors), len(vectors[0]))


def seed_one_runs():
    """(workload name, compute arguments of its seed-1 instances) for
    every benchmark workload, from conebench/workloads.py, which
    imports nothing of conekit."""
    path = FIXTURES.parent.parent / "conebench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("conebench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    for w in workloads.WORKLOADS.values():
        options = RunOptions(goals=frozenset(w.goals), subdivision=SubdivisionConfig(
            strategy=w.strategy, volume_bound=w.volume_bound,
            node_limit=workloads.NODE_LIMIT, time_limit_scale=None))
        yield w.name, [(parse_input(t), options) for t in workloads.instance_texts(w, 1)]


def test_seed_one_pivot_passes():
    """Pivot passes, double descriptions, cone simplices, simplex builds
    (from scratch, pivoted by exchange) and overcone sweeps of the
    seed-1 benchmark runs.  A description takes one pass for its initial
    basis and rays, and a cone reads pointedness off its masks.  The
    series-polytope cones are pulled from an apex: 358 simplices where
    their placing took 772, for nine more descriptions (one per
    non-simplicial pyramid) and so nine more passes; the other workloads
    build simplicial cones.  A triangulation or overcone placing of one
    cell builds it from scratch; one of two or more cells pivots them
    all in one stacked elimination that ends in an exchange, with no
    basis_forms pass (the six series-polytope triangulations and 15
    series-approx overcone placings).  The stellar pieces, pivoted by
    subdivide's exchange, count as pivoted too.  A star IP takes no
    pass: LLL carries its transform's inverse.  Of the 942
    series-approx overcone simplices of det > 1, the 291 that a facet
    form separates from their simplex are not swept, which leaves 651
    simplices in the stacks of the 15 hb_candidates calls, one per
    finder call; 43,645 candidate rows, overcone generators and swept
    points together, reach points_below over those 15 calls."""
    counts = {}
    for name, runs in seed_one_runs():
        with mock.patch.object(la, "basis_forms", wraps=la.basis_forms) as bf, \
                mock.patch.object(cone_module, "dual_description",
                                  wraps=cone_module.dual_description) as dd, \
                mock.patch.object(approx_module, "dual_description",
                                  wraps=approx_module.dual_description) as dd_approx, \
                mock.patch.object(cone_module, "make_simplicial_cone",
                                  wraps=cone_module.make_simplicial_cone) as scratch, \
                mock.patch.object(cone_module, "exchange",
                                  wraps=cone_module.exchange) as pivoted, \
                mock.patch.object(subdivide_module, "exchange",
                                  wraps=subdivide_module.exchange) as stellar, \
                mock.patch.object(approx_module, "hb_candidates",
                                  wraps=approx_module.hb_candidates) as swept, \
                mock.patch.object(approx_module, "points_below",
                                  wraps=approx_module.points_below) as below:
            for ci, options in runs:
                compute(ci, options)
        simplices = sum(len(build_cone(ci).triangulation) for ci, _ in runs)
        counts[name] = (bf.call_count, dd.call_count + dd_approx.call_count, simplices,
                        scratch.call_count, pivoted_simplices(pivoted, stellar),
                        sum(len(c.args[0]) for c in swept.call_args_list),
                        swept.call_count,
                        sum(len(c.args[1]) for c in below.call_args_list))
    assert counts == {"series-ip": (18, 6, 6, 6, 295, 0, 0, 0),
                      "series-approx": (33, 21, 6, 6, 1625, 651, 15, 43645),
                      "hb-ip": (24, 8, 8, 8, 50, 0, 0, 0),
                      "series-polytope": (21, 15, 358, 0, 358, 0, 0, 0)}


def test_seed_one_hermite_calls():
    """Residue sweeps of the seed-1 benchmark runs that take the Hermite
    form: 256 of 1,538, those of det > 1 with no facet-form column of
    gcd 1 with det (none has det 1).  The other 83% sweep the multiples
    of one unit column."""
    counts = {}
    for name, runs in seed_one_runs():
        with mock.patch.object(la, "hermite_mod", wraps=la.hermite_mod) as hermite:
            for ci, options in runs:
                compute(ci, options)
        counts[name] = hermite.call_count
    assert counts == {"series-ip": 45, "series-approx": 139, "hb-ip": 9,
                      "series-polytope": 63}
