from fractions import Fraction
from math import prod
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conekit.errors import DimensionError, InternalConsistencyError, SingularMatrixError
from conekit import linalg as la
from conekit.cone import dual_description, make_simplicial_cone

from oracles import (frac_rank, fraction_free_independent_rows, gram_restrict,
                     gram_schmidt, lattice_index, minor_det, minors_gcd)


def square_matrices(max_dim=5, max_entry=1000):
    return st.integers(1, max_dim).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-max_entry, max_entry), min_size=n, max_size=n),
            min_size=n, max_size=n,
        )
    )


def facet_forms(m):
    """(F, δ) of make_simplicial_cone(m): F·m^T = δ·I and δ = |det m|."""
    s = make_simplicial_cone(m)
    return s.facet_forms, s.det


class TestDeterminant:
    """make_simplicial_cone's det is |det|; the sign goes into the forms."""

    def test_identity(self):
        assert facet_forms(la.identity(3)) == (la.identity(3), 1)

    def test_lower_triangular(self):
        assert facet_forms(((1, 0), (3, 5)))[1] == 5

    def test_row_swap_sign(self):
        # det -1: δ is 1, and the forms are -adj^T
        assert facet_forms(((0, 1), (1, 0))) == (((0, 1), (1, 0)), 1)

    def test_empty(self):
        assert facet_forms(()) == ((), 1)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            facet_forms(((1, 2), (3, 4), (5, 6)))

    @settings(max_examples=100, deadline=None)
    @given(square_matrices(max_dim=5, max_entry=1000))
    def test_matches_minor_expansion(self, rows):
        assert_delta_is_abs_det(rows)

    @settings(max_examples=30, deadline=None)
    @given(square_matrices(max_dim=6, max_entry=10))
    def test_dim_six(self, rows):
        assert_delta_is_abs_det(rows)


def assert_delta_is_abs_det(rows):
    det = minor_det(rows)
    if det == 0:
        with pytest.raises(SingularMatrixError):
            facet_forms(la.as_mat(rows))
    else:
        assert facet_forms(la.as_mat(rows))[1] == abs(det)


def cofactor_adjugate(rows):
    """adj[j][i] = (-1)^(i+j) · det(rows without row i and column j)."""
    n = len(rows)
    return tuple(tuple((-1) ** (i + j) * minor_det(
        [r[:j] + r[j + 1:] for k, r in enumerate(rows) if k != i])
        for i in range(n)) for j in range(n))


def scaled_identity(n, c):
    return tuple(tuple(c if i == j else 0 for j in range(n)) for i in range(n))


@st.composite
def adjugate_inputs(draw):
    """Square matrices with n = 0..5, entries past 2^64 in some draws and
    a dependent last row in others."""
    n = draw(st.integers(0, 5))
    bound = draw(st.sampled_from([9, 10**6, 2**70]))
    entries = st.one_of(st.just(0), st.integers(-bound, bound))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    if n >= 2 and draw(st.booleans()):
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return rows


class TestAdjugate:
    """The facet forms of make_simplicial_cone(m) are the oriented,
    transposed adjugate sgn(det m)·adj(m)^T."""

    def test_identity(self):
        assert facet_forms(la.identity(2)) == (la.identity(2), 1)

    def test_columns_of_generators(self):
        # row j of F is δ times the j-th q-coordinate form of the rows
        assert facet_forms(((1, 3), (0, 5))) == (((5, 0), (-3, 1)), 5)

    def test_diagonal(self):
        assert facet_forms(((2, 0), (0, 2))) == (((2, 0), (0, 2)), 4)

    def test_empty_and_one_by_one(self):
        assert facet_forms(()) == ((), 1)
        assert facet_forms(((-7,),)) == (((-1,),), 7)
        assert facet_forms(((2**70,),)) == (((1,),), 2**70)

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            facet_forms(((1, 1), (2, 2)))
        with pytest.raises(SingularMatrixError):
            facet_forms(((0,),))

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            facet_forms(((1, 2, 3), (4, 5, 6)))

    def test_exactness_check(self):
        # a wrong elimination result is caught, not returned: with every
        # pivot step giving the same wrong forms, the pass's check fails
        # for make_simplicial_cone and for every other reader of the pass
        wrong = (((5, 0), (0, 1)), 5)
        with mock.patch.object(la, "_pivot_one", return_value=wrong):
            with pytest.raises(InternalConsistencyError):
                facet_forms(((1, 0), (3, 5)))
            with pytest.raises(InternalConsistencyError, match="F·B"):
                la.basis_forms(((1, 0), (2, 0), (3, 5)), 2)
            with pytest.raises(InternalConsistencyError, match="F·B"):
                dual_description(((1, 0), (3, 5), (1, 1)))

    @settings(max_examples=150, deadline=None)
    @given(adjugate_inputs())
    def test_products_are_det_identity(self, rows):
        det = minor_det(rows)
        m = la.as_mat(rows)
        n = len(rows)
        if det == 0:
            with pytest.raises(SingularMatrixError):
                facet_forms(m)
            return
        forms, d = facet_forms(m)
        assert d == abs(det)
        assert la.matmul(forms, la.transpose(m)) == scaled_identity(n, d)
        sg = 1 if det > 0 else -1
        assert forms == tuple(tuple(sg * x for x in col)
                              for col in zip(*cofactor_adjugate(rows)))


class TestHermiteMod:
    def test_examples(self):
        assert la.hermite_mod(((5, 0), (-3, 1)), 5) == ((1, 3), (0, 5))
        assert la.hermite_mod(((8, 0, -2), (0, 8, -2), (0, 0, 4)), 16) == \
            ((8, 0, 14), (0, 8, 14), (0, 0, 4))
        # det 1, or zero rows: the basis of det·Z^n
        assert la.hermite_mod(((3, 4),), 1) == ((1, 0), (0, 1))
        assert la.hermite_mod(((0, 0),), 6) == ((6, 0), (0, 6))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(
        st.lists(st.lists(st.one_of(st.integers(-9, 9), st.integers(-2**70, 2**70)),
                          min_size=n, max_size=n), min_size=1, max_size=6),
        st.integers(1, 10**6))))
    def test_triangular_basis_of_the_lattice(self, case):
        rows, det = case
        n = len(rows[0])
        h = la.hermite_mod(rows, det)
        assert len(h) == n
        for i, row in enumerate(h):
            assert not any(row[:i]) and det % row[i] == 0
            assert all(0 <= x < det for j, x in enumerate(row) if j != i)
        # the pivots multiply to the index of L = rows + det·Z^n, which
        # the minors of the rows give independently
        index = lattice_index(rows, det)
        assert prod(row[i] for i, row in enumerate(h)) == index
        # every row is in L: adding it to the rows leaves the index unchanged
        assert lattice_index(la.as_mat(rows) + h, det) == index


@st.composite
def rows_with_repeats(draw):
    """(rows, n): rows in Z^n, entries past 2^62 in some draws, plus
    repeats, zero rows and integer combinations of earlier rows,
    shuffled."""
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-2**70, 2**70),
                      st.sampled_from([2**62, -2**62, 2**63 - 1]))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=1, max_size=n + 1))
    for a, b, x, y in draw(st.lists(st.tuples(
            st.integers(0, 99), st.integers(0, 99), st.integers(-3, 3),
            st.integers(-3, 3)), max_size=8)):
        p, q = rows[a % len(rows)], rows[b % len(rows)]
        rows.append([x * s + y * t for s, t in zip(p, q)])
    return draw(st.permutations(rows)), n


class TestHelpers:
    def test_vec_mat_lengths(self):
        assert la.vec_mat((1, 2, 3), ((1, 2), (3, 4), (5, 6))) == (22, 28)
        with pytest.raises(DimensionError):
            la.vec_mat((1, 2), ((1, 2), (3, 4), (5, 6)))
        with pytest.raises(DimensionError):
            la.dot((1, 2), (1, 2, 3))

    def test_adjugate(self):
        forms, det = facet_forms(((1, 0), (3, 5)))
        assert det == 5
        assert la.matmul(forms, ((1, 3), (0, 5))) == ((5, 0), (0, 5))

    def test_primitive(self):
        assert la.primitive((4, -6, 8)) == (2, -3, 4)
        assert la.primitive((0, 5)) == (0, 1)

    def test_integer_kernel(self):
        # kernel of x - y = 0 inside Z^2
        _, _, ker = la.sublattice(((1, -1),), 2)
        assert len(ker) == 1
        assert abs(ker[0][0]) == 1 and ker[0][0] == ker[0][1]

    def test_integer_kernel_trivial(self):
        assert la.sublattice((), 3) == ((), (), la.identity(3))

    def test_saturation_basis(self):
        # span of (2,2) saturates to the lattice generated by (1,1)
        basis, coords, _ = la.sublattice(((2, 2),), 2)
        assert len(basis) == 1
        assert tuple(map(abs, basis[0])) == (1, 1)
        assert coords == ((2 * basis[0][0],),)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.integers(-20, 20), min_size=3, max_size=3),
                    min_size=1, max_size=3))
    def test_saturation_contains_rows(self, rows):
        basis = la.sublattice(rows, 3)[0]
        if not basis:
            assert all(all(x == 0 for x in r) for r in rows)
            return
        # every input row must be an integer combination of the basis
        for r in rows:
            sol = _int_solve(basis, r)
            assert sol is not None

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 6).flatmap(
        lambda dim: st.lists(
            st.lists(st.one_of(st.integers(-9, 9), st.integers(-2**70, 2**70)),
                     min_size=dim, max_size=dim),
            min_size=1, max_size=4)))
    def test_saturated_basis_and_kernel(self, rows):
        # a lattice of rank k in Z^dim is saturated iff the gcd of the
        # k×k minors of a basis is 1; the kernel, orthogonal to the rows
        # and to the basis, makes span(basis) = span(rows)
        dim = len(rows[0])
        basis, _, kernel = la.sublattice(rows, dim)
        k = frac_rank(rows)
        assert len(basis) == k and len(kernel) == dim - k
        assert minors_gcd(basis, k) == 1
        assert minors_gcd(kernel, dim - k) == 1
        assert all(la.dot(x, b) == 0 for x in kernel for b in tuple(basis) + tuple(rows))

    def test_independent_rows(self):
        idx = la.basis_forms(((1, 0), (2, 0), (0, 1)), 2)[0]
        assert idx == [0, 2]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.lists(st.one_of(st.integers(-2, 2), st.sampled_from([2**70, -2**70])),
                 min_size=n, max_size=n), max_size=8))))
    def test_independent_rows_greedy_and_maximal(self, case):
        # a row is kept iff it raises the rank of the rows kept before it
        n, rows = case
        kept = la.basis_forms(rows, n)[0]
        so_far = []
        for i, r in enumerate(rows):
            raises = frac_rank(so_far + [r]) > frac_rank(so_far)
            assert raises == (i in kept)
            if raises:
                so_far.append(r)

    @settings(max_examples=150, deadline=None)
    @given(rows_with_repeats())
    def test_independent_rows_match_fraction_free_reduction(self, case):
        rows, n = case
        assert la.basis_forms(rows, n)[0] == fraction_free_independent_rows(rows, n)

    def test_basis_forms(self):
        # (0, 3) is skipped; the forms come in the order of the kept rows
        assert la.basis_forms(((0, 1), (0, 3), (1, 3)), 2) == ([0, 2], ((-3, 1), (1, 0)), 1)
        # below full rank, δ is the pass's det and F·B^T = δ·I still holds
        assert la.basis_forms(((2, 0, 0), (4, 0, 0)), 3) == ([0], ((1, 0, 0),), 2)

    @settings(max_examples=100, deadline=None)
    @given(rows_with_repeats())
    def test_basis_forms_are_the_facet_forms_of_the_basis(self, case):
        # one pass gives the greedy basis B, forms with F·B^T = δ·I and,
        # at full rank, the (F, δ) that make_simplicial_cone(B) computes again
        rows, n = case
        kept, forms, det = la.basis_forms(rows, n)
        assert kept == fraction_free_independent_rows(rows, n)
        basis = la.as_mat([rows[k] for k in kept])
        assert la.matmul(forms, la.transpose(basis)) == scaled_identity(len(kept), det)
        if len(kept) == n:
            assert (forms, det) == facet_forms(basis)


@st.composite
def rank_deficient_rows(draw):
    """(rows, dim): up to dim - 1 base rows in Z^dim, entries past 2^64 in
    some draws, plus integer combinations of them, shuffled."""
    dim = draw(st.integers(2, 6))
    bound = draw(st.sampled_from([9, 2**70]))
    entry = st.one_of(st.just(0), st.integers(-bound, bound))
    base = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim),
                         min_size=1, max_size=dim - 1))
    combos = draw(st.lists(st.lists(st.integers(-3, 3), min_size=len(base),
                                    max_size=len(base)), max_size=3))
    rows = base + [[sum(c * b[j] for c, b in zip(cs, base)) for j in range(dim)]
                   for cs in combos]
    return draw(st.permutations(rows)), dim


class TestSublattice:
    @settings(max_examples=80, deadline=None)
    @given(rank_deficient_rows())
    def test_coords_match_gram_solve(self, case):
        rows, dim = case
        basis, coords, _ = la.sublattice(rows, dim)
        assert len(basis) == frac_rank(rows) < dim
        assert coords == gram_restrict(basis, rows)

    @settings(max_examples=80, deadline=None)
    @given(rank_deficient_rows())
    def test_kernel_annihilates_rows(self, case):
        rows, dim = case
        _, _, kernel = la.sublattice(rows, dim)
        assert len(kernel) == dim - frac_rank(rows)
        assert all(la.dot(k, r) == 0 for k in kernel for r in rows)

    def test_rank_zero(self):
        assert la.sublattice(((0, 0, 0),), 3) == ((), ((),), la.identity(3))

    def test_coordinate_check(self):
        # a transform that is not the one applied to the basis gives
        # coordinates that do not reproduce the rows
        true_lll = la.lll_reduce

        def wrong(basis):
            reduced, h, g = true_lll(basis)
            return reduced, h, tuple((-r[0],) + r[1:] for r in g)

        with mock.patch.object(la, "lll_reduce", wrong):
            with pytest.raises(InternalConsistencyError,
                               match="restricted coordinates"):
                la.sublattice(((2, 2, 0), (1, 1, 0), (0, 1, 3)), 3)


@st.composite
def nonsingular_bases(draw):
    n = draw(st.integers(1, 6))
    bound = draw(st.sampled_from([10, 10**6, 2**70]))
    rows = draw(st.lists(st.lists(st.integers(-bound, bound), min_size=n,
                                  max_size=n), min_size=n, max_size=n))
    assume(minor_det(rows) != 0)
    return rows


@st.composite
def independent_rows(draw):
    """k <= n linearly independent rows in Z^n, entries up to 2^70 in
    some draws, that bound itself included."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, n))
    bound = draw(st.sampled_from([9, 10**6, 2**70]))
    entry = st.one_of(st.integers(-bound, bound), st.sampled_from([bound, -bound]))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
    assume(frac_rank(rows) == k)
    return rows


class TestLll:
    @settings(max_examples=150, deadline=None)
    @given(nonsingular_bases())
    def test_reduced_basis(self, rows):
        reduced, h, g = la.lll_reduce(rows)
        assert la.matmul(h, rows) == reduced
        assert abs(minor_det(h)) == 1
        assert la.matmul(h, la.transpose(g)) == la.identity(len(rows))
        mu, norms = gram_schmidt(reduced)
        assert all(abs(c) <= Fraction(1, 2) for row in mu for c in row)
        assert all(norms[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * norms[k - 1]
                   for k in range(1, len(rows)))
        unit = la.identity(len(rows))
        assert la.lll_reduce(reduced) == (reduced, unit, unit)

    def test_one_row(self):
        assert la.lll_reduce(((-7,),)) == (((-7,),), ((1,),), ((1,),))

    def test_reduced_basis_unchanged(self):
        rows = ((1, 0, 0), (0, 2, 1), (0, -1, 3))
        assert la.lll_reduce(rows) == (rows, la.identity(3), la.identity(3))

    def test_dependent_rows_rejected(self):
        with pytest.raises(SingularMatrixError):
            la.lll_reduce(((1, 2), (2, 4)))

    @settings(max_examples=150, deadline=None)
    @given(independent_rows())
    def test_carries_the_inverse(self, rows):
        # g = (h^-1)^T comes out of the row steps, not an elimination
        reduced, h, g = la.lll_reduce(rows)
        assert la.matmul(h, rows) == reduced
        assert la.matmul(h, la.transpose(g)) == la.identity(len(rows))

    def test_corrupted_inverse_raises(self):
        # the check h·g^T = I sees a g with one entry off
        true_transpose = la.transpose

        def tampered(m):
            m = [list(r) for r in m]
            m[0][0] += 1
            return true_transpose(m)

        with mock.patch.object(la, "transpose", tampered):
            with pytest.raises(InternalConsistencyError, match="h·g"):
                la.lll_reduce(((1, 2), (3, 4)))


def _int_solve(basis, target):
    """Solve c·basis = target over Q and check integrality (test helper)."""
    from oracles import frac_inverse, frac_rank
    # append completing rows if basis is not square (only rank<=dim cases here)
    rows = [list(b) for b in basis]
    dim = len(target)
    if len(rows) < dim:
        for e in range(dim):
            unit = [0] * dim
            unit[e] = 1
            cand = rows + [unit]
            if frac_rank(cand) > frac_rank(rows):
                rows.append(unit)
            if len(rows) == dim:
                break
    inv = frac_inverse(rows)
    coeffs = [sum(Fraction(target[i]) * inv[i][j] for i in range(dim))
              for j in range(dim)]
    for j, c in enumerate(coeffs):
        if c.denominator != 1:
            return None
        if j >= len(basis) and c != 0:
            return None
    return coeffs[:len(basis)]


class TestIntDtype:
    def test_boundary(self):
        assert la.int_dtype(0) is np.int64
        assert la.int_dtype(2**62 - 1) is np.int64
        assert la.int_dtype(2**62) is object


class TestStacks:
    def test_stack_falls_back_to_object(self):
        assert la.stack([[(1, 2), (3, 4)]]).dtype == np.int64
        big = la.stack([[(1, 2), (3, 2**63)]])
        assert big.dtype == object and big.shape == (1, 2, 2)
        assert big.tolist() == [[[1, 2], [3, 2**63]]]

    def test_magnitude(self):
        assert la.magnitude(np.array([], dtype=np.int64)) == 0
        assert la.magnitude(np.array([[3, -7], [5, 0]])) == 7
        # |-2^63| does not fit int64, but is read exactly
        assert la.magnitude(np.array([-2**63, 5])) == 2**63
        assert la.magnitude(np.array([2**70, -2**71], dtype=object)) == 2**71

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.uint8, np.uint64])
    def test_magnitude_of_other_integer_types(self, dtype):
        # odd widths too: each entry is read on its own, never fused with
        # a neighbour
        info = np.iinfo(dtype)
        assert la.magnitude(np.array([[3, 1, 7], [5, 0, 2]], dtype=dtype)) == 7
        assert la.magnitude(np.array([info.min, 1, 0], dtype=dtype)) == max(-int(info.min), 1)
        assert la.magnitude(np.array([1, info.max, 0], dtype=dtype)) == info.max

    def test_products_leave_int64_when_the_bound_does(self):
        a = np.array([[2**30, 2**30]])
        assert la.products(a, a.T).dtype == np.int64
        wide = np.array([[2**31, 2**31]])
        out = la.products(wide, wide.T)
        assert out.dtype == object and out.tolist() == [[2**63]]

    def test_pivot_on_zero_raises(self):
        forms = np.array([[[1, 0], [0, 1]], [[1, 0], [0, 1]]])
        u = np.array([[2, 1], [0, 3]])
        with pytest.raises(SingularMatrixError):
            la.pivot(forms, np.ones(2, dtype=np.int64), u, (0, 0))

    def test_check_forms_checks_every_simplex(self):
        # facet forms of ((1, 3), (0, 5)) and of the unit basis; a wrong
        # det on the second simplex alone fails the stack
        forms = np.array([[[5, 0], [-3, 1]], [[1, 0], [0, 1]]])
        rows = np.array([[[1, 3], [0, 5]], [[1, 0], [0, 1]]])
        la.check_forms(forms, rows, np.array([5, 1]), "unused")
        with pytest.raises(InternalConsistencyError, match="wrong det"):
            la.check_forms(forms, rows, np.array([5, 2]), "wrong det")
