"""Exact self-checks: each case breaks one step of a correct computation
and checks that the step's own InternalConsistencyError (or, for
dependent LLL rows, SingularMatrixError) fires with its message."""

from unittest import mock

import pytest

from conekit import collect as collect_module, linalg as la
from conekit import simplex as simplex_module, subdivide as subdivide_module
from conekit.collect import accumulate_series
from conekit.cone import make_simplicial_cone
from conekit.errors import InternalConsistencyError, SingularMatrixError
from conekit.simplex import SeriesContribution, series_contribution
from conekit.subdivide import solve_star_ip, stellar_subdivide

CONE35 = make_simplicial_cone(((1, 0), (3, 5)))

true_exchange = subdivide_module.exchange
true_mat_vec = la.mat_vec
true_residue_blocks = simplex_module.residue_blocks


def origin_found(self, rows, lo, hi, order):
    """A search step that answers y = 0, which maps to x = 0."""
    return (0,) * len(lo)


def all_but_last_piece(*args):
    return true_exchange(*args)[:-1]


def u_off_by_one(m, v):
    """forms·r with one added to its last entry."""
    u = true_mat_vec(m, v)
    return u[:-1] + (u[-1] + 1,)


def last_row_dropped(s):
    for v in true_residue_blocks(s):
        yield v[:-1]


@pytest.mark.parametrize("target, name, new, call, message", [
    (subdivide_module._Search, "find", origin_found,
     lambda: solve_star_ip(CONE35), "branch-and-bound returned a bad point"),
    (subdivide_module, "exchange", all_but_last_piece,
     lambda: stellar_subdivide(CONE35, (1, 1)), "stellar volume identity failed"),
    # (2, 0) then (0, 2) into the unit basis: with u off by one, the
    # second step divides 5 by the first det, 2
    (la, "mat_vec", u_off_by_one,
     lambda: la.basis_forms(((2, 0), (0, 2)), 2), "pivot division left a remainder"),
    (simplex_module, "residue_blocks", last_row_dropped,
     lambda: series_contribution(CONE35, CONE35.height_normal, (4, 5)),
     "fundamental domain count mismatch"),
    # without the division by (1 - t)^2, the numerator keeps degree 2
    (collect_module, "_over", lambda p, d: p,
     lambda: accumulate_series([SeriesContribution((1,), (1, 1))], (1, 1), 2),
     "Hilbert series does not have negative degree"),
], ids=["branch-and-bound-point", "stellar-volume", "pivot-one-remainder",
        "fundamental-domain-count", "series-degree"])
def test_broken_step_is_caught(target, name, new, call, message):
    call()  # the unbroken step passes its check
    with mock.patch.object(target, name, new):
        with pytest.raises(InternalConsistencyError, match=message):
            call()


def test_lll_zero_first_row_raises():
    # the first row's Gram determinant is 0: the rows are dependent
    with pytest.raises(SingularMatrixError, match="dependent rows"):
        la.lll_reduce(((0, 0), (1, 2)))
