"""Guards on outside input: each case feeds one malformed or out-of-domain
value to the function that refuses it, and checks the error and its
message."""

from unittest import mock

import pytest

from conekit import cli, linalg as la
from conekit.approx import cross_section
from conekit.cli import main, parse_input
from conekit.collect import series_period
from conekit.cone import Cone, ConeInput, build_cone, make_simplicial_cone, normalize_grading
from conekit.errors import (DimensionError, DomainError, GradingNotPositiveError,
                            InputParseError, InternalConsistencyError, SingularMatrixError)
from conekit.pipeline import RunOptions
from conekit.simplex import series_contribution
from conekit.subdivide import SubdivisionConfig, recursive_subdivide

CONE35 = ((1, 0), (3, 5))


@pytest.mark.parametrize("text, line, message", [
    ("", 1, "empty input"),
    ("# only a comment\n", 1, "empty input"),
    ("amb_space two\ncone 1\n1 0\n", 1, "malformed ambient dimension"),
    ("amb_space 0\ncone 0\n", 1, "ambient dimension must be positive"),
    ("amb_space 2\ncone\n1 0\n", 2, "'cone' expects a row count"),
    ("amb_space 2\ninequalities x\n1 0\n", 2, "malformed row count for 'inequalities'"),
    ("amb_space 2\ncone -1\n", 2, "negative row count for 'cone'"),
    ("amb_space 2\ncone 1\n1 0\ngrading 1\n1 0\n", 4, "'grading' takes no count"),
    ("amb_space 2\ncone 1\n1 0\ngrading\n1 0\ngrading\n1 1\n", 6,
     "duplicate block 'grading'"),
    ("amb_space 2\nequations 1\n1 0\ngrading\n1 1\n", 1,
     "need a 'cone' or 'inequalities' block"),
], ids=["empty", "comment-only", "malformed-amb-space", "amb-space-0", "no-count",
        "malformed-count", "negative-count", "grading-count", "duplicate-grading",
        "no-cone-block"])
def test_parse_input_rejects(text, line, message):
    with pytest.raises(InputParseError, match=message) as err:
        parse_input(text)
    assert err.value.line == line


@pytest.mark.parametrize("error", [InternalConsistencyError("a check failed"),
                                   SingularMatrixError("a check failed")],
                         ids=["internal-consistency", "singular-matrix"])
def test_internal_error_exit_code(tmp_path, capsys, error):
    # a ConeKitError that is not about the input is reported as internal
    p = tmp_path / "q.in"
    p.write_text("amb_space 2\ncone 2\n1 0\n0 1\n", encoding="utf-8")
    with mock.patch.object(cli, "compute", side_effect=error):
        assert main([str(p)]) == 2
    assert capsys.readouterr().err == "internal error: a check failed\n"
    assert not (tmp_path / "q.out").exists()


@pytest.mark.parametrize("call, error, message", [
    (lambda: ConeInput(-1, generators=()), DimensionError,
     "ambient dimension must be nonnegative"),
    (lambda: ConeInput(2, equations=((1, 0),)), DimensionError,
     "need generators or inequalities"),
    (lambda: ConeInput(2, inequalities=((1, 0, 0),)), DimensionError,
     "inequalities rows must have 2 entries"),
    (lambda: ConeInput(2, generators=CONE35, grading=(1,)), DimensionError,
     "grading must have 2 entries"),
    (lambda: RunOptions(goals=frozenset()), DomainError, "at least one goal"),
    (lambda: RunOptions(goals=frozenset({"hilbert_basis", "volume"})), DomainError,
     r"unknown goals \['volume'\]"),
    (lambda: SubdivisionConfig(strategy="bisect"), DomainError,
     "unknown strategy 'bisect'"),
    (lambda: cross_section(make_simplicial_cone(CONE35), level=0), DomainError,
     "approximation level must be positive"),
    (lambda: series_period((2, 0), 2), DomainError,
     "extreme generator degrees must be positive"),
    (lambda: series_period((3, -1), 2), DomainError,
     "extreme generator degrees must be positive"),
    (lambda: la.as_mat(((1, 2), (3,))), DimensionError, "unequal lengths"),
    (lambda: la.sublattice(((1, 2),), 3), DimensionError, "wrong arity"),
    (lambda: normalize_grading(build_cone(ConeInput(2, generators=CONE35)), (1, 1, 1)),
     DimensionError, "grading has wrong arity"),
    (lambda: series_contribution(make_simplicial_cone(CONE35), (0, 1), (4, 5)),
     GradingNotPositiveError, "not positive on a generator"),
    (lambda: recursive_subdivide(make_simplicial_cone(CONE35),
                                 SubdivisionConfig(volume_bound=1),
                                 lambda s: (s.gens[1],)),
     DomainError, "finder returned a point at generator height"),
], ids=["negative-ambient-dim", "no-generators-or-inequalities", "row-arity",
        "grading-arity", "no-goals", "unknown-goal", "unknown-strategy",
        "approx-level-0", "zero-degree", "negative-degree", "unequal-rows",
        "sublattice-arity", "normalize-grading-arity", "series-degree-0",
        "finder-at-generator-height"])
def test_out_of_domain_input_raises(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("make", [
    # the zero cone's grading restricts to the empty vector
    lambda: normalize_grading(Cone(ambient_dim=2, rank=0, generators=(), triangulation=(),
                                   support_forms=(), lattice_basis=()), (1, 1)),
    # equations of full rank leave only the origin: no rays, a rank-0 cone
    lambda: build_cone(ConeInput(2, inequalities=((1, 0), (0, 1)),
                                 equations=((1, 1), (1, -1)))).generators,
], ids=["normalize-grading", "full-rank-equations"])
def test_rank_zero_gives_empty(make):
    assert make() == ()

