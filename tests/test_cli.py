import threading

import pytest

from conekit import pipeline
from conekit.cli import main, parse_input, render_report
from conekit.collect import HilbertSeries
from conekit.cone import ConeInput
from conekit.errors import InputParseError
from conekit.pipeline import RunOptions, compute
from conekit.subdivide import SubdivisionConfig


class TestParseInput:
    def test_generators(self):
        ci = parse_input("amb_space 2\ncone 2\n1 0\n3 5\n")
        assert ci.generators == ((1, 0), (3, 5))
        assert ci.inequalities is None

    def test_inequalities(self):
        ci = parse_input("amb_space 2\ninequalities 2\n1 0\n0 1\n")
        assert ci.inequalities == ((1, 0), (0, 1))

    def test_arity_error(self):
        with pytest.raises(InputParseError) as err:
            parse_input("amb_space 2\ncone 1\n1 0 0\n")
        assert err.value.line == 3

    def test_comments_and_blank_lines(self):
        ci = parse_input(
            "# a quadrant\namb_space 2\n\ncone 2 # two rows\n1 0\n\n0 1\n")
        assert ci.generators == ((1, 0), (0, 1))

    def test_grading_block(self):
        ci = parse_input("amb_space 2\ncone 2\n1 0\n3 5\ngrading\n1 0\n")
        assert ci.grading == (1, 0)

    def test_blocks_any_order(self):
        ci = parse_input(
            "amb_space 2\ngrading\n1 1\ninequalities 2\n1 0\n0 1\n")
        assert ci.grading == (1, 1)
        assert ci.inequalities == ((1, 0), (0, 1))

    def test_unknown_keyword(self):
        with pytest.raises(InputParseError) as err:
            parse_input("amb_space 2\nrays 1\n1 0\n")
        assert err.value.line == 2

    def test_congruences_unsupported(self):
        with pytest.raises(InputParseError, match="not supported"):
            parse_input("amb_space 2\ncone 1\n1 0\ncongruences 1\n1 0 2\n")

    def test_missing_amb_space(self):
        with pytest.raises(InputParseError):
            parse_input("cone 1\n1 0\n")

    def test_truncated_block(self):
        with pytest.raises(InputParseError, match="end of file"):
            parse_input("amb_space 2\ncone 2\n1 0\n")

    def test_duplicate_block(self):
        with pytest.raises(InputParseError, match="duplicate"):
            parse_input("amb_space 2\ncone 1\n1 0\ncone 1\n0 1\n")

    def test_malformed_integer(self):
        with pytest.raises(InputParseError):
            parse_input("amb_space 2\ncone 1\n1 x\n")


ALL_GOALS = frozenset({"hilbert_basis", "hilbert_series", "support_hyperplanes"})


class TestRenderReport:
    def test_quadrant_graded(self):
        ci = ConeInput(2, generators=((1, 0), (0, 1)), grading=(1, 1))
        result = compute(ci, RunOptions(goals=ALL_GOALS))
        report = render_report(result, ALL_GOALS)
        assert report == (
            "2 Hilbert basis elements:\n"
            "0 1\n"
            "1 0\n"
            "2 support hyperplanes:\n"
            "0 1\n"
            "1 0\n"
            "Hilbert series:\n"
            "1\n"
            "denominator: (1-t^1)^2\n"
            "stats:\n"
            "simplex_volume=1\n"
            "volume_used=1\n"
            "improvement_factor=1\n"
            "ips_solved=0\n"
            "approx_levels_used=0\n"
        )

    def test_cone35_sections(self):
        ci = ConeInput(2, generators=((1, 0), (3, 5)), grading=(1, 0))
        result = compute(ci, RunOptions(goals=ALL_GOALS))
        report = render_report(result, ALL_GOALS)
        lines = report.splitlines()
        assert lines[0] == "4 Hilbert basis elements:"
        assert lines[1:5] == ["1 0", "1 1", "2 3", "3 5"]
        assert "Hilbert series:" in lines
        i = lines.index("Hilbert series:")
        assert lines[i + 1] == "1 2 4 4 3 1"
        assert lines[i + 2] == "denominator: (1-t^3)^2"

    def test_subdivision_stats(self):
        ci = ConeInput(2, generators=((1, 0), (3, 5)), grading=(1, 0))
        opts = RunOptions(goals=ALL_GOALS,
                          subdivision=SubdivisionConfig(strategy="ip",
                                                        volume_bound=2))
        result = compute(ci, opts)
        report = render_report(result, ALL_GOALS)
        assert "simplex_volume=5" in report
        assert "volume_used=3" in report
        assert "improvement_factor=5/3" in report
        assert "ips_solved=1" in report

    def test_strategy_only_changes_stats(self):
        ci = ConeInput(2, generators=((1, 0), (3, 5)), grading=(1, 0))
        reports = {}
        for strategy in ("none", "ip", "approx", "ip_then_approx"):
            opts = RunOptions(goals=ALL_GOALS,
                              subdivision=SubdivisionConfig(strategy=strategy,
                                                            volume_bound=2))
            reports[strategy] = render_report(compute(ci, opts), ALL_GOALS)
        def sections(text):
            return text.split("stats:")[0]
        base = sections(reports["none"])
        assert all(sections(r) == base for r in reports.values())
        assert reports["none"] != reports["ip"]


def write_input(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestMain:
    def test_quadrant_run(self, tmp_path, capsys):
        p = write_input(tmp_path, "quadrant.in",
                        "amb_space 2\ncone 2\n1 0\n0 1\ngrading\n1 1\n")
        rc = main([str(p)])
        assert rc == 0
        out_path = tmp_path / "quadrant.out"
        assert out_path.exists()
        content = out_path.read_text(encoding="utf-8")
        assert content == capsys.readouterr().out
        assert content.startswith("2 Hilbert basis elements:")

    def test_round_trip_rows(self, tmp_path):
        p = write_input(tmp_path, "c35.in",
                        "amb_space 2\ncone 2\n1 0\n3 5\ngrading\n1 0\n")
        assert main([str(p)]) == 0
        lines = (tmp_path / "c35.out").read_text().splitlines()
        k = int(lines[0].split()[0])
        rows = [tuple(int(t) for t in lines[1 + i].split()) for i in range(k)]
        assert all(len(r) == 2 for r in rows)
        m_at = 1 + k
        m = int(lines[m_at].split()[0])
        forms = [tuple(int(t) for t in lines[m_at + 1 + i].split())
                 for i in range(m)]
        assert all(len(f) == 2 for f in forms)

    def test_parse_error_exit_code(self, tmp_path, capsys):
        p = write_input(tmp_path, "bad.in", "amb_space 2\ncone 1\n1 0 0\n")
        assert main([str(p)]) == 1
        assert "line 3" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path):
        assert main([str(tmp_path / "nope.in")]) == 1

    def test_not_pointed_exit_code(self, tmp_path, capsys):
        p = write_input(tmp_path, "line.in",
                        "amb_space 2\ncone 2\n1 0\n-1 0\n")
        assert main([str(p)]) == 2

    def test_bad_grading_exit_code(self, tmp_path):
        p = write_input(tmp_path, "grad.in",
                        "amb_space 2\ncone 2\n1 0\n0 1\ngrading\n2 0\n")
        assert main([str(p)]) == 2

    def test_series_goal_without_grading(self, tmp_path):
        p = write_input(tmp_path, "nograd.in", "amb_space 2\ncone 2\n1 0\n0 1\n")
        assert main([str(p), "--goal", "series"]) == 2

    def test_rank_zero_graded(self, tmp_path):
        # the zero cone: no generators after zero rows drop, so the empty
        # Hilbert basis and forms, the series 1 and nothing subdivided
        result = compute(ConeInput(2, generators=((0, 0),), grading=(1, 1)))
        assert result.hilbert_basis == () and result.support_forms == ()
        assert result.series == HilbertSeries(numerator=(1,), e=1, r=0)
        assert result.stats.improvement_factor == 1
        p = write_input(tmp_path, "zero.in", "amb_space 2\ncone 1\n0 0\ngrading\n1 1\n")
        assert main([str(p)]) == 0
        assert (tmp_path / "zero.out").read_text() == (
            "0 Hilbert basis elements:\n"
            "0 support hyperplanes:\n"
            "Hilbert series:\n"
            "1\n"
            "denominator: (1-t^1)^0\n"
            "stats:\n"
            "simplex_volume=0\n"
            "volume_used=0\n"
            "improvement_factor=1\n"
            "ips_solved=0\n"
            "approx_levels_used=0\n"
        )

    def test_goal_all_without_grading_skips_series(self, tmp_path):
        p = write_input(tmp_path, "nograd.in", "amb_space 2\ncone 2\n1 0\n0 1\n")
        assert main([str(p)]) == 0
        content = (tmp_path / "nograd.out").read_text()
        assert "Hilbert series" not in content
        assert "support hyperplanes" in content

    def test_goal_hb_only(self, tmp_path):
        p = write_input(tmp_path, "hb.in",
                        "amb_space 2\ncone 2\n1 0\n3 5\ngrading\n1 0\n")
        assert main([str(p), "--goal", "hb"]) == 0
        content = (tmp_path / "hb.out").read_text()
        assert "Hilbert basis" in content
        assert "support hyperplanes" not in content
        assert "Hilbert series" not in content
        assert "stats:" in content

    def test_unimodular_cone_past_int64(self, tmp_path):
        # det 1, so the residue bound alone does not see the big entry
        p = write_input(tmp_path, "det1.in",
                        "amb_space 2\ncone 2\n1 0\n18446744073709551616 1\n")
        assert main([str(p), "--goal", "hb"]) == 0
        lines = (tmp_path / "det1.out").read_text().splitlines()
        assert lines[:3] == ["2 Hilbert basis elements:", "1 0",
                             "18446744073709551616 1"]

    def test_stats_csv(self, tmp_path):
        p = write_input(tmp_path, "c.in",
                        "amb_space 2\ncone 2\n1 0\n3 5\ngrading\n1 0\n")
        csv_path = tmp_path / "stats.csv"
        rc = main([str(p), "--strategy", "ip", "--volume-bound", "2",
                   "--stats-csv", str(csv_path)])
        assert rc == 0
        header, row = csv_path.read_text().splitlines()
        assert header == ("simplex_volume,volume_used,improvement_factor,"
                          "ips_solved,approx_levels_used")
        assert row.split(",") == ["5", "3", "5/3", "1", "0"]

    def test_usage_error_exit_code(self):
        assert main(["--nope"]) == 1

    @pytest.mark.parametrize("option, value, message", [
        ("--threads", "0", "threads must be at least 1"),
        ("--threads", "-3", "threads must be at least 1"),
        ("--volume-bound", "0", "volume_bound must be at least 1"),
        ("--time-limit-scale", "-1", "time_limit_scale must be nonnegative"),
        ("--time-limit-scale", "1/0",
         "argument --time-limit-scale: invalid fraction value: '1/0'"),
        ("--time-limit-scale", "x",
         "argument --time-limit-scale: invalid fraction value: 'x'"),
    ])
    def test_bad_option_value_exit_code(self, tmp_path, capsys, option, value,
                                        message):
        p = write_input(tmp_path, "q.in", "amb_space 2\ncone 2\n1 0\n0 1\n")
        assert main([str(p), option, value]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "q.out").exists()

    def test_input_named_out_is_kept(self, tmp_path, capsys):
        text = "amb_space 2\ncone 2\n1 0\n3 5\n"
        p = write_input(tmp_path, "q.out", text)
        assert main([str(p)]) == 1
        assert "would overwrite the input" in capsys.readouterr().err
        assert p.read_text(encoding="utf-8") == text

    @pytest.mark.parametrize("csv_name, owner", [
        ("c.in", "the input"), ("c.out", "the report")])
    def test_stats_csv_never_overwrites(self, tmp_path, capsys, csv_name, owner):
        text = "amb_space 2\ncone 2\n1 0\n3 5\n"
        p = write_input(tmp_path, "c.in", text)
        assert main([str(p), "--stats-csv", str(tmp_path / csv_name)]) == 1
        assert f"would overwrite {owner}" in capsys.readouterr().err
        assert p.read_text(encoding="utf-8") == text
        assert [f.name for f in tmp_path.iterdir()] == ["c.in"]

    def test_unwritable_stats_csv_is_an_error(self, tmp_path, capsys):
        p = write_input(tmp_path, "a.in", "amb_space 2\ncone 2\n1 0\n3 5\n")
        csv_path = tmp_path / "no" / "such" / "dir" / "x.csv"
        assert main([str(p), "--stats-csv", str(csv_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(csv_path) in err
        assert err.count("\n") == 1  # one line, no traceback

    @pytest.mark.parametrize("goal", ["all", "hb", "series"])
    def test_leaf_too_large_to_sweep_exit_code(self, tmp_path, capsys, goal):
        # det 2^71 at generator height 1: no strategy can cut it, and the
        # leaf is refused with a domain error, not a traceback
        p = write_input(tmp_path, "huge.in",
                        "amb_space 3\ncone 3\n1 0 1\n0 1 1\n"
                        "1180591620717411303424 1180591620717411303425 1\n"
                        "grading\n0 0 1\n")
        assert main([str(p), "--time-limit-scale", "0", "--goal", goal]) == 2
        err = capsys.readouterr().err
        assert err == f"error: a simplex of det {2**71} is too large to sweep\n"
        assert not (tmp_path / "huge.out").exists()

    def test_failed_stats_csv_leaves_no_report(self, tmp_path):
        p = write_input(tmp_path, "a.in", "amb_space 2\ncone 2\n1 0\n3 5\n")
        assert main([str(p), "--stats-csv", str(tmp_path / "missing" / "x.csv")]) == 1
        assert not (tmp_path / "a.out").exists()
        assert [f.name for f in tmp_path.iterdir()] == ["a.in"]  # no temporary left

    def test_threads_identical_output(self, tmp_path):
        text = "amb_space 3\ncone 4\n0 0 1\n1 0 1\n0 1 1\n1 1 1\ngrading\n0 0 1\n"
        p1 = write_input(tmp_path, "a.in", text)
        p2 = write_input(tmp_path, "b.in", text)
        assert main([str(p1), "--threads", "1"]) == 0
        assert main([str(p2), "--threads", "8"]) == 0
        assert (tmp_path / "a.out").read_bytes() == (tmp_path / "b.out").read_bytes()


class TestComputeLibrary:
    def test_evaluation_runs_in_the_calling_thread(self, monkeypatch):
        # a hexagon cone: four simplices, each evaluated for both goals
        gens = ((0, 0, 1), (1, 0, 1), (2, 1, 1), (2, 2, 1), (1, 2, 1), (0, 1, 1))
        ci = ConeInput(3, generators=gens, grading=(0, 0, 1))
        calls = []

        def recorded(fn):
            def wrapper(*args):
                calls.append((fn.__name__, threading.get_ident()))
                return fn(*args)
            return wrapper

        for name in ("series_contribution", "hb_candidates"):
            monkeypatch.setattr(pipeline, name, recorded(getattr(pipeline, name)))
        compute(ci, RunOptions(goals=ALL_GOALS, threads=4))
        assert sorted(calls) == sorted(
            [("hb_candidates", threading.get_ident())] * 4
            + [("series_contribution", threading.get_ident())] * 4)

    def test_low_dim_cone_end_to_end(self):
        ci = ConeInput(3, inequalities=((1, 0, 0), (0, 0, 1)),
                       equations=((1, -1, 0),), grading=(1, 0, 1))
        result = compute(ci, RunOptions(goals=ALL_GOALS))
        assert set(result.hilbert_basis) == {(1, 1, 0), (0, 0, 1)}
        assert result.series is not None
        assert result.series.expand(3) == [1, 2, 3, 4]

    def test_trivial_cone(self):
        ci = ConeInput(2, generators=((0, 0),))
        result = compute(ci, RunOptions(goals=ALL_GOALS - {"hilbert_series"}))
        assert result.hilbert_basis == ()
        assert result.stats.simplex_volume == 0
