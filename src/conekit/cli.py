"""Text front end: problem files in, Hilbert basis / series / stats out."""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from pathlib import Path

from .cone import ConeInput
from .errors import (ConeKitError, DomainError, GradingNotPositiveError,
                     InputParseError, NotPointedError)
from .pipeline import RunOptions, compute
from .subdivide import SubdivisionConfig

_BLOCKS = ("cone", "inequalities", "equations")


def parse_input(text: str) -> ConeInput:
    """Parse the problem-file grammar.

    `amb_space <d>` first; then blocks `cone <n>`, `inequalities <m>`,
    `equations <k>`, each followed by that many lines of d integers, and
    an optional `grading` followed by one line.  `#` comments to end of
    line.  Errors carry 1-based line numbers.
    """
    lines = []
    for no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append((no, body.split()))
    pos = 0

    def take_row(dim, context):
        nonlocal pos
        if pos >= len(lines):
            raise InputParseError(f"unexpected end of file in {context}",
                                  lines[-1][0] if lines else 1)
        no, toks = lines[pos]
        pos += 1
        if len(toks) != dim:
            raise InputParseError(
                f"expected {dim} integers in {context}, got {len(toks)}", no)
        try:
            return tuple(int(t) for t in toks)
        except ValueError:
            raise InputParseError(f"malformed integer in {context}", no) from None

    if not lines:
        raise InputParseError("empty input", 1)
    no, toks = lines[pos]
    if toks[0] != "amb_space" or len(toks) != 2:
        raise InputParseError("input must start with 'amb_space <d>'", no)
    try:
        dim = int(toks[1])
    except ValueError:
        raise InputParseError("malformed ambient dimension", no) from None
    if dim < 1:
        raise InputParseError("ambient dimension must be positive", no)
    pos += 1

    blocks: dict[str, tuple] = {}
    grading = None
    while pos < len(lines):
        no, toks = lines[pos]
        key = toks[0]
        if key in _BLOCKS:
            if len(toks) != 2:
                raise InputParseError(f"'{key}' expects a row count", no)
            try:
                count = int(toks[1])
            except ValueError:
                raise InputParseError(f"malformed row count for '{key}'", no) from None
            if count < 0:
                raise InputParseError(f"negative row count for '{key}'", no)
            if key in blocks:
                raise InputParseError(f"duplicate block '{key}'", no)
            pos += 1
            blocks[key] = tuple(take_row(dim, f"block '{key}'")
                                for _ in range(count))
        elif key == "grading":
            if len(toks) != 1:
                raise InputParseError("'grading' takes no count; one row follows", no)
            if grading is not None:
                raise InputParseError("duplicate block 'grading'", no)
            pos += 1
            grading = take_row(dim, "grading")
        elif key == "congruences":
            raise InputParseError("congruence constraints are not supported", no)
        else:
            raise InputParseError(f"unknown keyword '{key}'", no)

    if "cone" not in blocks and "inequalities" not in blocks:
        raise InputParseError("need a 'cone' or 'inequalities' block", lines[0][0])
    return ConeInput(
        ambient_dim=dim,
        generators=blocks.get("cone"),
        inequalities=blocks.get("inequalities"),
        equations=blocks.get("equations"),
        grading=grading,
    )


def _fmt_row(v) -> str:
    return " ".join(str(x) for x in v)


def stats_items(result) -> list[tuple[str, str]]:
    s = result.stats
    return [
        ("simplex_volume", str(s.simplex_volume)),
        ("volume_used", str(s.volume_used)),
        ("improvement_factor", str(s.improvement_factor)),
        ("ips_solved", str(s.ips_solved)),
        ("approx_levels_used", str(s.approx_levels_used)),
    ]


def render_report(result, goals) -> str:
    out = []
    if "hilbert_basis" in goals:
        out.append(f"{len(result.hilbert_basis)} Hilbert basis elements:")
        out.extend(_fmt_row(v) for v in result.hilbert_basis)
    if "support_hyperplanes" in goals:
        out.append(f"{len(result.support_forms)} support hyperplanes:")
        out.extend(_fmt_row(v) for v in result.support_forms)
    if "hilbert_series" in goals and result.series is not None:
        out.append("Hilbert series:")
        out.append(_fmt_row(result.series.numerator))
        out.append(f"denominator: (1-t^{result.series.e})^{result.series.r}")
    out.append("stats:")
    out.extend(f"{k}={v}" for k, v in stats_items(result))
    return "\n".join(out) + "\n"


def stats_csv(result) -> str:
    items = stats_items(result)
    return ",".join(k for k, _ in items) + "\n" + ",".join(v for _, v in items) + "\n"


def _write_all(files) -> None:
    """Write every (path, text) pair or none of them: each text goes to a
    temporary file next to its target, and the targets are replaced only
    after every write succeeded."""
    staged = []
    try:
        for path, text in files:
            staged.append(Path(f"{path}.{os.getpid()}.tmp"))
            staged[-1].write_text(text, encoding="utf-8")
        for tmp, (path, _) in zip(staged, files):
            os.replace(tmp, path)
    finally:
        for tmp in staged:
            tmp.unlink(missing_ok=True)


def run(options: RunOptions, cone_input: ConeInput, input_path: str,
        stats_csv_path: str | None = None) -> str:
    """Compute, write <input>.out and the optional CSV (both or neither),
    return the report."""
    out_path = Path(input_path).with_suffix(".out")
    claimed = {Path(input_path).resolve(): "the input"}
    for path, what in ((out_path, "the report"), (stats_csv_path, "the stats CSV")):
        if not path:
            continue
        key = Path(path).resolve()
        if key in claimed:
            raise InputParseError(f"{what} {path} would overwrite {claimed[key]}")
        claimed[key] = what
    result = compute(cone_input, options)
    report = render_report(result, options.goals)
    files = [(out_path, report)]
    if stats_csv_path:
        files.append((stats_csv_path, stats_csv(result)))
    _write_all(files)
    return report


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):  # argparse catches only the first
        raise argparse.ArgumentTypeError(f"invalid fraction value: {text!r}") from None


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputParseError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="conekit", description=__doc__)
    p.add_argument("input", help="problem file")
    p.add_argument("--strategy", default="ip-then-approx",
                   choices=["none", "ip", "approx", "ip-then-approx"])
    p.add_argument("--volume-bound", type=int, default=10**6)
    p.add_argument("--time-limit-scale", type=_fraction, default=Fraction(1))
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--stats-csv", default=None)
    p.add_argument("--goal", default="all", choices=["hb", "series", "all"])
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except InputParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        text = Path(args.input).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        cone_input = parse_input(text)
        if args.goal == "hb":
            goals = frozenset({"hilbert_basis"})
        elif args.goal == "series":
            goals = frozenset({"hilbert_series"})
        else:
            goals = frozenset({"hilbert_basis", "support_hyperplanes"})
            if cone_input.grading is not None:
                goals |= {"hilbert_series"}
        try:  # a bad option value is a usage error, not a domain error
            cfg = SubdivisionConfig(volume_bound=args.volume_bound,
                                    strategy=args.strategy.replace("-", "_"),
                                    time_limit_scale=args.time_limit_scale)
            options = RunOptions(goals=goals, subdivision=cfg, threads=args.threads)
        except DomainError as exc:
            raise InputParseError(str(exc)) from None
        report = run(options, cone_input, args.input, args.stats_csv)
    except (InputParseError, OSError) as exc:  # OSError: writing the report or CSV
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NotPointedError, GradingNotPositiveError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConeKitError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(report)
    return 0
