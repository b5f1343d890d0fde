"""Fixture reports, byte for byte.

Every fixture runs under every strategy, and `subdiv.in` once more with
a volume bound that makes the IP and the approximation subdivide.
`--time-limit-scale 0` turns the wall-clock IP limit off, so the whole
`.out`, `stats:` lines included, depends on the input alone.  A change
that is meant to alter a report shows up as a diff of its file under
fixtures/golden/; a report that differs fails with a unified diff
against its golden file.  The fixtures under fixtures/sublattice/ have
cones in a proper sublattice of Z^d reached from generators:
rank-deficient generators, and generators cut by constraints.  Those
under fixtures/pyramids/ have facets with more generators than rank - 1
that miss the apex of the pulling triangulation, so their pyramids take
a double description each.
"""

import difflib
import shutil
from pathlib import Path

import pytest

from conekit.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"
SUBLATTICE = FIXTURES / "sublattice"
PYRAMIDS = FIXTURES / "pyramids"
STRATEGIES = ("none", "ip", "approx", "ip-then-approx")

CASES = [(p.stem, strategy, "", []) for p in sorted(FIXTURES.glob("*.in"))
         for strategy in STRATEGIES] + \
        [("subdiv", strategy, ".bound100", ["--volume-bound", "100"])
         for strategy in STRATEGIES[1:]]


def check_report(tmp_path, source, stem, strategy, flags=()):
    """Run the CLI on a copy of `source` and compare with golden/<stem>.out."""
    work = tmp_path / f"{stem}.in"
    shutil.copy(source, work)
    assert main([str(work), "--strategy", strategy,
                 "--time-limit-scale", "0", *flags]) == 0
    expected = (GOLDEN / f"{stem}.out").read_bytes()
    got = work.with_suffix(".out").read_bytes()
    if got != expected:
        diff = difflib.unified_diff(
            expected.decode(errors="replace").splitlines(keepends=True),
            got.decode(errors="replace").splitlines(keepends=True),
            f"golden/{stem}.out", "report")
        pytest.fail("report differs from its golden file:\n" + "".join(diff), pytrace=False)


@pytest.mark.parametrize("name, strategy, tag, flags", CASES)
def test_report_matches_golden(tmp_path, name, strategy, tag, flags):
    check_report(tmp_path, FIXTURES / f"{name}.in", f"{name}.{strategy}{tag}",
                 strategy, flags)


@pytest.mark.parametrize("name, strategy", [
    (p.stem, strategy) for p in sorted(SUBLATTICE.glob("*.in"))
    for strategy in STRATEGIES])
def test_sublattice_report_matches_golden(tmp_path, name, strategy):
    check_report(tmp_path, SUBLATTICE / f"{name}.in", f"{name}.{strategy}", strategy)


@pytest.mark.parametrize("name, strategy", [
    (p.stem, strategy) for p in sorted(PYRAMIDS.glob("*.in")) for strategy in STRATEGIES])
def test_pyramid_report_matches_golden(tmp_path, name, strategy):
    check_report(tmp_path, PYRAMIDS / f"{name}.in", f"{name}.{strategy}", strategy)
