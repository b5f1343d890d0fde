#!/usr/bin/env python3
"""Self-test of the benchmark on one-instance sets of a tiny size.

    python3 conebench/selftest.py

For every workload, both modes must print every metric of BENCHMARK.json
with its unit, and every result must pass its checks.  Then one rendered
result is corrupted, and the run must count exactly that instance as
failed.  Exits 0 when all of this holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run
from reference import import_conekit
from workloads import WORKLOADS

SEED = 3


def printed(workload, trace) -> dict:
    """The JSON line `run.emit` prints for the tiny set, parsed back."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.emit(run.benchmark(workload, SEED, 0.1, trace, tiny=True))
    return json.loads(out.getvalue().splitlines()[-1])


def check_metrics(workload, trace, spec, errors) -> None:
    result = printed(workload, trace)
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != wanted:
        errors.append(f"{workload} trace={trace}: metrics {got} != {wanted}")
    if not (result["correct"] and result["failed"] == 0
            and result["attempted"] >= 1):
        errors.append(f"{workload} trace={trace}: checks failed: {result}")


def check_corruption(workload, errors) -> None:
    """A wrong report for the first instance of the first pass only."""
    conekit = import_conekit()
    render = conekit.cli.render_report
    corrupted = []

    def corrupting(result, goals):
        report = render(result, goals)
        if not corrupted:
            corrupted.append(True)
            report = "1 Hilbert basis elements:\n1 0 0 0\n" + report
        return report

    conekit.cli.render_report = corrupting
    try:
        result = printed(workload, 1)
    finally:
        conekit.cli.render_report = render
    rate = result["metrics"]["check.fail_rate"]["value"]
    if result["correct"] or result["failed"] != 1 \
            or rate != 1 / result["attempted"]:
        errors.append(f"{workload}: corrupted result not counted: {result}")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    errors = []
    for name in WORKLOADS:
        for trace in (0, 1):
            check_metrics(name, trace, spec, errors)
    check_corruption("series-ip", errors)
    for e in errors:
        print("FAIL", e, file=sys.stderr)
    print("selftest", "failed" if errors else "passed", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
