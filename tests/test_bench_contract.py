"""The benchmark drives the library through `RunOptions(threads=...)`,
`dataclasses.replace` and `SubdivisionConfig(node_limit=...,
time_limit_scale=None)`; its self-test fails when a library change
breaks those calls."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, "conebench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
