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


def test_bench_pairs_verdict():
    import importlib.util
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    lower = {"better": "lower", "bound": 0.25}
    higher = {"better": "higher", "bound": 0.1}
    parent = bench.summary([1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 1.02, 0.98, 1.0])
    faster = bench.summary([0.7] * 9 + [1.2])
    assert bench.verdict(lower, parent, faster, 9) == {
        "gain": True, "regressed": False, "unresolved": False}
    # 8 of 10 pairs are too few, however large the gap
    assert not bench.verdict(lower, parent, faster, 8)["gain"]
    # every pair won, but the gap lies inside the parent's quartile spread
    near = bench.summary([0.99] * 10)
    assert not bench.verdict(lower, parent, near, 10)["gain"]
    slower = bench.summary([1.3] * 10)
    assert bench.verdict(lower, parent, slower, 0) == {
        "gain": False, "regressed": True, "unresolved": False}
    assert not bench.verdict(lower, parent, bench.summary([1.2] * 10), 0)["regressed"]
    # a higher-is-better metric regresses when it falls by more than its bound
    assert bench.verdict(higher, parent, bench.summary([0.85] * 10), 0)["regressed"]
    assert bench.verdict(higher, parent, bench.summary([1.5] * 10), 10)["gain"]
    # a parent spread wider than the bound cannot rule out a regression
    noisy = bench.summary([0.5, 1.5, 0.6, 1.4, 1.0, 0.7, 1.3, 0.8, 1.2, 1.0])
    assert bench.verdict(lower, noisy, bench.summary([1.0] * 10), 5) == {
        "gain": False, "regressed": False, "unresolved": True}
    # ... unless every change run beats every parent run
    assert bench.verdict(lower, noisy, bench.summary([0.4] * 10), 10) == {
        "gain": True, "regressed": False, "unresolved": False}
