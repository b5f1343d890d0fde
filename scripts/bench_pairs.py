#!/usr/bin/env python3
"""Paired conebench runs of two checkouts, written as one BENCH_<n>.json.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --out BENCH_<n>.json

For every workload of the change's BENCHMARK.json and every seed
101-110, `conebench/run.py --trace 0` runs once in each checkout for
the benchmark's `run_seconds`; which checkout goes first alternates
from seed to seed.  The file holds, per workload and end-to-end metric,
both sides' per-seed values, their median and quartiles, the number
of pairs the change won, and the verdict: `gain` (at least nine tenths
of the pairs won and a median gap wider than the parent's quartile
spread), `regressed` (the median worse by more than the metric's
bound) and `unresolved` (the parent's quartile spread wider than that
bound, unless every change run beats every parent run).  Then seed 1
runs TRACE_RUNS times per checkout with `--trace 1`, alternating, and
the median of each per-layer metric (the stage split among them) is
stored: one traced run can differ from the next by a quarter.

A parent checkout is made with `git archive <rev> | tar -x -C DIR`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
SEEDS = list(range(101, 111))
TRACE_SEED = 1
TRACE_RUNS = 3


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The JSON result of one conebench run in `tree`."""
    cmd = [sys.executable, "conebench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{tree}: {' '.join(cmd[1:])} exited {out.returncode}:\n"
                         f"{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def traced(trees: dict, workload: str, seconds: float) -> dict:
    """Per side, the median value of each per-layer metric over
    TRACE_RUNS `--trace 1` runs of TRACE_SEED, the sides alternating."""
    runs = {side: [] for side in SIDES}
    for k in range(TRACE_RUNS):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            runs[side].append(run(trees[side], workload, TRACE_SEED, seconds, 1)["metrics"])
    return {side: {name: statistics.median(m[name]["value"] for m in runs[side])
                   for name in runs[side][0]}
            for side in SIDES}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def verdict(metric: dict, parent: dict, change: dict, wins: int) -> dict:
    """`gain`: the change won at least nine tenths of the pairs and its
    median beats the parent's by more than the parent's quartile spread.
    `regressed`: its median is worse than the parent's by more than the
    metric's BENCHMARK.json bound, a fraction of the parent's median.
    `unresolved`: the parent's quartile spread is wider than that bound,
    so the runs cannot tell a change of the bound's size from noise,
    unless every change run is better than every parent run."""
    sign = 1 if metric["better"] == "lower" else -1
    gap = sign * (parent["median"] - change["median"])  # > 0: change better
    pairs = len(parent["runs"])
    spread = parent["q3"] - parent["q1"]
    bound = metric["bound"] * abs(parent["median"])
    dominates = all(sign * (p - c) > 0 for p in parent["runs"] for c in change["runs"])
    return {"gain": 10 * wins >= 9 * pairs and gap > spread,
            "regressed": -gap > bound,
            "unresolved": spread > bound and not dominates}


def compare(spec: dict, trees: dict, seeds: list[int], seconds: float) -> dict:
    out = {}
    for w in spec["workloads"]:
        name = w["name"]
        results = {side: [] for side in SIDES}
        for k, seed in enumerate(seeds):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            for side in order:
                results[side].append(run(trees[side], name, seed, seconds, 0))
                print(f"{name} seed {seed} {side} done", file=sys.stderr)
        metrics = {}
        for m in spec["end_to_end"]:
            vals = {side: [r["metrics"][m["name"]]["value"] for r in results[side]]
                    for side in SIDES}
            sign = 1 if m["better"] == "lower" else -1
            wins = sum(sign * (c - p) < 0 for p, c in zip(vals["parent"], vals["change"]))
            stats = {side: summary(vals[side]) for side in SIDES}
            metrics[m["name"]] = {"unit": m["unit"], "better": m["better"],
                                  "change_wins": wins, **stats,
                                  **verdict(m, stats["parent"], stats["change"], wins)}
        out[name] = {
            "metrics": metrics,
            "failed": {side: sum(r["failed"] for r in results[side]) for side in SIDES},
            "correct": {side: all(r["correct"] for r in results[side]) for side in SIDES},
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    record = {
        "machine": {"cpus": os.cpu_count(), "processor": platform.processor(),
                    "python": platform.python_version()},
        "seeds": SEEDS,
        "seconds": seconds,
        "workloads": compare(spec, trees, SEEDS, seconds),
        "trace_seed": TRACE_SEED,
        "trace_runs": TRACE_RUNS,
        "trace": {w["name"]: traced(trees, w["name"], seconds)
                  for w in spec["workloads"]},
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
