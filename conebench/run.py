#!/usr/bin/env python3
"""conekit benchmark: seeded workloads, checked results, traced layers.

    python3 conebench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's instance set is generated from the seed and handed to the
public library (`conekit.cli.parse_input`, `conekit.compute`,
`conekit.cli.render_report`).  Passes over the set are repeated for about
S seconds, one process and one thread at a time.  Every result is
checked against the digest of the unsubdivided (strategy none) run, and
the subdivision counts must repeat exactly from pass to pass; a miss
counts as a failed instance.  The last line of stdout is one JSON object
with the end-to-end metrics (--trace 0) or the per-layer metrics of a
traced run (--trace 1) named in BENCHMARK.json.  Scratch files (inputs,
cached reference digests, span dumps) go to .conebench/ in the checkout.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import CHECKED_IN, digest, import_conekit, set_key
from tracer import Tracer
from workloads import NODE_LIMIT, WORKLOADS, instance_texts

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".conebench"
SETUP_REPEATS = 5
STAGES = ("build", "triangulate", "subdivide", "evaluate", "collect", "total")

# On a shared 2-vCPU VM (2 GHz Xeon) the host's load slows the CPUs by up
# to 60% within a second, and raw times of identical passes spread by 25%.
# A fixed loop of Python integer arithmetic is timed before and after
# every instance, and the instance's time is scaled to the speed at which
# the loop takes KERNEL_NOMINAL_S (roughly its time there when idle).
KERNEL_NOMINAL_S = 0.02

# a user's start-up: fresh interpreter, import, parse the problem files
SETUP_PROBE = """\
import sys
sys.path.insert(0, sys.argv[1])
import conekit
import conekit.cli
for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as fh:
        conekit.cli.parse_input(fh.read())
"""


def kernel_seconds() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return time.perf_counter() - start


class LeafProbe:
    """Counts the leaves `recursive_subdivide` hands back to the pipeline,
    for the determinism check; one call per initial simplex."""

    def __init__(self, pipeline):
        self.pipeline = pipeline
        self.orig = getattr(pipeline, "recursive_subdivide", None)
        self.leaves = 0

    def __enter__(self):
        if self.orig is not None:
            def counted(*args, **kwargs):
                out = self.orig(*args, **kwargs)
                self.leaves += len(out)
                return out
            self.pipeline.recursive_subdivide = counted
        return self

    def __exit__(self, *exc):
        if self.orig is not None:
            self.pipeline.recursive_subdivide = self.orig


class Checker:
    """Reference digests and repeat-exactly counts, per instance."""

    def __init__(self, refs):
        self.refs = refs
        self.first = [None] * len(refs)
        self.attempted = 0
        self.failed = 0

    def check(self, outcomes) -> None:
        for i, (report, stats, leaves) in enumerate(outcomes):
            self.attempted += 1
            if stats is None:
                problem = f"raised {report!r}"
            else:
                sig = (stats.volume_used, stats.ips_solved,
                       stats.approx_levels_used, leaves)
                if self.first[i] is None:
                    self.first[i] = sig
                if digest(report) != self.refs[i]:
                    problem = "result differs from the strategy-none reference"
                elif sig != self.first[i]:
                    problem = f"counts {sig} differ from {self.first[i]}"
                else:
                    continue
            self.failed += 1
            print(f"instance {i}: {problem}", file=sys.stderr)


def solve_set(conekit, cis, options):
    """One pass: solve and render every instance, timing each.

    Returns the instance times scaled to the kernel's nominal speed, the
    raw time of the pass and the outcomes."""
    outcomes, raw = [], []
    with LeafProbe(conekit.pipeline) as probe:
        gc.collect()
        kernel = [kernel_seconds()]
        for ci in cis:
            before = probe.leaves
            start = time.perf_counter()
            try:
                result = conekit.compute(ci, options)
                report = conekit.cli.render_report(result, options.goals)
                outcome = (report, result.stats, probe.leaves - before)
            except Exception as exc:  # a failing instance is counted, not fatal
                outcome = (exc, None, None)
            raw.append(time.perf_counter() - start)
            outcomes.append(outcome)
            kernel.append(kernel_seconds())
    scaled = [t * KERNEL_NOMINAL_S * 2 / (a + b)
              for t, a, b in zip(raw, kernel, kernel[1:])]
    return scaled, sum(raw), outcomes


def timed_passes(conekit, cis, options, checker, budget, min_passes):
    """Passes while another one fits in `budget` seconds; per pass the
    scaled instance times and the outcomes."""
    passes, raw = [], []
    start = time.perf_counter()
    while len(passes) < min_passes or \
            time.perf_counter() - start + raw[-1] <= budget:
        seconds, total, outcomes = solve_set(conekit, cis, options)
        checker.check(outcomes)
        passes.append((seconds, outcomes))
        raw.append(total)
    print("raw pass seconds: " + " ".join(f"{t:.3f}" for t in raw),
          file=sys.stderr)
    return passes


def set_seconds(passes) -> float:
    """Time to solve the whole set: per instance the median over passes."""
    return sum(statistics.median(times) for times in zip(*(s for s, _ in passes)))


def write_inputs(w, seed, tiny, texts) -> list[Path]:
    folder = WORK / "inputs" / f"{w.family}-{seed}{'-tiny' if tiny else ''}"
    folder.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, text in enumerate(texts):
        path = folder / f"{i:03d}.in"
        if not path.exists() or path.read_text(encoding="utf-8") != text:
            path.write_text(text, encoding="utf-8")
        paths.append(path)
    return paths


def reference_digests(w, texts, files) -> list[str]:
    """Checked-in digests, else cached ones, else computed in a child
    process (so that this process's peak RSS is the measured run's)."""
    key = set_key(w.goals, texts)
    table = json.loads(CHECKED_IN.read_text()) if CHECKED_IN.exists() else {}
    if key in table:
        refs = table[key]["digests"]
    else:
        cache = WORK / "ref" / f"{key}.json"
        if not cache.exists():
            cache.parent.mkdir(parents=True, exist_ok=True)
            subprocess.run([sys.executable, str(HERE / "reference.py"),
                            str(cache), ",".join(w.goals), *map(str, files)],
                           check=True, timeout=170)
        refs = json.loads(cache.read_text())
    if len(refs) != len(texts):
        raise RuntimeError(f"{len(refs)} reference digests for {len(texts)} instances")
    return refs


def setup_seconds(files) -> float:
    """Median over child processes, scaled like the instance times."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = kernel_seconds()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC),
                        *map(str, files)], check=True, timeout=60)
        elapsed = time.perf_counter() - start
        times.append(elapsed * KERNEL_NOMINAL_S * 2 / (before + kernel_seconds()))
    return statistics.median(times)


def geometric_mean(xs) -> float:
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def end_to_end(conekit, w, texts, files, options, checker, seconds):
    setup = setup_seconds(files)
    cis = [conekit.cli.parse_input(t) for t in texts]
    passes = timed_passes(conekit, cis, options, checker, seconds, 3)
    factors = [float(stats.improvement_factor)
               for _, stats, _ in passes[0][1] if stats is not None]
    return {
        "setup_s": setup,
        "wall_s": set_seconds(passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "improvement_factor": geometric_mean(factors) if factors else 0.0,
    }


def layer_metrics(calls, self_s, c, n):
    """Per traced pass: self times, call counts and layer counters."""
    ip_calls = calls["subdivide.solve_star_ip"]
    approx_calls = calls["approx.approx_candidates"]
    series_s = self_s["simplex.series_contribution"]
    reduce_in = c["collect.reduce.in"]
    m = {
        "subdivide.ip_s": self_s["subdivide.solve_star_ip"],
        "subdivide.ip_calls": ip_calls,
        "subdivide.ip_optimal": c["ip.optimal"],
        "subdivide.ip_limit": c["ip.limit"],
        "subdivide.ip_infeasible": c["ip.infeasible"],
        "subdivide.stellar_s": self_s["subdivide.stellar_subdivide"],
        "subdivide.leaves": c["leaves"],
        "approx.candidates_s": self_s["approx.approx_candidates"],
        "approx.overcone_s": self_s["approx.approximate_cone"],
        "approx.reduce_s": self_s["approx.reduce_to_hilbert_basis"],
        "approx.calls": approx_calls,
        "approx.hits": c["approx.hits"],
        "approx.points": c["approx.points"],
        "simplex.series_s": series_s,
        "simplex.points": c["series.points"],
        "simplex.hb_points_s": self_s["simplex.residue_blocks"]
        + self_s["simplex.points_from_block"] + self_s["simplex.hb_candidates"],
        "simplex.hb_candidates": c["hb.points"],
        "collect.reduce_s": self_s["collect.reduce_to_hilbert_basis"],
        "collect.reduce_in": reduce_in,
        "collect.reduce_out": c["collect.reduce.out"],
        "collect.series_s": self_s["collect.accumulate_series"],
        "collect.series_terms": c["series.terms"],
        "cone.build_s": self_s["cone.build_cone"],
        "cone.triangulate_s": self_s["cone.triangulate"],
        "cone.dual_description_s": self_s["cone.dual_description"],
        "cone.dual_description_calls": calls["cone.dual_description"],
        "cone.simplices": c["simplices"],
        "cone.make_simplicial_cone_calls": calls["cone.make_simplicial_cone"],
        "linalg.adjugate_s": self_s["linalg.adjugate"],
        "linalg.adjugate_calls": calls["linalg.adjugate"],
        "linalg.smith_normal_form_s": self_s["linalg.smith_normal_form"],
        "linalg.smith_normal_form_calls": calls["linalg.smith_normal_form"],
        "cli.render_s": self_s["cli.render_report"],
        "pipeline.self_s": self_s["pipeline.compute"],
    }
    m = {k: v / n for k, v in m.items()}
    # ratios and maxima are not per-pass sums
    m["subdivide.ip_optimal_ratio"] = c["ip.optimal"] / ip_calls if ip_calls else 0.0
    m["subdivide.max_leaf_det"] = c["max_leaf_det"]
    m["approx.hit_ratio"] = c["approx.hits"] / approx_calls if approx_calls else 0.0
    m["simplex.points_per_s"] = c["series.points"] / series_s if series_s else 0.0
    m["collect.reduce_keep_ratio"] = \
        c["collect.reduce.out"] / reduce_in if reduce_in else 0.0
    return m


def stage_seconds(passes, stage) -> float:
    return sum(stats.wall_time.get(stage, 0.0)
               for _, outcomes in passes
               for _, stats, _ in outcomes if stats is not None) / len(passes)


def traced(conekit, w, texts, options, checker, seconds, trace_path):
    """Untraced passes, then traced ones over the same set; spans of the
    traced phases are dumped to `trace_path`."""
    tracer = Tracer()
    tracer.install(conekit)
    cis = [conekit.cli.parse_input(t) for t in texts]
    tracer.remove()
    _, parse_s = Tracer.totals(tracer.spans)
    phases = {"parse": [0, len(tracer.spans)]}

    plain = timed_passes(conekit, cis, options, checker, seconds / 2, 2)
    tracer.install(conekit)
    try:
        mark = len(tracer.spans)
        passes = timed_passes(conekit, cis, options, checker, seconds / 2, 1)
        phases["threads1"] = [mark, len(tracer.spans)]
        calls, self_s = Tracer.totals(tracer.spans[mark:])
        m = layer_metrics(calls, self_s, tracer.counts, len(passes))
        threads2 = 0.0
        if w.threads2:
            mark = len(tracer.spans)
            times, _, outcomes = solve_set(
                conekit, cis, dataclasses.replace(options, threads=2))
            checker.check(outcomes)
            threads2 = stage_seconds([(times, outcomes)], "evaluate")
            phases["threads2"] = [mark, len(tracer.spans)]
    finally:
        tracer.remove()
    m["cli.parse_s"] = parse_s["cli.parse_input"]
    for stage in STAGES:
        m[f"pipeline.stage_{stage}_s"] = stage_seconds(passes, stage)
    m["pipeline.evaluate_threads2_s"] = threads2
    m["trace.overhead_s"] = set_seconds(passes) - set_seconds(plain)
    m["check.fail_rate"] = checker.failed / checker.attempted
    tracer.dump(trace_path, {"workload": w.name, "phases": phases,
                             "traced_passes": len(passes),
                             "untraced_passes": len(plain)})
    return m


def benchmark(name, seed, seconds, trace, tiny=False) -> dict:
    w = WORKLOADS[name]
    conekit = import_conekit()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    texts = instance_texts(w, seed, tiny)
    files = write_inputs(w, seed, tiny, texts)
    checker = Checker(reference_digests(w, texts, files))
    options = conekit.RunOptions(
        goals=frozenset(w.goals),
        subdivision=conekit.SubdivisionConfig(
            strategy=w.strategy, volume_bound=w.volume_bound,
            node_limit=NODE_LIMIT, time_limit_scale=None))
    if trace:
        (WORK / "traces").mkdir(parents=True, exist_ok=True)
        path = WORK / "traces" / f"{name}-{seed}{'-tiny' if tiny else ''}.json"
        values = traced(conekit, w, texts, options, checker, seconds, path)
    else:
        values = end_to_end(conekit, w, texts, files, options, checker, seconds)
    return {"correct": checker.failed == 0,
            "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in wanted}}


def emit(result) -> None:
    """A readable table on stderr, the JSON result as the last stdout line."""
    for key, metric in result["metrics"].items():
        print(f"{key:32} {metric['value']:>16.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps(result))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = benchmark(args.workload, args.seed, args.seconds, args.trace)
    except (ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
