#!/usr/bin/env python3
"""Reference digests: the unsubdivided (strategy none) result per instance.

A digest covers the rendered Hilbert basis, support hyperplanes and
Hilbert series, i.e. everything in the report before its `stats:` lines,
which legitimately differ by strategy.

    python3 conebench/reference.py OUT.json GOALS FILE...
        compute the digests of the problem files, write them to OUT.json
    python3 conebench/reference.py --check-in SEED
        record the digests of every workload's set for SEED in
        conebench/digests.json
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CHECKED_IN = HERE / "digests.json"


def import_conekit():
    """conekit from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import conekit
    import conekit.cli
    if Path(conekit.__file__).resolve().parent != SRC / "conekit":
        raise ImportError(f"conekit imported from {conekit.__file__}, "
                          f"not from {SRC}")
    return conekit


def digest(report: str) -> str:
    lines = report.splitlines(keepends=True)
    cut = lines.index("stats:\n") if "stats:\n" in lines else len(lines)
    return hashlib.sha256("".join(lines[:cut]).encode()).hexdigest()


def set_key(goals, texts) -> str:
    """Identifies an instance set and its goals."""
    blob = ",".join(goals) + "\0" + "\0".join(texts)
    return hashlib.sha256(blob.encode()).hexdigest()


def compute_digests(texts, goals) -> list[str]:
    conekit = import_conekit()
    options = conekit.RunOptions(
        goals=frozenset(goals),
        subdivision=conekit.SubdivisionConfig(strategy="none"))
    out = []
    for text in texts:
        result = conekit.compute(conekit.cli.parse_input(text), options)
        out.append(digest(conekit.cli.render_report(result, options.goals)))
    return out


def write_json(path: Path, data) -> None:
    tmp = path.with_name(path.name + f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    os.replace(tmp, path)


def check_in(seed: int) -> None:
    from workloads import WORKLOADS, instance_texts
    table = json.loads(CHECKED_IN.read_text()) if CHECKED_IN.exists() else {}
    for w in WORKLOADS.values():
        texts = instance_texts(w, seed)
        key = set_key(w.goals, texts)
        if key not in table:
            table[key] = {"family": w.family, "seed": seed,
                          "goals": list(w.goals),
                          "digests": compute_digests(texts, w.goals)}
            print(f"{w.name}: {len(texts)} digests", file=sys.stderr)
    write_json(CHECKED_IN, table)


def main(argv) -> int:
    if argv[:1] == ["--check-in"]:
        check_in(int(argv[1]))
        return 0
    out, goals, *files = argv
    texts = [Path(f).read_text(encoding="utf-8") for f in files]
    write_json(Path(out), compute_digests(texts, goals.split(",")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
