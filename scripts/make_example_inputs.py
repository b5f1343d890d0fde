#!/usr/bin/env python3
"""Write a few ready-to-run problem files for the command line tool."""

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from conekit import linalg as la

EXAMPLES = {
    "quadrant.in": """\
# first quadrant with total-degree grading
amb_space 2
cone 2
1 0
0 1
grading
1 1
""",
    "cone35.in": """\
# two-dimensional cone with determinant 5
amb_space 2
cone 2
1 0
3 5
grading
1 0
""",
    "square_cone.in": """\
# cone over the unit square at height one
amb_space 3
cone 4
0 0 1
1 0 1
0 1 1
1 1 1
grading
0 0 1
""",
}


def random_height_cone(rng, d, h, entry):
    while True:
        rows = []
        for _ in range(d):
            v = [rng.randint(-entry, entry) for _ in range(d - 1)]
            v.append(h - sum(v))
            rows.append(tuple(v))
        if any(la.content(r) != 1 for r in rows):
            continue
        if len(la.basis_forms(rows, d)[0]) == d:
            return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("outdir", nargs="?", default="examples_in")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, text in EXAMPLES.items():
        (outdir / name).write_text(text, encoding="utf-8")
    rng = random.Random(args.seed)
    rows = random_height_cone(rng, 4, 6, 25)
    lines = ["# random cone over a lattice simplex at height 6",
             "amb_space 4", f"cone {len(rows)}"]
    lines += [" ".join(map(str, r)) for r in rows]
    lines += ["grading", "1 1 1 1"]
    (outdir / "random_height6.in").write_text("\n".join(lines) + "\n",
                                              encoding="utf-8")
    print(f"wrote {len(EXAMPLES) + 1} files to {outdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
