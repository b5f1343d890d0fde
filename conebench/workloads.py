"""Seeded instance families and the configuration of each workload.

Instances are produced here, by the benchmark, from the seed alone and
written in the problem-file grammar; the program only ever sees the
generated text.  Nothing in this module imports conekit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd

SERIES = ("hilbert_series", "support_hyperplanes")
HB = ("hilbert_basis", "support_hyperplanes")
# branch-and-bound nodes per integer program; with the wall-clock limit
# off, no count depends on machine load
NODE_LIMIT = 500


def determinant(rows) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def height_simplex(rng, d, height, entry, det_lo, det_hi):
    """Cone over a lattice (d-1)-simplex at `height` (coordinate sum),
    primitive rows, |det| in [det_lo, det_hi]."""
    while True:
        rows = []
        for _ in range(d):
            v = [rng.randint(-entry, entry) for _ in range(d - 1)]
            v.append(height - sum(v))
            rows.append(tuple(v))
        if any(gcd(*r) != 1 for r in rows):
            continue
        if det_lo <= abs(determinant(rows)) <= det_hi:
            return rows


def simplex_family(rng, count, *, d, height, entry, det_lo, det_hi, graded):
    """`count` height simplices, one per equal-width determinant band."""
    out = []
    width = (det_hi - det_lo) / count
    for k in range(count):
        lo = int(det_lo + k * width)
        hi = int(det_lo + (k + 1) * width)
        gens = height_simplex(rng, d, height, entry, lo, hi)
        out.append((gens, (1,) * d if graded else None))
    return out


def polytope_family(rng, count, *, points, box, d):
    """Cones over `points` random lattice points of [0, box]^(d-1) at
    height 1, graded by the last coordinate."""
    out = []
    for _ in range(count):
        seen = []
        while len(seen) < points:
            p = tuple(rng.randint(0, box) for _ in range(d - 1)) + (1,)
            if p not in seen:
                seen.append(p)
        out.append((seen, (0,) * (d - 1) + (1,)))
    return out


def problem_text(gens, grading) -> str:
    d = len(gens[0])
    lines = [f"amb_space {d}", f"cone {len(gens)}"]
    lines += [" ".join(map(str, g)) for g in gens]
    if grading is not None:
        lines += ["grading", " ".join(map(str, grading))]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    family: str                 # instances are shared by workloads of one family
    make: object                # family generator
    params: dict
    count: int                  # instances per set
    goals: tuple
    strategy: str
    volume_bound: int = 10**6
    threads2: bool = False      # add a traced threads=2 pass in trace mode
    tiny: dict = field(default_factory=dict)  # params of the self-test size


CRITERION8 = dict(d=5, height=10, entry=40, det_lo=4 * 10**6, det_hi=6 * 10**6,
                  graded=True)
CRITERION8_TINY = dict(d=5, height=10, entry=12, det_lo=2 * 10**4,
                       det_hi=4 * 10**4, graded=True)

WORKLOADS = {w.name: w for w in (
    Workload(
        name="series-ip",
        why="Paper headline: Hilbert series of huge-det d=5 simplices by "
            "IP subdivision; splits subdivide (solve_star_ip) against "
            "evaluate (series_contribution), no approx code",
        family="criterion8", make=simplex_family, params=CRITERION8,
        count=6, goals=SERIES, strategy="ip", volume_bound=10**4,
        threads2=True, tiny=CRITERION8_TINY),
    Workload(
        name="series-approx",
        why="Same instances and series as series-ip via the overcone "
            "approximation: an approx gain shows only here, an IP gain "
            "must leave it unchanged",
        family="criterion8", make=simplex_family, params=CRITERION8,
        count=6, goals=SERIES, strategy="approx", volume_bound=10**4,
        tiny=CRITERION8_TINY),
    Workload(
        name="hb-ip",
        why="Hilbert basis over IP subdivision: simplex materialises points "
            "and collect reduces them; dominated by reduce_to_hilbert_basis",
        family="hb4", make=simplex_family,
        params=dict(d=4, height=10, entry=10, det_lo=1500, det_hi=2500,
                    graded=False),
        count=8, goals=HB, strategy="ip", volume_bound=200,
        tiny=dict(d=4, height=10, entry=5, det_lo=200, det_hi=300,
                  graded=False)),
    Workload(
        name="series-polytope",
        why="Many small simplices of d=6 lattice polytopes, nothing "
            "subdivided: measures build_cone, triangulate, adjugate and "
            "per-leaf overhead",
        family="polytope6", make=polytope_family,
        params=dict(points=16, box=5, d=6),
        count=6, goals=SERIES, strategy="ip_then_approx",
        tiny=dict(points=8, box=2, d=4)),
)}


def permute(gens, grading, perm):
    """The same cone with its coordinates reordered by `perm`."""
    gens = [tuple(g[p] for p in perm) for g in gens]
    if grading is not None:
        grading = tuple(grading[p] for p in perm)
    return gens, grading


def instance_texts(w: Workload, seed: int, tiny: bool = False) -> list[str]:
    """Problem files of the workload's instance set for `seed`.

    The cones themselves are drawn once per family from a fixed stream;
    the seed draws a coordinate permutation for each of them.  Instance
    difficulty varies by orders of magnitude within a family, so sets
    drawn afresh per seed would not measure comparable work, while a
    permutation changes every input the program sees (and the order in
    which its integer program branches) but not the lattice geometry.
    """
    params = w.tiny if tiny else w.params
    count = 1 if tiny else w.count
    base = w.make(random.Random(w.family), count, **params)
    rng = random.Random(f"{w.family}:{seed}")
    texts = []
    for gens, grading in base:
        d = len(gens[0])
        # cones over polytopes keep their homogenizing coordinate last
        free = d - 1 if w.make is polytope_family else d
        perm = rng.sample(range(free), free) + list(range(free, d))
        texts.append(problem_text(*permute(gens, grading, perm)))
    return texts
