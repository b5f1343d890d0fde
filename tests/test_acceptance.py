"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as the
criteria execute.  All randomness is seeded, so the suite is
reproducible run to run.
"""

import random
import shutil
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

from conekit import linalg as la, subdivide as subdivide_module
from conekit.approx import approx_candidates, approximate_cone, cross_section, \
    minimal_cube_face_vertices
from conekit.cli import main
from conekit.cone import ConeInput, build_cone, dual_description, \
    make_simplicial_cone, triangulate
from conekit.pipeline import RunOptions, compute
from conekit.subdivide import SubdivisionConfig, recursive_subdivide, solve_star_ip

from oracles import (brute_degree_counts, brute_hilbert_basis, brute_star_minimum,
                     dotv, frac_rank, fundamental_points, generator_sum, in_half_open,
                     is_pointed, minor_det, oracle_cost_estimate, stellar_tree)

HB = frozenset({"hilbert_basis"})
SERIES = frozenset({"hilbert_series"})
FIXTURES = Path(__file__).parent / "fixtures"


def report(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def random_pointed_cone(rng, d, n_gens, entry, max_simplex_det=1000,
                        max_oracle_cost=300000):
    while True:
        gens = tuple(tuple(rng.randint(-entry, entry) for _ in range(d))
                     for _ in range(n_gens))
        gens = tuple(g for g in gens if any(g))
        if len(gens) < 2 or frac_rank(gens) < d or not is_pointed(gens):
            continue
        cone = build_cone(ConeInput(d, generators=gens))
        if any(s.det > max_simplex_det for s in triangulate(cone)):
            continue
        if oracle_cost_estimate(gens) > max_oracle_cost:
            continue
        return gens


def random_simplex(rng, d, entry, det_lo=1, det_hi=10**4):
    while True:
        rows = tuple(tuple(rng.randint(-entry, entry) for _ in range(d))
                     for _ in range(d))
        det = abs(minor_det(rows))
        if det_lo <= det <= det_hi:
            return rows


def height_simplex(rng, d, h, entry, det_lo, det_hi):
    """Random cone over a lattice (d-1)-simplex at height h (primitive rows)."""
    while True:
        rows = []
        for _ in range(d):
            v = [rng.randint(-entry, entry) for _ in range(d - 1)]
            v.append(h - sum(v))
            rows.append(tuple(v))
        if any(la.content(r) != 1 for r in rows):
            continue
        det = abs(minor_det(rows))
        if det_lo <= det <= det_hi:
            return tuple(rows), det


def test_criterion_1_hilbert_basis_oracle_equivalence():
    rng = random.Random(101)
    t0 = time.monotonic()
    compute_s = oracle_s = 0.0
    checked = 0
    for i in range(200):
        d = 2 if i % 4 else 3
        entry = 30 if d == 2 else 6
        gens = random_pointed_cone(rng, d, rng.randint(d, d + 2), entry)
        t1 = time.monotonic()
        res = compute(ConeInput(d, generators=gens), RunOptions(goals=HB))
        t2 = time.monotonic()
        ref = brute_hilbert_basis(list(gens))
        t3 = time.monotonic()
        compute_s += t2 - t1
        oracle_s += t3 - t2
        assert sorted(res.hilbert_basis) == ref, f"cone {gens}"
        checked += 1
    elapsed = time.monotonic() - t0
    report(1, checked == 200 and elapsed < 60,
           f"{checked}/200 random cones equal the brute-force Hilbert basis "
           f"in {elapsed:.1f}s (< 60s; compute {compute_s:.1f}s, "
           f"oracle {oracle_s:.1f}s)")


def test_criterion_2_fundamental_domain_size():
    rng = random.Random(102)
    checked = 0
    for i in range(500):
        d = 2 + i % 3
        entry = {2: 60, 3: 14, 4: 8}[d]
        gens = random_simplex(rng, d, entry)
        s = make_simplicial_cone(gens)
        assert len(fundamental_points(s)) == s.det == abs(minor_det(gens))
        checked += 1
    report(2, checked == 500,
           f"|E| equals |det| on {checked}/500 random simplices (d <= 4, det <= 1e4)")


def test_criterion_3_hilbert_series_against_counts():
    rng = random.Random(103)
    goals = SERIES | HB
    checked = 0
    for i in range(100):
        d = 2 if i % 2 else 3
        entry = 8 if d == 2 else 5
        while True:
            gens = random_pointed_cone(rng, d, rng.randint(d, d + 2), entry,
                                       max_oracle_cost=10**6)
            grading = tuple(rng.randint(1, 2) for _ in range(d))
            if all(dotv(grading, g) > 0 for g in gens):
                break
        res = compute(ConeInput(d, generators=gens, grading=grading),
                      RunOptions(goals=goals))
        series = res.series
        # the pipeline normalizes the grading; count with the same one
        cone = build_cone(ConeInput(d, generators=gens, grading=grading))
        counts = brute_degree_counts(list(cone.generators), cone.grading, 20)
        assert series.expand(20) == counts, f"cone {gens} grading {grading}"
        assert len(series.numerator) - 1 < series.e * series.r
        checked += 1
    # worked fixture from the collector examples
    res = compute(ConeInput(2, generators=((1, 0), (3, 5)), grading=(1, 0)),
                  RunOptions(goals=goals))
    assert res.series.numerator == (1, 2, 4, 4, 3, 1)
    assert (res.series.e, res.series.r) == (3, 2)
    report(3, checked == 100,
           f"series expansion matches brute-force counts through t^20 on "
           f"{checked}/100 graded cones; deg R < e*r throughout; fixture exact")


def ip_finder(cfg):
    def find(s):
        out = solve_star_ip(s, cfg)
        return (out.point,) if out.is_optimal else ()
    return find


def _subdivision_cases(rng, count):
    cases = []
    for i in range(count):
        d = 2 if i % 3 else 3
        entry = 55 if d == 2 else 12
        cases.append(random_simplex(rng, d, entry))
    return cases


def test_criterion_4_and_6_subdivision_soundness_and_stellar_identity(monkeypatch):
    rng = random.Random(104)
    cases = _subdivision_cases(rng, 24)
    steps = 0
    covered = 0
    compared = 0
    stellar_subdivide = subdivide_module.stellar_subdivide

    def check_step(cur, xhat):
        nonlocal steps
        pieces = stellar_subdivide(cur, xhat)
        lhs = sum(p.det for p in pieces) * cur.gen_height
        rhs = cur.det * dotv(cur.height_normal, xhat)
        assert lhs == rhs, "stellar determinant identity failed"
        steps += 1
        return pieces

    # every stellar step of recursive_subdivide, here and in the pipeline
    monkeypatch.setattr(subdivide_module, "stellar_subdivide", check_step)

    for gens in cases:
        s = make_simplicial_cone(gens)
        d = s.dim
        for bound in (2, 10, 100):
            cfg = SubdivisionConfig(volume_bound=bound, strategy="ip",
                                    time_limit_scale=Fraction(1, 4))
            leaves = recursive_subdivide(s, cfg, ip_finder(cfg))
            assert sum(p.det for p in leaves) <= s.det
            if s.det <= 2500:
                # half-open at the anchor the pipeline gives the cone over gens
                anchor = generator_sum(s.gens)
                span = 10 if d == 2 else 5
                for x in product(range(-span, span + 1), repeat=d):
                    inside = in_half_open(s, x, anchor)
                    hits = sum(in_half_open(p, x, anchor) for p in leaves)
                    assert hits == (1 if inside else 0), (gens, bound, x)
                covered += 1
        # pipeline equality, subdivided vs not (grading = height normal)
        ci = ConeInput(d, generators=gens, grading=s.height_normal)
        base = compute(ci, RunOptions(goals=HB | SERIES,
                                      subdivision=SubdivisionConfig(strategy="none")))
        for bound in (2, 10, 100):
            cfg = SubdivisionConfig(volume_bound=bound, strategy="ip",
                                    time_limit_scale=Fraction(1, 4))
            sub = compute(ci, RunOptions(goals=HB | SERIES, subdivision=cfg))
            assert sub.hilbert_basis == base.hilbert_basis
            assert sub.series == base.series
            compared += 1
    report(4, compared == len(cases) * 3,
           f"half-open covers, volume monotonicity and pipeline equality hold "
           f"for volume_bound in {{2,10,100}} on {len(cases)} simplices "
           f"({covered} box probes)")
    report(6, steps > 0,
           f"stellar determinant identity held exactly at all {steps} "
           f"subdivision steps")


def test_ip_subdivision_matches_one_point_loop():
    """An IP's pool is its one point, a generator of every piece it makes,
    so handing pools down changes nothing on the IP path: the same leaves
    as the one-point loop, in the same order."""
    split = 0
    for gens in _subdivision_cases(random.Random(104), 24):
        s = make_simplicial_cone(gens)
        for bound in (2, 10, 100):
            cfg = SubdivisionConfig(volume_bound=bound, strategy="ip",
                                    time_limit_scale=Fraction(0))
            find = ip_finder(cfg)
            pooled = recursive_subdivide(s, cfg, find)
            oracle = stellar_tree(s, cfg, lambda t: next(iter(find(t)), None))
            assert [(p.gens, p.det, p.facet_forms) for p in pooled] == \
                [(p.gens, p.det, p.facet_forms) for p in oracle], (gens, bound)
            split += len(pooled) > 1
    assert split == 72  # every case is cut at every bound


def test_criterion_5_ip_optimality():
    rng = random.Random(105)
    checked = agree = 0
    for i in range(100):
        d = 2 if i % 3 else 3
        entry = 40 if d == 2 else 9
        det_hi = 10**4 if d == 2 else 10**3
        gens = random_simplex(rng, d, entry, det_hi=det_hi)
        s = make_simplicial_cone(gens)
        out = solve_star_ip(s)
        ref = brute_star_minimum(list(s.gens), s.height_normal, s.gen_height)
        if ref is None:
            assert out.status == "infeasible", (gens, out)
        else:
            assert out.is_optimal and out.value == ref[0], (gens, out, ref)
            u = s.q_numerators(out.point)
            assert all(0 <= x < s.det for x in u)
        agree += 1
        checked += 1
    # worked fixture: the optimum and the reported stats arithmetic
    s = make_simplicial_cone(((1, 0), (3, 5)))
    out = solve_star_ip(s)
    assert out.point == (1, 1) and out.value == 3
    res = compute(ConeInput(2, generators=((1, 0), (3, 5)), grading=(1, 0)),
                  RunOptions(goals=HB, subdivision=SubdivisionConfig(
                      strategy="ip", volume_bound=2)))
    assert res.stats.improvement_factor == Fraction(5, 3)
    report(5, checked == 100 and agree == 100,
           f"exact optimum agrees with brute force over E on {agree}/100 "
           f"simplices; fixture (1,1)@3 and improvement 5/3 verified")


def test_criterion_7_approximation_properties():
    rng = random.Random(107)
    contained = sound = 0
    matched = both = 0
    for i in range(200):
        d = 2 if i % 3 else 3
        entry = 30 if d == 2 else 10
        gens = random_simplex(rng, d, entry, det_hi=2000)
        s = make_simplicial_cone(gens)
        over = approximate_cone(s, 1)
        forms, _, _ = dual_description(over)
        assert all(dotv(f, g) >= 0 for f in forms for g in s.gens), gens
        contained += 1
        cands = approx_candidates(s, 1)
        for b in cands:
            assert any(b)
            assert all(v >= 0 for v in s.q_numerators(b))
            assert dotv(s.height_normal, b) < s.gen_height
        sound += 1
        if cands and s.det <= 500:
            ipo = solve_star_ip(s)
            if ipo.is_optimal:
                both += 1
                ci = ConeInput(d, generators=gens, grading=s.height_normal)
                runs = []
                for strat in ("none", "ip", "approx"):
                    cfg = SubdivisionConfig(volume_bound=2, strategy=strat)
                    runs.append(compute(ci, RunOptions(goals=HB | SERIES,
                                                       subdivision=cfg)))
                assert runs[0].hilbert_basis == runs[1].hilbert_basis == \
                    runs[2].hilbert_basis
                assert runs[0].series == runs[1].series == runs[2].series
                matched += 1
    report(7, contained == 200 and sound == 200 and matched == both,
           f"overcone containment and candidate soundness on 200 simplices; "
           f"strategy results agree on all {matched} cases where both "
           f"strategies found points")


def test_criterion_7_cube_face_vertex_cardinality():
    # As stated: at most d cube-face vertices for every non-lattice
    # cross-section vertex.  The staircase face of a vertex whose
    # fractional parts are distinct and nonzero has d+1 vertices (e.g.
    # generators (2,1),(3,7): vertex (2/11, 1/11)), so this bound cannot
    # hold for random simplices; the faithful check is expected to fail.
    rng = random.Random(177)
    violations = 0
    sampled = 0
    bad = []
    for i in range(200):
        d = 2 if i % 3 else 3
        entry = 30 if d == 2 else 10
        gens = random_simplex(rng, d, entry, det_hi=2000)
        s = make_simplicial_cone(gens)
        for v in cross_section(s, 1):
            if all(x.denominator == 1 for x in v):
                continue
            sampled += 1
            w = minimal_cube_face_vertices(v)
            if len(w) > d:
                violations += 1
                if len(bad) < 2:
                    bad.append((gens, tuple(map(str, v)), len(w)))
    report("7-cardinality", violations == 0,
           f"|cube face vertices| <= d on {sampled - violations}/{sampled} "
           f"non-lattice vertices; a vertex with distinct nonzero fractional "
           f"parts needs d+1 staircase vertices (e.g. {bad[:1]})")


def test_criterion_8_paper_scale_substitute():
    rng = random.Random(108)
    instances = [height_simplex(rng, 5, 10, 80, 2 * 10**7, 7 * 10**7)
                 for _ in range(5)]
    t_none = t_sub = 0.0
    improvements = []
    for gens, det in instances:
        ci = ConeInput(5, generators=gens, grading=(1,) * 5)
        t0 = time.monotonic()
        base = compute(ci, RunOptions(goals=SERIES,
                                      subdivision=SubdivisionConfig(strategy="none")))
        t_none += time.monotonic() - t0
        cfg = SubdivisionConfig(strategy="ip_then_approx", volume_bound=10**4,
                                time_limit_scale=Fraction(1, 10),
                                node_limit=500)
        t0 = time.monotonic()
        sub = compute(ci, RunOptions(goals=SERIES, subdivision=cfg))
        t_sub += time.monotonic() - t0
        assert sub.series == base.series
        st = sub.stats
        assert st.improvement_factor * st.volume_used == st.simplex_volume
        improvements.append(st.improvement_factor)
    good = sum(1 for f in improvements if f >= 5)
    speedup = t_none / t_sub
    report(8, good >= 4 and speedup >= 2.0,
           f"improvement >= 5 on {good}/5 instances "
           f"(factors {[str(f) for f in improvements]}), end-to-end speedup "
           f"{speedup:.2f}x (>= 2x), stats arithmetic exact")


def test_criterion_9_thread_determinism(tmp_path):
    flag_sets = {
        "quadrant.in": [],
        "cone35.in": [],
        "square3d.in": [],
        "constraints.in": [],
        "lowdim.in": [],
        "subdiv.in": ["--strategy", "ip", "--volume-bound", "100"],
    }
    compared = 0
    for name, flags in flag_sets.items():
        outs = []
        for threads, tag in [("1", "a"), ("8", "b"), ("1", "c")]:
            work = tmp_path / f"{tag}_{name}"
            shutil.copy(FIXTURES / name, work)
            rc = main([str(work), "--threads", threads, *flags])
            assert rc == 0, name
            outs.append(work.with_suffix(".out").read_bytes())
        assert outs[0] == outs[1] == outs[2], name
        compared += 1
    report(9, compared == len(flag_sets),
           f"byte-identical .out files for threads=1 vs threads=8 (and a "
           f"repeat run) on all {compared} fixtures")
