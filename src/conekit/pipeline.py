"""End-to-end orchestration: build, triangulate, subdivide, evaluate, collect."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import linalg as la
from .approx import approx_candidates
from .collect import (ComputationResult, StatsRecord, accumulate_series,
                      reduce_to_hilbert_basis, series_period)
from .cone import ConeInput, ambient_support_forms, build_cone, stacked, triangulate
from .errors import DomainError
from .simplex import hb_candidates, series_contribution
from .subdivide import (APPROX_LEVEL_CAP, HUGE_DET, SubdivisionConfig,
                        recursive_subdivide, solve_star_ip)

GOALS = frozenset({"hilbert_basis", "hilbert_series", "support_hyperplanes"})


@dataclass(frozen=True)
class RunOptions:
    goals: frozenset = GOALS
    subdivision: SubdivisionConfig = field(default_factory=SubdivisionConfig)
    threads: int = 1  # checked; evaluation runs in the calling thread

    def __post_init__(self):
        goals = frozenset(self.goals)
        if not goals:
            raise DomainError("at least one goal is required")
        if not goals <= GOALS:
            raise DomainError(f"unknown goals {sorted(goals - GOALS)}")
        object.__setattr__(self, "goals", goals)
        if self.threads < 1:
            raise DomainError("threads must be at least 1")


def make_finder(cfg: SubdivisionConfig, stats: StatsRecord):
    """Compose the subdivision-point finder for the configured strategy.

    The finder returns a tuple of candidate points: the IP's optimum
    alone, or every candidate of the first approximation level that
    found any; recursive_subdivide picks among them and hands the rest
    down to the pieces.  The integer program is exact: Infeasible proves
    no candidate exists at all (the approximation searches the same
    feasible set), so only a LimitReached falls through to the
    approximation.  When a simplex is still huge and a level found
    nothing, the level is escalated up to APPROX_LEVEL_CAP.  Strategy
    none finds nothing, so every simplex stays a leaf.
    """

    def approx_stage(s):
        top = APPROX_LEVEL_CAP if s.det > HUGE_DET else 1
        for level in range(1, top + 1):
            cands = approx_candidates(s, level)
            if cands:
                stats.approx_levels_used = max(stats.approx_levels_used, level)
                return cands
        return ()

    def find(s):
        if cfg.strategy in ("ip", "ip_then_approx"):
            outcome = solve_star_ip(s, cfg)
            stats.ips_solved += 1
            if outcome.is_optimal:
                return (outcome.point,)
            if outcome.status == "infeasible":
                return ()
            if cfg.strategy == "ip_then_approx" or s.det > HUGE_DET:
                return approx_stage(s)
            return ()
        if cfg.strategy == "approx":
            return approx_stage(s)
        return ()

    return find


def compute(ci: ConeInput, options: RunOptions = RunOptions()) -> ComputationResult:
    """Run the primal algorithm on `ci` and collect results in ambient coordinates."""
    stats = StatsRecord()
    times = stats.wall_time
    t_total = time.monotonic()

    t0 = time.monotonic()
    cone = build_cone(ci)
    times["build"] = time.monotonic() - t0

    want_series = "hilbert_series" in options.goals
    want_hb = "hilbert_basis" in options.goals
    if want_series and cone.rank > 0 and cone.grading is None:
        raise DomainError("the hilbert_series goal requires a grading")
    if want_series:  # refuse an oversized series before any leaf is evaluated
        extreme_degrees = [la.dot(g, cone.grading) for g in cone.generators]
        series_period(extreme_degrees, cone.rank)

    t0 = time.monotonic()
    tri = triangulate(cone)
    times["triangulate"] = time.monotonic() - t0
    stats.simplex_volume = max((s.det for s in tri), default=0)
    stats.initial_volume = sum(s.det for s in tri)

    t0 = time.monotonic()
    cfg = options.subdivision
    finder = make_finder(cfg, stats)
    leaves = []
    for s in tri:
        leaves.extend(recursive_subdivide(s, cfg, finder))
    leaves = tuple(leaves)
    times["subdivide"] = time.monotonic() - t0
    stats.volume_used = sum(s.det for s in leaves)

    t0 = time.monotonic()
    # every leaf is half-open by the anchor of the cone's triangulation
    anchor = tuple(map(sum, zip(*cone.generators)))
    contribs = ([series_contribution(leaf, cone.grading, anchor) for leaf in leaves]
                if want_series else [])
    cands = hb_candidates(stacked(leaves, cone.rank)) if want_hb else ()
    times["evaluate"] = time.monotonic() - t0

    t0 = time.monotonic()
    hilbert_basis = ()
    if want_hb:
        basis_r = reduce_to_hilbert_basis(cands, cone.support_forms)
        ambient = [cone.to_ambient(v) for v in basis_r]
        hilbert_basis = tuple(sorted(ambient, key=lambda v: (sum(v), v)))

    series = None
    if want_series:
        series = accumulate_series(contribs, extreme_degrees, cone.rank)
    times["collect"] = time.monotonic() - t0
    times["total"] = time.monotonic() - t_total

    return ComputationResult(
        hilbert_basis=hilbert_basis,
        support_forms=ambient_support_forms(cone),
        series=series,
        stats=stats,
    )
