"""Hilbert bases and Hilbert series of pointed rational cones.

The primal triangulation algorithm with two volume-reduction strategies
for large simplicial cones: exact integer-programming stellar
subdivision and lattice-cube approximation.
"""

from .approx import approx_candidates, approximate_cone, minimal_cube_face_vertices
from .collect import (ComputationResult, HilbertSeries, StatsRecord,
                      accumulate_series, bottom_volume, reduce_to_hilbert_basis)
from .cone import (Cone, ConeInput, SimplicialCone, build_cone, make_simplicial_cone,
                   normalize_grading, triangulate)
from .errors import (ConeKitError, DomainError, GradingNotPositiveError,
                     InputParseError, InternalConsistencyError, NotPointedError)
from .pipeline import RunOptions, compute
from .simplex import SeriesContribution, hb_candidates, series_contribution
from .subdivide import (IpOutcome, SubdivisionConfig, recursive_subdivide,
                        solve_star_ip, stellar_subdivide)

__all__ = [
    "Cone", "ConeInput", "SimplicialCone", "build_cone", "make_simplicial_cone",
    "normalize_grading", "triangulate",
    "SeriesContribution", "hb_candidates", "series_contribution",
    "ComputationResult", "HilbertSeries", "StatsRecord", "accumulate_series",
    "bottom_volume", "reduce_to_hilbert_basis",
    "IpOutcome", "SubdivisionConfig", "recursive_subdivide", "solve_star_ip",
    "stellar_subdivide",
    "approx_candidates", "approximate_cone", "minimal_cube_face_vertices",
    "RunOptions", "compute",
    "ConeKitError", "DomainError", "GradingNotPositiveError", "InputParseError",
    "InternalConsistencyError", "NotPointedError",
]

__version__ = "0.1.0"
