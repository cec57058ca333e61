"""Two-robot wireless evacuation from unit disks of l_p norms.

Numerical library and CLI: geometry of the l_p unit circle (perimeter,
arc length and its inversion, chords), the evacuation search and its
worst-case cost, the minimum-chord function with monotonicity
certification, and matching lower bounds.
"""

__version__ = "0.1.0"

from .chord_arc import (
    ChordArcSample,
    Direction,
    MonotonicityReport,
    min_chord,
    min_chord_curve,
    tangential_chord,
    tangential_chord_profile,
    verify_min_chord_monotone,
    verify_tangential_chord_monotone,
)
from .evacuation import (
    AlgoParams,
    Branch,
    CriticalParams,
    EvacOutcome,
    aux_root_equation,
    evac_time,
    robot_positions,
    separation,
    simulate_exit,
    worst_case_cost,
    worst_case_grid_oracle,
    worst_case_params,
)
from .lower_bound import (
    OptimalityReport,
    generic_lower_bound,
    optimality_report,
    weak_lower_bound,
)
from .lp_geometry import (
    INF,
    CirclePoint,
    DomainError,
    Point2,
    chord_length,
    half_perimeter,
    lp_norm,
    point_at_arc_length,
    unit_circle_point,
    validate_p,
)
from .numerics import (
    BracketedRoot,
    BracketError,
    IntegrationError,
    Tolerance,
    find_root_bracketed,
    integrate_adaptive,
    maximize_1d,
)
from .tables import CurveTable, quantize

__all__ = [
    "__version__",
    # numerics
    "Tolerance",
    "BracketedRoot",
    "BracketError",
    "IntegrationError",
    "integrate_adaptive",
    "find_root_bracketed",
    "maximize_1d",
    # geometry
    "INF",
    "DomainError",
    "Point2",
    "CirclePoint",
    "validate_p",
    "lp_norm",
    "unit_circle_point",
    "half_perimeter",
    "point_at_arc_length",
    "chord_length",
    # evacuation
    "Branch",
    "AlgoParams",
    "EvacOutcome",
    "CriticalParams",
    "robot_positions",
    "separation",
    "evac_time",
    "simulate_exit",
    "aux_root_equation",
    "worst_case_params",
    "worst_case_cost",
    "worst_case_grid_oracle",
    # chord / arc
    "Direction",
    "ChordArcSample",
    "MonotonicityReport",
    "tangential_chord",
    "tangential_chord_profile",
    "min_chord",
    "min_chord_curve",
    "verify_min_chord_monotone",
    "verify_tangential_chord_monotone",
    # lower bounds
    "OptimalityReport",
    "weak_lower_bound",
    "generic_lower_bound",
    "optimality_report",
    # tables
    "CurveTable",
    "quantize",
]
