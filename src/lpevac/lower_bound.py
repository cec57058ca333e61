"""Lower bounds on the evacuation cost and the optimality-gap report.

Two bounds: every algorithm pays at least 1 + pi_p (the perimeter must be
covered), and at least 1 + e/2 + min_chord(e) where e is the upper bound's
own worst-case explored measure e_p (two unexplored points at arc distance
~ 2*pi_p - e always remain, and the minimum chord is monotone).  The gap
between the upper bound and the stronger lower bound is numerically ~0,
which is what makes the search optimal.  The generic bound needs finite
p > 1, so the report sets ``generic_is_weak`` only at p in {1, inf}, where
the weak bound 5 is already tight.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .chord_arc import min_chord
from .evacuation import worst_case_cost, worst_case_params
from .lp_geometry import DomainError, half_perimeter, validate_p

__all__ = [
    "OptimalityReport",
    "weak_lower_bound",
    "generic_lower_bound",
    "optimality_report",
]


class OptimalityReport(NamedTuple):
    """upper vs lower bounds at one p; gap = upper - generic_lower.

    generic_is_weak marks the rows p in {1, inf}, where the generic bound
    is undefined and the weak one stands in for it.
    """

    p: float
    upper: float
    weak_lower: float
    generic_lower: float
    gap: float
    generic_is_weak: bool = False


def weak_lower_bound(p: float) -> float:
    """1 + pi_p: no algorithm evacuates faster than covering the perimeter."""
    return 1.0 + half_perimeter(p)


def generic_lower_bound(p: float) -> float:
    """1 + e/2 + min_chord(e) with e the worst-case explored measure."""
    p = validate_p(p)
    if p <= 1.0 or math.isinf(p):
        raise DomainError("the generic bound requires finite p > 1")
    cp = worst_case_params(p)
    return 1.0 + 0.5 * cp.explored + min_chord(p, cp.explored)


def optimality_report(p: float) -> OptimalityReport:
    p = validate_p(p)
    upper = worst_case_cost(p)
    weak = weak_lower_bound(p)
    weak_only = p == 1.0 or math.isinf(p)
    generic = weak if weak_only else generic_lower_bound(p)
    return OptimalityReport(p, upper, weak, generic, upper - generic, weak_only)
