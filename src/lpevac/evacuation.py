"""Two-robot wireless evacuation from the l_p unit disk.

Both robots walk from the origin to the deployment point on C_p (one time
unit), then search the perimeter in opposite directions at unit speed; the
moment one robot finds the exit the other cuts straight across.  With
``tau`` the parallel search time, the evacuation time is

    1 + tau + (distance between the robots at time tau)

and the adversary places the exit to maximize it.  The two deployments
worth analyzing are the axis point rho_p(0) and the diagonal point
rho_p(pi/4); the axis deployment is optimal for p <= 2 and the diagonal
one for p >= 2.  This module provides the simulation, the closed-form
worst case with its critical quantities and an independent grid oracle.
The closed forms read every arc length from the chart and pi_p from
:func:`half_perimeter`.
"""
from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple, Optional

from .lp_geometry import (
    QUARTER_PI,
    CirclePoint,
    DomainError,
    Point2,
    _arc_from_zero,
    _chart,
    _point_at_arc_from_zero,
    _ypow,
    chord_length,
    half_perimeter,
    unit_circle_point,
    validate_p,
)
from .numerics import Tolerance, find_root_bracketed, maximize_1d

__all__ = [
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
]

# The aux root is about ln 2 / p, so an absolute stop loses it at large p.
# With abs_tol the least subnormal, Brent stops on its relative bracket test,
# a half-width of 2 eps |w|, or on an exact zero.  The budget covers pure
# bisection from 1/2 down to ln 2 / DBL_MAX ~ 3.9e-309, about 1,020 halvings.
_ROOT_TOL = Tolerance(abs_tol=5e-324, rel_tol=0.0, max_iter=1100)


class Branch(Enum):
    """Canonical deployment: on the x axis (phi = 0) or the diagonal (phi = pi/4)."""

    AXIS = "axis"
    DIAGONAL = "diagonal"


class _AlgoParamsFields(NamedTuple):
    p: float
    phi: float


class AlgoParams(_AlgoParamsFields):
    """Search parameters: the norm p and the deployment angle phi in [0, pi/4]."""

    __slots__ = ()

    def __new__(cls, p: float, phi: float = 0.0) -> "AlgoParams":
        validate_p(p)
        if not 0.0 <= phi <= QUARTER_PI:
            raise DomainError(f"deployment angle must lie in [0, pi/4], got {phi}")
        return super().__new__(cls, p, phi)

    @classmethod
    def _make(cls, iterable) -> "AlgoParams":
        # _replace builds through _make: validate there too
        return cls(*iterable)


class EvacOutcome(NamedTuple):
    """Result of one simulated exit placement."""

    tau: float
    finder_positions: tuple[Point2, Point2]
    separation: float
    total_cost: float


class CriticalParams(NamedTuple):
    """Worst-case exit data for the optimal deployment at this p.

    aux_root    root of w^p + 1 = 2(1 - w)^p, present on the diagonal branch
    exit_coord  chart coordinate of the worst-case exit
    explored    arc measure searched when that exit is found (in (pi_p, 2*pi_p])
    separation  distance between the robots at that moment

    For p = 1 and p = inf the worst case is a cost-5 plateau; the values
    reported are the limits from inside (1, inf), not plateau-unique data.
    As p -> inf the separation and the half explored measure tend to 2
    only at a rate of about ln p / p: the separation is 1.9425 at p = 50
    and comes within 0.05 of 2 only from p ~ 61.5.
    """

    branch: Branch
    aux_root: Optional[float]
    exit_coord: float
    explored: float
    separation: float


def _total(p: float) -> float:
    return 8.0 * _chart(p).eighth


def robot_positions(params: AlgoParams, tau: float) -> tuple[Point2, Point2]:
    """Positions after parallel search time tau in [0, pi_p].

    First the counter-clockwise robot, then the clockwise one: the points at
    lam0 + r and lam0 - r, with r the exact remainder of tau after n quarter
    perimeters, turned n quarter turns forward and back.  At tau = pi_p
    (r = 0, n = 2) they are one point for every phi; for the axis deployment
    they are exact reflections across y=0, for the diagonal one across y=x
    to a few ulps.
    """
    quarter = 2.0 * _chart(params.p).eighth
    if not -1e-9 <= tau <= 2.0 * quarter + 1e-9:
        raise DomainError(f"search time {tau} outside [0, {2.0 * quarter}]")
    lam0 = _arc_from_zero(params.p, params.phi)
    r = math.remainder(tau, quarter)
    ccw = _point_at_arc_from_zero(params.p, lam0 + r)
    cw = _point_at_arc_from_zero(params.p, lam0 - r)
    for _ in range(round((tau - r) / quarter)):
        ccw = Point2(-ccw.y, ccw.x)
        cw = Point2(cw.y, -cw.x)
    return ccw, cw


def separation(params: AlgoParams, tau: float) -> float:
    """Distance between the robots at search time tau.

    Equals 2|y| of the counter-clockwise robot for phi = 0 and
    2^(1/p) |x - y| for phi = pi/4.
    """
    a, b = robot_positions(params, tau)
    return chord_length(params.p, a, b)


def evac_time(params: AlgoParams, tau: float) -> float:
    """Evacuation time if the exit is reported at search time tau."""
    return 1.0 + tau + separation(params, tau)


def simulate_exit(params: AlgoParams, exit: CirclePoint) -> EvacOutcome:
    """Run the search against the exit rho_p(exit.phi) and report the outcome."""
    if chord_length(params.p, exit.point, unit_circle_point(params.p, exit.phi).point) > 1e-6:
        raise DomainError(f"exit {exit.point} is not the point of C_p at angle {exit.phi}")
    total = _total(params.p)
    lam0 = _arc_from_zero(params.p, params.phi)
    lam_exit = _arc_from_zero(params.p, exit.phi)
    tau = abs(math.remainder(lam_exit - lam0, total))
    positions = robot_positions(params, tau)
    sep = chord_length(params.p, *positions)
    return EvacOutcome(tau, positions, sep, 1.0 + tau + sep)


def aux_root_equation(p: float, w: float) -> float:
    """w^p + 1 - 2(1 - w)^p for w in [0, 1), whose unique root, in
    (0, 1/2), locates the diagonal-branch critical exit.

    (1 - w)^p is taken as exp(p log1p(-w)): rounding 1 - w would lose a
    root near ln 2 / p once p is large.
    """
    return w**p + 1.0 - 2.0 * math.exp(p * math.log1p(-w))


def _axis_branch(p: float) -> CriticalParams:
    # Critical data for deployment phi = 0, valid for p in (1, 2].  The exit
    # coordinate is s = ((2^p - 1)^(1/(p-1)) + 1)^(-1/p); the power 1/(p-1)
    # would amplify the rounding of 2^p - 1 near p = 1, so the inner power
    # is formed from 2^p - 1 = 1 + 2 (2^(p-1) - 1) in log space.
    q = p - 1.0
    s = (math.exp(math.log1p(2.0 * math.expm1(q * math.log(2.0))) / q) + 1.0) ** (-1.0 / p)
    explored = half_perimeter(p) + 2.0 * _chart(p).arc(s)
    sep = 2.0 * _ypow(p, s)
    return CriticalParams(Branch.AXIS, None, s, explored, sep)


def _diagonal_branch(p: float) -> CriticalParams:
    # Critical data for deployment phi = pi/4, valid for p in [2, inf).
    # The equation is -1 at w = 0 and 1 - 2^(-p) > 0 at w = 1/2.
    w = find_root_bracketed(lambda w: aux_root_equation(p, w), 0.0, 0.5, _ROOT_TOL)
    wq = w ** (p / (p - 1.0))
    s = (wq + 1.0) ** (-1.0 / p)
    # (1 - s^p)^(1/p) computed from the exact value s^p = 1 / (1 + wq)
    s_dual = (wq / (1.0 + wq)) ** (1.0 / p)
    explored = 1.5 * half_perimeter(p) - 2.0 * _chart(p).arc(s_dual)
    sep = 2.0 ** (1.0 / p) * (s_dual + s)
    return CriticalParams(Branch.DIAGONAL, w, s, explored, sep)


def worst_case_params(p: float, branch: Optional[Branch] = None) -> CriticalParams:
    """Critical quantities of the worst-case exit.

    The branch defaults to the optimal deployment for this p (axis for
    p <= 2, diagonal for p > 2); forcing a branch is allowed only where its
    closed form is valid (axis for p <= 2, diagonal for p >= 2, both at 2).
    """
    p = validate_p(p)
    if p == 1.0:
        return CriticalParams(Branch.AXIS, None, 0.2, 4.8, 1.6)
    if math.isinf(p):
        return CriticalParams(Branch.DIAGONAL, None, 1.0, 4.0, 2.0)
    if branch is None:
        branch = Branch.AXIS if p <= 2.0 else Branch.DIAGONAL
    if branch is Branch.AXIS:
        if p > 2.0:
            raise DomainError("axis branch closed forms require p <= 2")
        return _axis_branch(p)
    if p < 2.0:
        raise DomainError("diagonal branch closed forms require p >= 2")
    return _diagonal_branch(p)


def worst_case_cost(p: float) -> float:
    """Worst-case evacuation cost of the optimal-deployment search at this p.

    Exactly 5 for p = 1 and p = inf.  On the diagonal branch the closed form
    rounds one ulp below the weak bound 1 + pi_p at a few p in [7.1e15,
    1.14e16]; the max with that bound keeps the cost at or above it.
    """
    cp = worst_case_params(p)
    cost = 1.0 + 0.5 * cp.explored + cp.separation
    if cp.branch is Branch.DIAGONAL:
        cost = max(cost, 1.0 + half_perimeter(p))
    return cost


def worst_case_grid_oracle(params: AlgoParams, n_grid: int = 4096) -> tuple[float, float]:
    """Independent check of the closed-form worst case: scan the evacuation
    time over a uniform tau grid on [0, pi_p] and refine the best cell.

    Returns (tau*, cost*).  Used in tests against :func:`worst_case_cost`.
    """
    if n_grid < 64:
        raise DomainError(f"oracle grid must have at least 64 points, got {n_grid}")
    half = 0.5 * _total(params.p)
    return maximize_1d(
        lambda tau: evac_time(params, tau),
        0.0,
        half,
        Tolerance(abs_tol=1e-10, rel_tol=0.0),
        n_grid=n_grid,
    )
