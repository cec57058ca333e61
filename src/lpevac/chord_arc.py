"""Chord lengths of fixed-length arcs of C_p.

On the Euclidean circle every arc of a given length spans a chord of the
same length; on any other C_p the chord length depends on where the arc
sits.  ``min_chord`` is the shortest chord over all placements of an arc of
a given length, ``min_chord_curve`` the same minimum along a uniform grid of
arc lengths, and ``tangential_chord`` gives the chord as a function of the
arc's tangential angle (the angle of the arc midpoint).  By the four
reflection symmetries of C_p every chord value is attained with the arc
midpoint on the eighth of C_p between angles 0 and pi/4, i.e. at arc length
m in [0, E] from (1, 0), where E = pi_p / 4.  The minimum-chord searches
parametrize the midpoint by that arc length m.

The two ``verify_*`` routines certify, on dense grids, the monotonicity
facts the optimality argument rests on: the minimum chord grows with arc
length on [0, pi_p], and the tangential chord profile at the worst-case
explored measure is increasing for p < 2 and decreasing for p > 2 (hence
minimized at the deployment the search actually uses).
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .evacuation import worst_case_params
from .lp_geometry import (
    QUARTER_PI,
    ArcSpec,
    DomainError,
    _arc_from_zero,
    _chart,
    _point_at_arc_from_zero,
    _reduce_angle,
    chord_length,
    lp_norm,
    point_at_arc_length,
    unit_circle_point,
    validate_p,
)

__all__ = [
    "Direction",
    "ChordArcSample",
    "MonotonicityReport",
    "chord_of_arc",
    "tangential_chord",
    "tangential_chord_profile",
    "min_chord",
    "min_chord_curve",
    "verify_min_chord_monotone",
    "verify_tangential_chord_monotone",
]

# Midpoint cells on [0, E]: min_chord scans _MID_CELLS of them,
# min_chord_curve at least _CURVE_MID_CELLS (see its docstring).
_MID_CELLS = 512
_CURVE_MID_CELLS = 510


class Direction(Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"


@dataclass(frozen=True)
class ChordArcSample:
    theta: float
    chord: float
    arc_len: float


@dataclass(frozen=True)
class MonotonicityReport:
    """Outcome of a grid monotonicity check; passes iff the largest
    violation stays within the declared tolerance."""

    p: float
    grid_size: int
    direction: Direction
    tol: float
    max_violation: float
    passed: bool


def chord_of_arc(p: float, arc: ArcSpec) -> float:
    """Chord length spanned by the arc: distance between its endpoints."""
    p = validate_p(p)
    total = 8.0 * _chart(p).eighth
    if not 0.0 <= arc.length < total + 1e-9:
        raise DomainError(f"arc length {arc.length} outside [0, 2*pi_p)")
    if arc.length == 0.0:
        return 0.0
    a = unit_circle_point(p, arc.start_phi)
    b = point_at_arc_length(p, arc.start_phi, min(arc.length, total))
    return chord_length(p, a.point, b.point)


def tangential_chord(p: float, theta: float, arc_len: float) -> float:
    """Chord of the arc of length ``arc_len`` whose midpoint is rho_p(theta).

    The midpoint is extended by arc_len / 2 both ways along the circle and
    the endpoint distance returned.  theta must lie in [0, pi/4] and
    arc_len in (0, 2*pi_p).
    """
    p = validate_p(p)
    if not -1e-12 <= theta <= QUARTER_PI + 1e-12:
        raise DomainError(f"tangential angle must lie in [0, pi/4], got {theta}")
    total = 8.0 * _chart(p).eighth
    if not 0.0 < arc_len < total:
        raise DomainError(f"arc length {arc_len} outside (0, 2*pi_p)")
    return _centred_chord(p, _arc_from_zero(p, _reduce_angle(theta)), 0.5 * arc_len)


def _centred_chord(p: float, mid: float, half: float) -> float:
    # Chord of the arc that reaches arc length ``half`` both ways from the
    # point at arc length ``mid``.
    a = _point_at_arc_from_zero(p, mid + half)
    b = _point_at_arc_from_zero(p, mid - half)
    return chord_length(p, a.point, b.point)


def min_chord(p: float, u: float) -> float:
    """Shortest chord over all arcs of C_p of length u.

    An arc and its complement share endpoints, so u reduces to
    min(u, 2*pi_p - u).  The arc midpoint then sweeps the arc lengths
    m in [0, pi_p / 4] in 512 equal cells, each chord placing both
    endpoints m -/+ u/2.  The shortest chord of an arc of given length has
    its midpoint on an axis or a diagonal of C_p, i.e. at m = 0 or m = E,
    and both are scan nodes, so the least chord scanned is the minimum.
    """
    p = validate_p(p)
    eighth = _chart(p).eighth
    total = 8.0 * eighth
    if not 0.0 <= u < total + 1e-9:
        raise DomainError(f"arc length {u} outside [0, 2*pi_p)")
    u_eff = min(u, total - u)
    if u_eff <= 0.0:
        return 0.0
    half = 0.5 * u_eff
    step = eighth / _MID_CELLS
    mids = [i * step for i in range(_MID_CELLS)] + [eighth]
    return min(_centred_chord(p, m, half) for m in mids)


def _quarter_turn_lattice(p: float, n: int) -> tuple[list[float], list[float]]:
    # Coordinates (xs, ys) of the points of C_p at arc lengths i * E / n for
    # i in [-2n, 5n], stored at index i + 2n.  Only the quadrant [0, 2E) is
    # placed; the rest follows by quarter turns (x, y) -> (-y, x), which map
    # C_p onto itself and advance arc length by 2E.
    h = _chart(p).eighth / n
    pts = [_point_at_arc_from_zero(p, i * h).point for i in range(2 * n)]
    x = [pt.x for pt in pts]
    y = [pt.y for pt in pts]
    neg_x = [-v for v in x]
    neg_y = [-v for v in y]
    # quadrants -1, 0, 1, 2 and the first half of 3: (y, -x), (x, y),
    # (-y, x), (-x, -y), (y, -x)
    xs = y + x + neg_y + neg_x + y[: n + 1]
    ys = neg_x + y + x + neg_y + neg_x[: n + 1]
    return xs, ys


def min_chord_curve(p: float, steps: int) -> list[tuple[float, float]]:
    """(u, min_chord(p, u)) on the uniform grid u_j = j * pi_p / (steps - 1).

    pi_p is 4E, with E = pi_p / 4 the chart's eighth of C_p.  Every chord
    the scan needs joins two points of one arc-length lattice with cells
    h = E / n, n = 2 (steps - 1) ceil(256 / (steps - 1)), so each u_j / 2 is
    a whole number of cells.  The lattice is placed once and each chord is
    the l_p distance between two cached points.  Midpoints are every r-th
    lattice point of [0, E], r = max(1, n // 510), plus E itself, so at least
    510 midpoint cells are scanned for every grid while the scan stays
    linear in steps.  Both end midpoints, 0 and E, are lattice points, so
    the least chord scanned is the minimum, as in :func:`min_chord`.
    """
    p = validate_p(p)
    if steps < 2:
        raise DomainError(f"need at least 2 arc lengths, got {steps}")
    eighth = _chart(p).eighth
    k = -(-256 // (steps - 1))
    n = 2 * (steps - 1) * k
    xs, ys = _quarter_turn_lattice(p, n)
    stride = max(1, n // _CURVE_MID_CELLS)
    mid_idx = list(range(2 * n, 3 * n, stride)) + [3 * n]
    curve = [(0.0, 0.0)]
    for j, u in enumerate(_uniform(steps, 4.0 * eighth)[1:], start=1):
        s = 4 * k * j
        chords = [
            lp_norm(p, (xs[i + s] - xs[i - s], ys[i + s] - ys[i - s])) for i in mid_idx
        ]
        curve.append((u, min(chords)))
    return curve


def _uniform(n: int, hi: float) -> list[float]:
    step = hi / (n - 1)
    return [i * step for i in range(n - 1)] + [hi]


def tangential_chord_profile(
    p: float, arc_len: float, grid_size: int
) -> list[ChordArcSample]:
    """Sample the tangential chord on a uniform angle grid over [0, pi/4]."""
    return [
        ChordArcSample(theta, tangential_chord(p, theta, arc_len), arc_len)
        for theta in _uniform(max(int(grid_size), 2), QUARTER_PI)
    ]


def verify_min_chord_monotone(
    p: float, grid_size: int = 512, tol: float = 1e-9
) -> MonotonicityReport:
    """Certify that the minimum chord grows with arc length on [0, pi_p].

    Samples :func:`min_chord_curve` on a uniform grid and reports the
    largest drop between consecutive samples.  Certifies non-strict
    monotonicity up to floating noise only.
    """
    p = validate_p(p)
    if grid_size < 64:
        raise DomainError(f"grid must have at least 64 points, got {grid_size}")
    values = [chord for _, chord in min_chord_curve(p, grid_size)]
    worst = 0.0
    for prev, nxt in zip(values, values[1:]):
        drop = prev - nxt
        if drop > worst:
            worst = drop
    return MonotonicityReport(p, grid_size, Direction.INCREASING, tol, worst, worst <= tol)


def verify_tangential_chord_monotone(
    p: float,
    grid_size: int = 512,
    tol: float = 1e-9,
    arc_len: Optional[float] = None,
) -> MonotonicityReport:
    """Certify the monotone direction of the tangential chord profile.

    The arc length defaults to the worst-case explored measure for this p.
    Expected increasing for p < 2 and decreasing for p > 2; at p = 2 the
    profile is constant, so the report carries its full range as the
    violation (direction INCREASING by convention).
    """
    p = validate_p(p)
    if grid_size < 64:
        raise DomainError(f"grid must have at least 64 points, got {grid_size}")
    if arc_len is None:
        arc_len = worst_case_params(p).explored
    values = [s.chord for s in tangential_chord_profile(p, arc_len, grid_size)]
    if p == 2.0:
        worst = max(values) - min(values)
        direction = Direction.INCREASING
    else:
        direction = Direction.INCREASING if p < 2.0 else Direction.DECREASING
        worst = 0.0
        for prev, nxt in zip(values, values[1:]):
            viol = prev - nxt if direction is Direction.INCREASING else nxt - prev
            if viol > worst:
                worst = viol
    return MonotonicityReport(p, grid_size, direction, tol, worst, worst <= tol)
