"""Chord lengths of fixed-length arcs of C_p.

On the Euclidean circle every arc of a given length spans a chord of the
same length; on any other C_p the chord length depends on where the arc
sits.  By the four reflection symmetries of C_p every chord value is
attained with the arc midpoint on the eighth of C_p between angles 0 and
pi/4, i.e. at arc length m in [0, E] from (1, 0), where E = pi_p / 4.

The paper's arc/chord lemma: among arcs of one length the chord is monotone
in m, increasing for p < 2 and decreasing for p > 2 (constant at p = 2).
The shortest chord is therefore an end chord, centred on the axis (m = 0)
for p <= 2 and on the diagonal (m = E) for p > 2.  A chord centred on
rho_p(theta) is the robots' separation, half the arc length into the search
deployed at rho_p(theta), so ``min_chord``, ``min_chord_curve`` and
``tangential_chord`` all evaluate :func:`evacuation.separation`.

``verify_min_chord_monotone`` certifies the lemma on a lattice of arc
lengths and midpoints, together with the growth of the minimum chord with
arc length on [0, pi_p]; ``verify_tangential_chord_monotone`` certifies the
tangential chord profile at the worst-case explored measure.
"""
from __future__ import annotations

from enum import Enum
from math import gcd, hypot, isfinite, nan
from operator import le, sub
from typing import NamedTuple, Optional

from .evacuation import AlgoParams, separation, worst_case_params
from .lp_geometry import (
    INF,
    QUARTER_PI,
    DomainError,
    _chart,
    _point_at_arc_from_zero,
    validate_p,
)

__all__ = [
    "Direction",
    "MonotonicityReport",
    "tangential_chord",
    "tangential_chord_profile",
    "min_chord",
    "min_chord_curve",
    "verify_min_chord_monotone",
    "verify_tangential_chord_monotone",
]

# Midpoint cells on [0, E] that verify_min_chord_monotone scans at least.
_MID_CELLS = 510


class Direction(Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"


class MonotonicityReport(NamedTuple):
    """Outcome of a grid monotonicity check; passes iff the largest
    violation stays within the tolerance the check was given."""

    direction: Direction
    max_violation: float
    passed: bool


def tangential_chord(p: float, theta: float, arc_len: float) -> float:
    """Chord of the arc of length ``arc_len`` whose midpoint is rho_p(theta).

    The separation of the search deployed at rho_p(theta) after search time
    arc_len / 2.  theta must lie in [0, pi/4] and arc_len in (0, 2*pi_p).
    """
    p = validate_p(p)
    total = 8.0 * _chart(p).eighth
    if not 0.0 < arc_len < total:
        raise DomainError(f"arc length {arc_len} outside (0, 2*pi_p)")
    return separation(AlgoParams(p, theta), 0.5 * arc_len)


def min_chord(p: float, u: float) -> float:
    """Shortest chord over all arcs of C_p of length u.

    An arc and its complement share endpoints, so u reduces to
    u_eff = min(u, 2*pi_p - u).  By the arc/chord lemma (see the module
    docstring) the shortest chord is the end chord: the arc of length u_eff
    centred on the axis for p <= 2 and on the diagonal for p > 2, whose
    chord is the separation of that deployment at search time u_eff / 2.
    :func:`verify_min_chord_monotone` certifies the lemma.
    """
    p = validate_p(p)
    total = 8.0 * _chart(p).eighth
    if not 0.0 <= u < total + 1e-9:
        raise DomainError(f"arc length {u} outside [0, 2*pi_p)")
    u_eff = min(u, total - u)
    if u_eff <= 0.0:
        return 0.0
    phi = 0.0 if p <= 2.0 else QUARTER_PI
    return separation(AlgoParams(p, phi), 0.5 * u_eff)


def _quarter_turn_lattice(p: float, n: int, d: int) -> tuple[list[float], list[float]]:
    # Coordinates (xs, ys) of the points of C_p at arc lengths i * E / n for
    # the multiples i of d (a divisor of n) in [-2n, 3n], stored at index
    # (i + 2n) / d.  Only the quadrant [0, 2E) is placed; the rest follows by
    # quarter turns (x, y) -> (-y, x), which map C_p onto itself and advance
    # arc length by 2E.
    h = _chart(p).eighth / n
    pts = [_point_at_arc_from_zero(p, i * h) for i in range(0, 2 * n, d)]
    x = [pt.x for pt in pts]
    y = [pt.y for pt in pts]
    # quadrant -1, quadrant 0 and the first half of quadrant 1: (y, -x),
    # (x, y), (-y, x)
    xs = y + x + [-v for v in y[: n // d + 1]]
    ys = [-v for v in x] + y + x[: n // d + 1]
    return xs, ys


def min_chord_curve(p: float, steps: int) -> list[tuple[float, float]]:
    """(u, min_chord(p, u)) on the uniform grid u_j = j * pi_p / (steps - 1).

    Every row comes from :func:`min_chord`: 0 at u = 0, else an end chord of
    two point placements.  :func:`verify_min_chord_monotone` certifies on the
    same grid that it is the shortest chord and that it grows with u.
    """
    p = validate_p(p)
    if steps < 2:
        raise DomainError(f"need at least 2 arc lengths, got {steps}")
    return [(u, min_chord(p, u)) for u in _uniform(steps, 4.0 * _chart(p).eighth)]


def _uniform(n: int, hi: float) -> list[float]:
    step = hi / (n - 1)
    return [i * step for i in range(n - 1)] + [hi]


def tangential_chord_profile(
    p: float, arc_len: float, grid_size: int
) -> list[tuple[float, float]]:
    """(theta, tangential_chord(p, theta, arc_len)) for theta uniform on [0, pi/4]."""
    if grid_size < 2:
        raise DomainError(f"need at least 2 angles, got {grid_size}")
    return [
        (theta, tangential_chord(p, theta, arc_len))
        for theta in _uniform(grid_size, QUARTER_PI)
    ]


def verify_min_chord_monotone(
    p: float, grid_size: int = 512, tol: float = 1e-9
) -> MonotonicityReport:
    """Certify the arc/chord lemma and that the minimum chord grows with u.

    On the grid u_j = j * pi_p / (grid_size - 1) of :func:`min_chord_curve`,
    every chord needed joins two points of one arc-length lattice with cells
    h = E / n, n = 2 (grid_size - 1) k, k = ceil(256 / (grid_size - 1)), so
    each u_j / 2 is a whole number of cells.  For every u_j the midpoints are
    every r-th lattice point of [0, E], r = max(1, n // 510), plus E itself:
    at least 510 cells per arc length, linear in grid_size overall.  A row
    reads only multiples of d = gcd(r, 4k, n) cells, so the lattice is placed
    once at those: 2n / d points, 1,020 at grid 256 and 1,022 at the default
    512 (d = 2 at both).  The chords of one arc length are one row, one
    pass over strided slices of the lattice that holds
    :func:`lp_geometry.lp_norm`'s branch for p inline, with the same float
    operations on the same operands, so it returns lp_norm's values bit for
    bit.  A row with no step against the lemma's direction returns 0.0
    after one comparison pass, as the scan of its steps would.  Two
    monotonicity facts are checked:

    - the lemma: along each arc length the chord is monotone in the
      midpoint, increasing for p <= 2 and decreasing for p > 2, so the end
      chord :func:`min_chord` returns is the least chord of the lattice
      (at p = 2 the chord is constant up to rounding);
    - the values of :func:`min_chord_curve` do not drop as u grows.

    max_violation is the largest step against either direction, NaN (and
    the check failed) if a chord is not finite; the direction reported is
    that in u.  Certifies non-strict monotonicity up to floating noise only.
    """
    p = validate_p(p)
    if grid_size < 64:
        raise DomainError(f"grid must have at least 64 points, got {grid_size}")
    k = -(-256 // (grid_size - 1))
    n = 2 * (grid_size - 1) * k
    r = max(1, n // _MID_CELLS)
    d = gcd(r, 4 * k, n)  # the rows read only arc indices divisible by d
    xs, ys = _quarter_turn_lattice(p, n, d)
    lo, hi = 2 * n // d, 3 * n // d
    # the lemma's direction, chosen by the same test as min_chord's end
    increasing = p <= 2.0
    drops = [
        _largest_drop(_lattice_chords(p, xs, ys, lo, hi, r // d, s), increasing)
        for s in range(4 * k // d, 4 * k * grid_size // d, 4 * k // d)
    ]
    curve = [chord for _, chord in min_chord_curve(p, grid_size)]
    drops.append(_largest_drop(curve))
    worst = _max_or_nan(drops)
    return MonotonicityReport(Direction.INCREASING, worst, worst <= tol)


def _lattice_chords(
    p: float, xs: list[float], ys: list[float], lo: int, hi: int, r: int, s: int
) -> list[float]:
    # The l_p norms of (xs[i + s] - xs[i - s], ys[i + s] - ys[i - s]) for
    # the midpoints i in range(lo, hi, r) and i = hi: one arc length of the
    # lattice, read as four strided slices with the end point appended to
    # each.  p = 2 maps hypot over the differences (a comprehension is
    # slower there); every other branch is one comprehension over the slices
    # that forms them inline.  Each is lp_norm bit for bit: hypot takes
    # absolute values itself and is symmetric, a float sum is commutative,
    # and p = inf and a generic p take the larger component as a (a == b
    # gives the same value either way round, and a zero vector gives 0.0).
    x_up, x_down = xs[lo + s : hi + s : r], xs[lo - s : hi - s : r]
    y_up, y_down = ys[lo + s : hi + s : r], ys[lo - s : hi - s : r]
    x_up.append(xs[hi + s])
    x_down.append(xs[hi - s])
    y_up.append(ys[hi + s])
    y_down.append(ys[hi - s])
    if p == 2.0:
        return list(map(hypot, map(sub, x_up, x_down), map(sub, y_up, y_down)))
    ends = zip(x_up, x_down, y_up, y_down)
    if p == INF:
        return [
            a if (a := abs(xu - xd)) > (b := abs(yu - yd)) else b
            for xu, xd, yu, yd in ends
        ]
    if p == 1.0:
        return [abs(xu - xd) + abs(yu - yd) for xu, xd, yu, yd in ends]
    inv = 1.0 / p
    return [
        a * (1.0 + (b / a) ** p) ** inv
        if (a := abs(xu - xd)) > (b := abs(yu - yd))
        else b * (1.0 + (a / b) ** p) ** inv
        if b
        else 0.0
        for xu, xd, yu, yd in ends
    ]


def _largest_drop(values: list[float], increasing: bool = True) -> float:
    # The largest step of values against the given direction, or 0.0; NaN if
    # a value is not finite (chords are at most 2: the sum is finite iff all are).
    # Past the all() test some step has a > b, so the largest a - b is positive.
    if not isfinite(sum(values)):
        return nan
    a, b = (values, values[1:]) if increasing else (values[1:], values)
    if all(map(le, a, b)):
        return 0.0
    return max(map(sub, a, b))


def _max_or_nan(values: list[float]) -> float:
    # max(values), or NaN if one of them is NaN: max alone skips a NaN that
    # is not first, and a NaN must fail a check (NaN <= tol is false).  The
    # sum is NaN iff a value is NaN or both inf and -inf occur, which also
    # fails; it costs a third of an isnan pass.
    total = sum(values)
    return total if total != total else max(values)


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
    violation (direction INCREASING by convention).  A NaN chord makes the
    violation NaN and fails the check.
    """
    p = validate_p(p)
    if grid_size < 64:
        raise DomainError(f"grid must have at least 64 points, got {grid_size}")
    if arc_len is None:
        arc_len = worst_case_params(p).explored
    values = [chord for _, chord in tangential_chord_profile(p, arc_len, grid_size)]
    if p == 2.0:
        worst = _max_or_nan(values) - min(values)
        direction = Direction.INCREASING
    else:
        direction = Direction.INCREASING if p < 2.0 else Direction.DECREASING
        worst = _largest_drop(values, p < 2.0)
    return MonotonicityReport(direction, worst, worst <= tol)
