"""Geometry of the unit circle of the l_p norm on the plane.

The norm parameter ``p`` is an ordinary float in [1, inf]; ``math.inf``
selects the max norm, whose unit circle is the square [-1, 1]^2.  The unit
circle C_p is parametrized two ways:

* by angle, ``unit_circle_point(p, phi)`` = (cos(phi), sin(phi)) scaled onto
  C_p (the generalized sine/cosine construction), and
* by an algebraic chart, ``chart_point(p, s)`` = (-s, (1 - |s|^p)^(1/p)),
  which covers the upper half of C_p for s in [-1, 1].

Arc length is measured in the l_p metric itself.  The chart speed diverges
as |s| -> 1, so every integral here is folded into the chart segment
s in [0, 2^(-1/p)] using the reflection symmetries of C_p (the lines y=0,
x=0, y=x, y=-x all map C_p to itself); the singular region is never
evaluated.  Per-p cumulative arc length tables make arc-length evaluation
and inversion cheap enough for dense sweeps.  The module-level caches of
tables and of pi_p hold a fixed number of entries and drop the oldest on
insert.  Rebuilding an entry is deterministic and inserts take a lock, so
the caches are safe under concurrent use.
"""
from __future__ import annotations

import bisect
import math
import threading
import warnings
from dataclasses import dataclass
from typing import NamedTuple

from .numerics import Tolerance, _gk15, integrate_adaptive

__all__ = [
    "INF",
    "DomainError",
    "Point2",
    "CirclePoint",
    "ArcSpec",
    "validate_p",
    "lp_norm",
    "unit_circle_point",
    "chart_point",
    "chart_speed",
    "half_perimeter",
    "arc_length",
    "point_at_arc_length",
    "arc_distance",
    "chord_length",
]

INF = math.inf
TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi
QUARTER_PI = 0.25 * math.pi

# Quadrature used for one-shot arc integrals (perimeter, explored measures).
_QUAD_TOL = Tolerance(abs_tol=1e-12, rel_tol=1e-12, max_iter=60)

_LARGE_P_WARN = 50.0


class DomainError(ValueError):
    """An argument lies outside the documented domain of an operation."""


class Point2(NamedTuple):
    x: float
    y: float


class CirclePoint(NamedTuple):
    """A point of C_p together with its angle parameter in [0, 2*pi)."""

    phi: float
    point: Point2


@dataclass(frozen=True)
class ArcSpec:
    """A counter-clockwise arc of C_p: start angle plus arc length >= 0."""

    p: float
    start_phi: float
    length: float

    def midpoint(self) -> "CirclePoint":
        return point_at_arc_length(self.p, self.start_phi, 0.5 * self.length)

    def tangential_angle(self) -> float:
        """Angle of the arc midpoint, in [0, 2*pi)."""
        return self.midpoint().phi


def validate_p(p: float) -> float:
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise DomainError(f"norm parameter must be >= 1 (or inf), got {p}")
    if _LARGE_P_WARN < p < INF:
        warnings.warn(
            f"p={p} is beyond the well-conditioned range (p <= {_LARGE_P_WARN}); "
            "results may lose precision",
            stacklevel=2,
        )
    return p


def lp_norm(p: float, v: Point2) -> float:
    """l_p norm of a plane vector; p = inf gives max(|x|, |y|)."""
    ax = abs(v[0])
    ay = abs(v[1])
    if math.isinf(p):
        return ax if ax > ay else ay
    if p == 1.0:
        return ax + ay
    if p == 2.0:
        return math.hypot(ax, ay)
    m = ax if ax > ay else ay
    if m == 0.0:
        return 0.0
    return m * ((ax / m) ** p + (ay / m) ** p) ** (1.0 / p)


def _angular_scale(p: float, phi: float) -> float:
    # N_p(phi) = (|sin phi|^p + |cos phi|^p)^(1/p), max norm for p = inf.
    s = abs(math.sin(phi))
    c = abs(math.cos(phi))
    if math.isinf(p):
        return s if s > c else c
    if p == 1.0:
        return s + c
    m = s if s > c else c
    return m * ((s / m) ** p + (c / m) ** p) ** (1.0 / p)


def unit_circle_point(p: float, phi: float) -> CirclePoint:
    """Point of C_p on the ray of angle phi (angle reduced mod 2*pi)."""
    p = validate_p(p)
    phi = _reduce_angle(phi)
    n = _angular_scale(p, phi)
    return CirclePoint(phi, Point2(math.cos(phi) / n, math.sin(phi) / n))


def _ypow(p: float, x: float) -> float:
    # (1 - |x|^p)^(1/p) for |x| <= 1.  For p = inf the upper chart of the
    # square has constant height 1 (corners included, consistently).
    ax = abs(x)
    if math.isinf(p):
        return 1.0
    if p == 1.0:
        return 1.0 - ax
    if ax == 0.0:
        return 1.0
    if ax >= 1.0:
        return 0.0
    omxp = -math.expm1(p * math.log(ax))  # 1 - x^p, accurate near x = 1
    return math.exp(math.log(omxp) / p)


def chart_point(p: float, s: float) -> Point2:
    """Upper-half chart (-s, (1 - |s|^p)^(1/p)) for s in [-1, 1], finite p."""
    p = validate_p(p)
    if math.isinf(p):
        raise DomainError("the algebraic chart is defined for finite p")
    if not -1.0 <= s <= 1.0:
        raise DomainError(f"chart coordinate must lie in [-1, 1], got {s}")
    return Point2(-s, _ypow(p, s))


def _speed(p: float, z: float) -> float:
    # Unchecked core of chart_speed; p already validated, z in [0, 1).
    if p == 1.0:
        return 2.0
    if math.isinf(p):
        return 1.0
    if z == 0.0:
        return 1.0
    lz = math.log(z)
    omzp = -math.expm1(p * lz)  # 1 - z^p
    lg = (p * p - p) * lz + (1.0 - p) * math.log(omzp)
    # log(1 + exp(lg)) without overflow
    if lg > 0.0:
        soft = lg + math.log1p(math.exp(-lg))
    else:
        soft = math.log1p(math.exp(lg))
    return math.exp(soft / p)


def chart_speed(p: float, z: float) -> float:
    """l_p speed of the chart at z in [0, 1): (z^(p^2-p) (1-z^p)^(1-p) + 1)^(1/p).

    Constant 2 for p = 1 (the diamond) and constant 1 for p = inf (the
    square).  Evaluated in log space so that large p cannot overflow.
    """
    p = validate_p(p)
    if not 0.0 <= z < 1.0:
        if z == 1.0 and (p == 1.0 or math.isinf(p)):
            return 2.0 if p == 1.0 else 1.0
        raise DomainError(f"chart speed needs z in [0, 1), got {z}")
    return _speed(p, z)


def _fold_limit(p: float) -> float:
    # Chart coordinate of the diagonal point rho_p(pi/4); integrals are
    # confined to [0, fold_limit] where the speed stays in [1, 2^(1/p)].
    if p == 1.0:
        return 0.5
    if math.isinf(p):
        return 1.0
    return 2.0 ** (-1.0 / p)


def _quarter_arc_integral(p: float, upper: float) -> float:
    """Arc length of the chart from 0 to ``upper`` <= fold limit, one shot."""
    if upper <= 0.0:
        return 0.0
    if p == 1.0:
        return 2.0 * upper
    if math.isinf(p):
        return upper
    return integrate_adaptive(lambda z: _speed(p, z), 0.0, upper, _QUAD_TOL)


# Per-p caches, bounded.  A chart table holds about 196 KiB; 16 of them
# cover a sweep that cycles through a handful of p without rebuilding.
_CHART_CACHE_SIZE = 16
_PERIMETER_CACHE_SIZE = 1024
_CACHE_LOCK = threading.Lock()


def _remember(cache: dict, size: int, p: float, value) -> None:
    # Insert, dropping the oldest entry (dicts keep insertion order) when
    # the cache is full.  The lock keeps concurrent inserts from evicting
    # twice or iterating a dict that another thread is changing; a lookup
    # needs no lock.
    with _CACHE_LOCK:
        if p not in cache and len(cache) >= size:
            del cache[next(iter(cache))]
        cache[p] = value


_PERIMETER_CACHE: dict[float, float] = {}


def half_perimeter(p: float, *, checked: bool = False) -> float:
    """pi_p, half the l_p perimeter of C_p.  pi_1 = pi_inf = 4, pi_2 = pi.

    ``checked=True`` is for callers that have already passed p through
    :func:`validate_p`: it skips the check and so does not repeat the
    precision warning.
    """
    if not checked:
        p = validate_p(p)
    if p == 1.0 or math.isinf(p):
        return 4.0
    cached = _PERIMETER_CACHE.get(p)
    if cached is None:
        cached = 4.0 * _quarter_arc_integral(p, _fold_limit(p))
        _remember(_PERIMETER_CACHE, _PERIMETER_CACHE_SIZE, p, cached)
    return cached


def _smoothstep(u: float) -> float:
    return u * u * u * (10.0 - 15.0 * u + 6.0 * u * u)


class _Chart:
    """Cumulative arc length table on the folded chart segment [0, X].

    Nodes cluster at both ends of the segment (the only places the speed has
    limited smoothness), exact speeds serve as Hermite slopes, and each cell
    integral comes from a single Gauss-Kronrod panel.  ``eighth`` is the arc
    length of one eighth of C_p, i.e. pi_p / 4.
    """

    N_CELLS = 2048

    __slots__ = ("p", "fold", "xs", "vs", "lam", "eighth")

    def __init__(self, p: float):
        self.p = p
        self.fold = _fold_limit(p)
        n = self.N_CELLS
        xs = [self.fold * _smoothstep(i / n) for i in range(n + 1)]
        xs[n] = self.fold
        vs = [_speed(p, x) for x in xs]
        lam = [0.0] * (n + 1)
        acc = 0.0
        speed = lambda z: _speed(p, z)
        for i in range(n):
            acc += _gk15(speed, xs[i], xs[i + 1])[0]
            lam[i + 1] = acc
        self.xs = xs
        self.vs = vs
        self.lam = lam
        self.eighth = acc

    def _hermite(self, i: int, x: float) -> float:
        x0 = self.xs[i]
        h = self.xs[i + 1] - x0
        t = (x - x0) / h
        t2 = t * t
        t3 = t2 * t
        return (
            self.lam[i] * (2.0 * t3 - 3.0 * t2 + 1.0)
            + self.lam[i + 1] * (3.0 * t2 - 2.0 * t3)
            + h * (self.vs[i] * (t3 - 2.0 * t2 + t) + self.vs[i + 1] * (t3 - t2))
        )

    def arc(self, x: float) -> float:
        """H(x): arc length from the chart origin to x in [0, fold]."""
        if x <= 0.0:
            return 0.0
        if x >= self.fold:
            return self.eighth
        i = bisect.bisect_right(self.xs, x) - 1
        if i >= self.N_CELLS:
            i = self.N_CELLS - 1
        return self._hermite(i, x)

    def x_at(self, target: float) -> float:
        """Inverse of :meth:`arc`, solved per cell with safeguarded Newton."""
        if target <= 0.0:
            return 0.0
        if target >= self.eighth:
            return self.fold
        i = bisect.bisect_right(self.lam, target) - 1
        if i >= self.N_CELLS:
            i = self.N_CELLS - 1
        x0 = self.xs[i]
        x1 = self.xs[i + 1]
        h = x1 - x0
        l0 = self.lam[i]
        l1 = self.lam[i + 1]
        v0 = self.vs[i]
        v1 = self.vs[i + 1]
        t = (target - l0) / (l1 - l0)
        tlo, thi = 0.0, 1.0
        for _ in range(64):
            t2 = t * t
            t3 = t2 * t
            val = (
                l0 * (2.0 * t3 - 3.0 * t2 + 1.0)
                + l1 * (3.0 * t2 - 2.0 * t3)
                + h * (v0 * (t3 - 2.0 * t2 + t) + v1 * (t3 - t2))
                - target
            )
            if abs(val) <= 4e-16 * self.eighth:
                break
            if val > 0.0:
                thi = t
            else:
                tlo = t
            # derivative with respect to t (equals h * interpolated speed > 0)
            dh_dt = (
                l0 * (6.0 * t2 - 6.0 * t)
                + l1 * (6.0 * t - 6.0 * t2)
                + h * (v0 * (3.0 * t2 - 4.0 * t + 1.0) + v1 * (3.0 * t2 - 2.0 * t))
            )
            tn = t - val / dh_dt if dh_dt > 0.0 else 0.5 * (tlo + thi)
            if not tlo < tn < thi:
                tn = 0.5 * (tlo + thi)
            if tn == t:
                break
            t = tn
        return x0 + h * t


_CHART_CACHE: dict[float, _Chart] = {}


def _chart(p: float) -> _Chart:
    ch = _CHART_CACHE.get(p)
    if ch is None:
        ch = _Chart(p)
        _remember(_CHART_CACHE, _CHART_CACHE_SIZE, p, ch)
    return ch


def _sin_scaled(p: float, t: float) -> float:
    # sin_p(t) for t in [0, pi/4]; lands in [0, fold limit].
    return math.sin(t) / _angular_scale(p, t)


def _cos_scaled(p: float, t: float) -> float:
    return math.cos(t) / _angular_scale(p, t)


def _arc_from_zero(p: float, phi: float) -> float:
    """Arc length along C_p from angle 0 to angle phi in [0, 2*pi)."""
    ch = _chart(p)
    k = int(phi / HALF_PI)
    if k > 3:
        k = 3
    t = phi - k * HALF_PI
    if t <= QUARTER_PI:
        lam_q = ch.arc(min(_sin_scaled(p, t), ch.fold))
    else:
        lam_q = 2.0 * ch.eighth - ch.arc(min(_cos_scaled(p, t), ch.fold))
    return k * 2.0 * ch.eighth + lam_q


def _point_at_arc_from_zero(p: float, lam: float) -> CirclePoint:
    """Point of C_p at arc length ``lam`` (counter-clockwise from (1, 0))."""
    ch = _chart(p)
    total = 8.0 * ch.eighth
    lam = math.fmod(lam, total)
    if lam < 0.0:
        lam += total
    quadrant = 2.0 * ch.eighth
    k = int(lam / quadrant)
    if k > 3:
        k = 3
    rem = lam - k * quadrant
    if rem <= ch.eighth:
        x = ch.x_at(rem)
        bx, by = _ypow(p, x), x
    else:
        x = ch.x_at(quadrant - rem)
        bx, by = x, _ypow(p, x)
    if k == 0:
        px, py = bx, by
    elif k == 1:
        px, py = -by, bx
    elif k == 2:
        px, py = -bx, -by
    else:
        px, py = by, -bx
    phi = math.atan2(py, px)
    if phi < 0.0:
        phi += TWO_PI
    if phi >= TWO_PI:
        phi = 0.0
    return CirclePoint(phi, Point2(px, py))


def _reduce_angle(phi: float) -> float:
    phi = math.fmod(phi, TWO_PI)
    if phi < 0.0:
        phi += TWO_PI
    if phi >= TWO_PI:  # adding 2*pi to a tiny negative can round up to 2*pi
        phi = 0.0
    return phi


def arc_length(p: float, phi1: float, phi2: float) -> float:
    """Measure of the counter-clockwise arc from rho_p(phi1) to rho_p(phi2).

    Requires phi1 <= phi2 <= phi1 + 2*pi; the angles are otherwise free.
    """
    p = validate_p(p)
    if not phi1 <= phi2 <= phi1 + TWO_PI + 1e-12:
        raise DomainError(
            f"need phi1 <= phi2 <= phi1 + 2*pi, got phi1={phi1}, phi2={phi2}"
        )
    span = min(phi2 - phi1, TWO_PI)
    ch = _chart(p)
    total = 8.0 * ch.eighth
    if span >= TWO_PI:
        return total
    start = _reduce_angle(phi1)
    lam1 = _arc_from_zero(p, start)
    end = start + span
    if end < TWO_PI:
        return _arc_from_zero(p, end) - lam1
    return total - lam1 + _arc_from_zero(p, end - TWO_PI)


def point_at_arc_length(p: float, start_phi: float, length: float) -> CirclePoint:
    """The point at counter-clockwise arc distance ``length`` from rho_p(start_phi).

    ``length`` must lie in [0, 2*pi_p].  Round-trips with :func:`arc_length`
    to within 1e-9.
    """
    p = validate_p(p)
    ch = _chart(p)
    total = 8.0 * ch.eighth
    if not -1e-9 <= length <= total + 1e-9:
        raise DomainError(f"arc length {length} outside [0, {total}]")
    lam = _arc_from_zero(p, _reduce_angle(start_phi)) + length
    return _point_at_arc_from_zero(p, lam)


def arc_distance(p: float, a: CirclePoint, b: CirclePoint) -> float:
    """The smaller of the two arc lengths separating a and b; lies in [0, pi_p]."""
    p = validate_p(p)
    ch = _chart(p)
    total = 8.0 * ch.eighth
    la = _arc_from_zero(p, _reduce_angle(a.phi))
    lb = _arc_from_zero(p, _reduce_angle(b.phi))
    d = math.fmod(lb - la, total)
    if d < 0.0:
        d += total
    return min(d, total - d)


def chord_length(p: float, a: Point2, b: Point2) -> float:
    """l_p length of the segment joining two points."""
    return lp_norm(p, Point2(a[0] - b[0], a[1] - b[1]))
