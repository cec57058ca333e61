"""Geometry of the unit circle of the l_p norm on the plane.

The norm parameter ``p`` is an ordinary float in [1, inf]; ``math.inf``
selects the max norm, whose unit circle is the square [-1, 1]^2.  The unit
circle C_p is parametrized two ways:

* by angle, ``unit_circle_point(p, phi)`` = (cos(phi), sin(phi)) scaled onto
  C_p (the generalized sine/cosine construction), and
* by the algebraic chart s -> (-s, (1 - |s|^p)^(1/p)), which covers the
  upper half of C_p for s in [-1, 1] and finite p.

Arc length is measured in the l_p metric itself.  The chart speed diverges
as |s| -> 1, so every integral here is folded into the chart segment
s in [0, 2^(-1/p)] using the reflection symmetries of C_p (the lines y=0,
x=0, y=x, y=-x all map C_p to itself); the singular region is never
evaluated.  Every arc length is read from a per-p chart of H, the arc
length from 0 on that segment: it cuts the segment into a few to a few
dozen panels, each carrying the Chebyshev series of the integral of the
speed, so evaluating H is one Clenshaw sum and inverting it a few Newton
steps.  The adaptive quadrature computes one number, pi_p, independently of
the chart: one integral whose panels start cut at break points on the two
layers where the speed is not smooth, its rise to the fold and, below
p = 2, its power law at z = 0.  Both evaluate the speed a panel at a time:
``_speeds`` is its one formula, taking a whole GK15 or Chebyshev panel of
points per call, and ``_speed`` is its one-point view, for the chart's
Newton slopes.  The module-level caches of charts and of pi_p each hold
the one p in use: every command finishes one p before it starts the next,
so a second entry would not be read again.  Rebuilding an entry is
deterministic and inserts take a lock, so the caches are safe under
concurrent use.
"""
from __future__ import annotations

import bisect
import math
import threading
from functools import partial
from operator import mul
from typing import NamedTuple, Sequence

from .numerics import _EPS, Tolerance, integrate_adaptive

__all__ = [
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
]

INF = math.inf
TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi
QUARTER_PI = 0.25 * math.pi

# Quadrature of pi_p, the independent check of the chart.
_QUAD_TOL = Tolerance(abs_tol=1e-12, rel_tol=1e-12, max_iter=60)


class DomainError(ValueError):
    """An argument lies outside the documented domain of an operation."""


class Point2(NamedTuple):
    x: float
    y: float


class CirclePoint(NamedTuple):
    """A point of C_p together with its angle parameter in [0, 2*pi)."""

    phi: float
    point: Point2


def validate_p(p: float) -> float:
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise DomainError(f"norm parameter must be >= 1 (or inf), got {p}")
    return p


def lp_norm(p: float, v: Point2) -> float:
    """l_p norm of a plane vector; p = inf gives max(|x|, |y|)."""
    ax = abs(v[0])
    ay = abs(v[1])
    if ax < ay:
        ax, ay = ay, ax
    if p == INF:
        return ax
    if p == 1.0:
        return ax + ay
    if p == 2.0:
        return math.hypot(ax, ay)
    if ax == 0.0:
        return 0.0
    return ax * (1.0 + (ay / ax) ** p) ** (1.0 / p)


def unit_circle_point(p: float, phi: float) -> CirclePoint:
    """Point of C_p on the ray of angle phi (angle reduced mod 2*pi)."""
    p = validate_p(p)
    phi = _reduce_angle(phi)
    c, s = math.cos(phi), math.sin(phi)
    n = lp_norm(p, (c, s))
    return CirclePoint(phi, Point2(c / n, s / n))


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


def _speeds(p: float, zs: Sequence[float]) -> list[float]:
    """l_p speeds of the chart at the points ``zs`` of [0, 1): the one speed formula.

    The speed is (z^(p^2-p) (1-z^p)^(1-p) + 1)^(1/p), constant 2 for p = 1
    (the diamond) and 1 for p = inf (the square).  With w = z^p it is
    (1 + (w / (1 - w))^(p-1))^(1/p), whose powers cannot overflow while
    w <= 1/2.  Callers stay on the folded segment, but the rounded fold can
    have w > 1/2 (0.500017 at p = 1e12, 0.574 at 5e15), and from about
    p = 2.6e9 that form can overflow there; so w > 1/2 takes log space.  One
    call serves a whole GK15 or Chebyshev panel, so what depends on p alone
    is worked out once per panel; each value is the float a one-point call
    gives.  Unchecked: p must be valid and every z in [0, 1).
    """
    if p == INF:
        return [1.0] * len(zs)
    pm1 = p - 1.0
    inv_p = 1.0 / p
    out = []
    for z in zs:
        w = z**p
        if w <= 0.5:
            out.append((1.0 + (w / (1.0 - w)) ** pm1) ** inv_p)
            continue
        lz = math.log(z)
        omzp = -math.expm1(p * lz)  # 1 - z^p
        # lg = log((w / (1 - w))^(p-1)) >= 0 as w > 1/2, so this soft-plus
        # log(1 + exp(lg)) cannot overflow (ln 2 at a rounded lg = 0)
        lg = (p * p - p) * lz + (1.0 - p) * math.log(omzp)
        out.append(math.exp((lg + math.log1p(math.exp(-lg))) / p))
    return out


def _speed(p: float, z: float) -> float:
    """The chart speed at one z: the one-point view of :func:`_speeds`.

    For the Newton slopes of :meth:`_Chart.x_at`, which take one value at a
    time.
    """
    return _speeds(p, (z,))[0]


def _fold_limit(p: float) -> float:
    # Chart coordinate of the diagonal point rho_p(pi/4); integrals are
    # confined to [0, fold_limit] where the speed stays in [1, 2^(1/p)].
    # Exact at both ends: 0.5 at p = 1 and 1.0 at p = inf.
    return 2.0 ** (-1.0 / p)


def _knee(p: float) -> float:
    # For large p the speed rises from 1 to 2^(1/p) within about 1/(2 p^2) of
    # the fold; the chart and pi_p's integral (t = 40 in _RISE_T) break here.
    return _fold_limit(p) * math.exp(-40.0 / (p * p))


# Break points of pi_p's quadrature in the speed's rise to the fold, at
# z = fold e^(-t/p^2), by the largest p a row serves.  In t the speed is about
# (1 + e^(-2t))^(1/p), singular at t = +-i pi/2, so GK15 wants panels that
# widen geometrically in t away from the fold; t = 40 is the knee.  The rise
# adds about 1/p^3 to the integral, so fewer points suffice as p grows, and up
# to p = 4 it fills the segment.  Each row is the fewest panels found on the
# benchmark's p lattice that keep pi_p within a few ulp of mpmath; above
# p = 9000 the knee alone is within 9e-16.
_RISE_T = ((4.0, (16.0, 5.4, 2.0)), (25.0, (40.0, 13.0, 5.4, 2.2)), (250.0, (40.0, 9.0, 2.1)),
           (9000.0, (40.0, 5.0)), (INF, (40.0,)))


def _quarter_arc_integral(p: float) -> float:
    """pi_p / 4, the arc length of the folded chart segment, for finite p > 1.

    One adaptive quadrature, first cut on the two layers where the speed is
    not smooth: its rise to the fold (``_RISE_T``) and, below p = 2, z = 0,
    where it grows like z^a, a = p (p - 1).  GK15's error on a panel [0, h]
    is then about a (h / 8^4.5)^(1 + a) (fitted); the points fold * 8^-k,
    k = 1 .. K, shrink h until that is 8^-18.5 = 2e-17.
    """
    fold = _fold_limit(p)
    rise = next(ts for bound, ts in _RISE_T if p <= bound)
    points = [fold * math.exp(-t / (p * p)) for t in rise]
    if p < 2.0:
        a = p * (p - 1.0)
        levels = math.ceil((18.5 + math.log(a, 8.0)) / (1.0 + a) - 4.5)
        points += [fold * 8.0**-k for k in range(1, levels + 1)]
    return integrate_adaptive(partial(_speeds, p), 0.0, fold, _QUAD_TOL, points)


# Per-p caches of one entry each, the p in use.
_CACHE_LOCK = threading.Lock()


def _remember(cache: dict, p: float, value) -> None:
    # Replace the entry.  The lock keeps two concurrent inserts from leaving
    # two entries; a lookup needs no lock.
    with _CACHE_LOCK:
        cache.clear()
        cache[p] = value


_PERIMETER_CACHE: dict[float, float] = {}


def half_perimeter(p: float) -> float:
    """pi_p, half the l_p perimeter of C_p.  pi_1 = pi_inf = 4, pi_2 = pi."""
    p = validate_p(p)
    if p == 1.0 or math.isinf(p):
        return 4.0
    cached = _PERIMETER_CACHE.get(p)
    if cached is None:
        cached = 4.0 * _quarter_arc_integral(p)
        _remember(_PERIMETER_CACHE, p, cached)
    return cached


# Chebyshev panels of the chart.  A panel samples the speed at the _DEG + 1
# Chebyshev-Lobatto nodes cos(pi j / _DEG), j = 0 .. _DEG, of its interval
# mapped onto [-1, 1]; row k of _DCT turns those samples into the
# coefficient of T_k of the interpolating series.
_DEG = 16
_NODES = tuple(math.cos(math.pi * j / _DEG) for j in range(_DEG + 1))
_DCT = tuple(
    tuple(
        (0.5 if k in (0, _DEG) else 1.0)
        * (0.5 if j in (0, _DEG) else 1.0)
        * (2.0 / _DEG)
        * math.cos(math.pi * (j * k % (2 * _DEG)) / _DEG)
        for j in range(_DEG + 1)
    )
    for k in range(_DEG + 1)
)
# A panel is resolved when its last two coefficients times its width, a
# bound on its error in H, fall below this fraction of the fold.
_TAIL_TOL = 1e-15


def _speed_series(p: float, a: float, b: float, fold: float):
    """Chebyshev coefficients of the speed on [a, b], or None if unresolved.

    The tail test has a rounding floor: where the speed is steep in ulps
    of z (large p, near the fold), rounding the nodes alone perturbs the
    samples by about eps * b * |slope|, and no bisection gets below that.
    """
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    f = _speeds(p, [b, *[mid + half * t for t in _NODES[1:_DEG]], a])
    # Every row but the first sums to zero, so subtracting f[0] changes no
    # coefficient mathematically and makes a constant speed exact.
    f0 = f[0]
    d = [v - f0 for v in f]
    tail = max(abs(sum(map(mul, _DCT[_DEG - 1], d))), abs(sum(map(mul, _DCT[_DEG], d))))
    floor = 8.0 * _EPS * b * abs(f0 - f[_DEG]) / (b - a)
    if tail > max(_TAIL_TOL * fold / (b - a), floor):
        return None
    c = [sum(map(mul, row, d)) for row in _DCT]
    c[0] += f0
    return c


def _clenshaw(coef_desc, t: float) -> float:
    # Sum of c_k T_k(t), coefficients given from the highest degree down.
    t2 = t + t
    b1 = b2 = 0.0
    for ck in coef_desc:
        b1, b2 = ck + t2 * b1 - b2, b1
    return b1 - t * b2


class _Chart:
    """Arc length H on the folded chart segment [0, fold], in Chebyshev panels.

    The build bisects [0, fold] until the Chebyshev series of the speed on
    each panel is resolved (see :func:`_speed_series`) and integrates each
    series once, so ``arc`` is a bisection over the panel ends and one
    Clenshaw sum of the panel's antiderivative, and ``x_at`` is Newton on
    that sum with the exact speed as the slope.  The knee is a break point
    for 4 < p < inf.  For p (p - 1) < 1 the speed behaves like z^(p^2 - p)
    at 0 and the panels are graded toward z = 0: a panel is split at the
    geometric mean of its ends, the first one at 1/16 of its width.
    ``xs`` holds the panel ends, ``lam`` the values of H there; ``eighth``,
    the last of them, is the arc length of one eighth of C_p, i.e. pi_p / 4.

    Where the fold 2^(-1/p) rounds to 1 (p above ln 2 * 2^54, about
    1.25e16) the speed and the height are singular at the fold end, while
    every double-precision chart quantity equals the square's.  The chart
    is then built for p = inf and ``p`` holds inf, so the height of a chart
    point is ``_ypow(chart.p, x)``.
    """

    __slots__ = ("p", "fold", "xs", "lam", "panels", "eighth")

    def __init__(self, p: float):
        self.fold = fold = _fold_limit(p)
        if fold == 1.0:
            p = INF
        self.p = p
        graded = p * (p - 1.0) < 1.0
        knee = _knee(p)
        todo = [(0.0, fold)]
        if p > 4.0 and knee < fold:  # the knee rounds to the fold at p = inf
            todo = [(knee, fold), (0.0, knee)]
        xs = [0.0]
        lam = [0.0]
        panels = []
        while todo:
            a, b = todo.pop()
            c = _speed_series(p, a, b, fold)
            if c is None:
                if not graded:
                    s = 0.5 * (a + b)
                else:
                    s = math.sqrt(a * b) if a > 0.0 else b / 16.0
                todo += [(s, b), (a, s)]
                continue
            # Coefficients of the integral from a, in x: T_k integrates to
            # T_(k+1) / (2 (k+1)) - T_(k-1) / (2 (k-1)), and dx = half dt.
            half = 0.5 * (b - a)
            speed_a = sum(c[0::2]) - sum(c[1::2])
            speed_b = sum(c)
            c += [0.0, 0.0]
            anti = [0.0, half * (c[0] - 0.5 * c[2])]
            anti += [half * (c[k - 1] - c[k + 1]) / (2 * k) for k in range(2, _DEG + 2)]
            odd = sum(anti[1::2])
            anti[0] = odd - sum(anti[2::2])  # zero at t = -1
            width = 2.0 * odd
            lam.append(lam[-1] + width)
            # Terms below 1/64 ulp of H change no sum; drop them from the top.
            while len(anti) > 2 and abs(anti[-1]) <= _EPS * lam[-1] / 64.0:
                anti.pop()
            # x_at starts from the cubic Hermite inverse of H on the panel;
            # its end slopes relative to the chord are mean speed / speed.
            mean = width / (b - a)
            panels.append((a, half, mean / speed_a - 1.0, mean / speed_b - 1.0, anti[::-1]))
            xs.append(b)
        self.xs = xs
        self.lam = lam
        self.panels = panels
        self.eighth = lam[-1]

    def arc(self, x: float) -> float:
        """H(x): arc length from the chart origin to x in [0, fold]."""
        if x <= 0.0:
            return 0.0
        if x >= self.fold:
            return self.eighth
        i = bisect.bisect_right(self.xs, x) - 1
        a, half, _, _, coef = self.panels[i]
        return self.lam[i] + _clenshaw(coef, (x - a) / half - 1.0)

    def x_at(self, target: float) -> float:
        """Inverse of :meth:`arc`: safeguarded Newton on one panel's series."""
        if target <= 0.0:
            return 0.0
        if target >= self.eighth:
            return self.fold
        i = bisect.bisect_right(self.lam, target) - 1
        a, half, bend_a, bend_b, coef = self.panels[i]
        want = target - self.lam[i]
        s = want / (self.lam[i + 1] - self.lam[i])
        t = 2.0 * (s + s * (1.0 - s) * (bend_a * (1.0 - s) - bend_b * s)) - 1.0
        tlo, thi = -1.0, 1.0
        prev = 0.0
        for _ in range(64):
            val = _clenshaw(coef, t) - want
            if val > 0.0:
                thi = t
            elif val < 0.0:
                tlo = t
            else:
                break
            tn = t - val / (half * _speed(self.p, a + half * (t + 1.0)))
            # Stop on the step, not on the residual, which would chase
            # rounding noise.  Newton converges quadratically, so a step d
            # after a Newton step prev leaves about d^3 / prev^2: stop once
            # that is below eps too.
            step = abs(tn - t)
            if step <= 4.0 * _EPS:
                break  # t stays in the bracket; tn is t up to rounding
            if tlo < tn < thi:
                if step * step * step <= _EPS * prev * prev:
                    t = tn
                    break
                prev = step
            else:
                if thi - tlo <= 4.0 * _EPS:
                    break
                tn = 0.5 * (tlo + thi)
                prev = 0.0
            t = tn
        return a + half * (t + 1.0)


_CHART_CACHE: dict[float, _Chart] = {}


def _chart(p: float) -> _Chart:
    ch = _CHART_CACHE.get(p)
    if ch is None:
        ch = _Chart(p)
        _remember(_CHART_CACHE, p, ch)
    return ch


def _arc_from_zero(p: float, phi: float) -> float:
    """Arc length along C_p from angle 0 to angle phi (reduced mod 2*pi).

    k quarter turns and the signed arc to the exact remainder t = phi - k pi/2
    in [-pi/4, pi/4], read from the chart at |y|; t = phi on [0, pi/4]."""
    phi = _reduce_angle(phi)
    ch = _chart(p)
    t = math.remainder(phi, HALF_PI)
    c, s = math.cos(t), math.sin(t)
    lam_q = ch.arc(min(abs(s) / lp_norm(p, (c, s)), ch.fold))
    return round((phi - t) / HALF_PI) * 2.0 * ch.eighth + math.copysign(lam_q, t)


def _point_at_arc_from_zero(p: float, lam: float) -> Point2:
    """Point of C_p at arc length ``lam`` (counter-clockwise from (1, 0)).

    The point at the exact remainder rem = lam - 2 k eighth in [-eighth, eighth],
    with y < 0 for rem < 0, turned k times by (x, y) -> (-y, x): -lam mirrors lam."""
    ch = _chart(p)
    quadrant = 2.0 * ch.eighth
    rem = math.remainder(lam, quadrant)
    y = ch.x_at(abs(rem))
    x = _ypow(ch.p, y)
    if rem < 0.0:
        y = -y
    for _ in range(round((lam - rem) / quadrant) % 4):
        x, y = -y, x
    return Point2(x, y)


def _reduce_angle(phi: float) -> float:
    if not math.isfinite(phi):
        raise DomainError(f"angle must be finite, got {phi}")
    phi = math.fmod(phi, TWO_PI)
    if phi < 0.0:
        phi += TWO_PI
    if phi >= TWO_PI:  # adding 2*pi to a tiny negative can round up to 2*pi
        phi = 0.0
    return phi


def point_at_arc_length(p: float, start_phi: float, length: float) -> CirclePoint:
    """The point at counter-clockwise arc distance ``length`` from rho_p(start_phi).

    ``length`` must lie in [0, 2*pi_p].  Round-trips with
    :func:`_arc_from_zero` modulo the perimeter, to within 1e-8.
    """
    p = validate_p(p)
    ch = _chart(p)
    total = 8.0 * ch.eighth
    if not -1e-9 <= length <= total + 1e-9:
        raise DomainError(f"arc length {length} outside [0, {total}]")
    x, y = pt = _point_at_arc_from_zero(p, _arc_from_zero(p, start_phi) + length)
    return CirclePoint(_reduce_angle(math.atan2(y, x)), pt)


def chord_length(p: float, a: Point2, b: Point2) -> float:
    """l_p length of the segment joining two points."""
    return lp_norm(p, Point2(a[0] - b[0], a[1] - b[1]))
