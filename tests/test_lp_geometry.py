import math
import random
import warnings
from functools import partial

import pytest
from hypothesis import given, strategies as st

from lpevac import (
    INF,
    DomainError,
    Point2,
    chord_length,
    half_perimeter,
    lp_norm,
    point_at_arc_length,
    unit_circle_point,
    validate_p,
)
from lpevac import lp_geometry, numerics
from lpevac.lp_geometry import (
    _QUAD_TOL,
    _Chart,
    _arc_from_zero,
    _chart,
    _fold_limit,
    _knee,
    _point_at_arc_from_zero,
    _speed,
    _speeds,
    _ypow,
)
from lpevac.numerics import integrate_adaptive

P_PALETTE = [1.0, 1.1, 1.3, 1.5, 2.0, 2.5, 3.0, 7.5, 20.0, INF]
TWO_PI = 2.0 * math.pi


def test_validate_p_rejects_below_one():
    with pytest.raises(DomainError):
        validate_p(0.99)
    with pytest.raises(DomainError):
        validate_p(float("nan"))


def test_validate_p_accepts_large_finite_p_silently():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert validate_p(120.0) == 120.0


class TestNorm:
    def test_euclidean_345(self):
        assert lp_norm(2.0, Point2(3.0, 4.0)) == pytest.approx(5.0, abs=1e-15)

    def test_l1_diagonal_point(self):
        assert lp_norm(1.0, Point2(0.5, 0.5)) == 1.0

    def test_max_norm(self):
        assert lp_norm(INF, Point2(1.0, -1.0)) == 1.0

    def test_large_p_no_overflow(self):
        assert lp_norm(800.0, Point2(0.3, -0.7)) == pytest.approx(0.7, rel=1e-3)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.7, 20.0, 1e4, INF])
    def test_matches_max_scaled_formula(self, p):
        # x / x and 1^p are exact and + commutes, so scaling by the larger
        # coordinate alone gives the same bits as scaling both by the max.
        def max_scaled(p, v):
            ax, ay = abs(v[0]), abs(v[1])
            if math.isinf(p):
                return max(ax, ay)
            if p == 1.0:
                return ax + ay
            if p == 2.0:
                return math.hypot(ax, ay)
            m = max(ax, ay)
            if m == 0.0:
                return 0.0
            return m * ((ax / m) ** p + (ay / m) ** p) ** (1.0 / p)

        rng = random.Random(20211)
        vectors = [(0.0, 0.0), (0.0, -3.0), (2.5, 0.0), (0.7, 0.7), (-0.7, 0.7)]
        vectors += [(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)) for _ in range(2000)]
        vectors += [(rng.uniform(-1.0, 1.0), rng.uniform(-1e-6, 1e-6)) for _ in range(500)]
        for v in vectors:
            assert lp_norm(p, Point2(*v)) == max_scaled(p, v), v


class TestUnitCirclePoint:
    @pytest.mark.parametrize("p", P_PALETTE)
    def test_angle_zero(self, p):
        cp = unit_circle_point(p, 0.0)
        assert cp.point == Point2(1.0, 0.0)

    def test_l1_diagonal(self):
        cp = unit_circle_point(1.0, math.pi / 4)
        assert cp.point.x == pytest.approx(0.5, abs=1e-15)
        assert cp.point.y == pytest.approx(0.5, abs=1e-15)

    def test_max_norm_diagonal(self):
        cp = unit_circle_point(INF, math.pi / 4)
        assert cp.point.x == pytest.approx(1.0, abs=1e-15)
        assert cp.point.y == pytest.approx(1.0, abs=1e-15)

    @given(
        p=st.sampled_from(P_PALETTE),
        phi=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    )
    def test_on_circle(self, p, phi):
        cp = unit_circle_point(p, phi)
        assert abs(lp_norm(p, cp.point) - 1.0) <= 1e-9
        assert 0.0 <= cp.phi < TWO_PI


class TestChartPoint:
    """The chart s -> (-s, _ypow(p, s)) of the upper half of C_p."""

    def test_pole(self):
        assert _ypow(2.0, 0.0) == 1.0

    def test_right_edge(self):
        assert _ypow(3.0, -1.0) == 0.0

    def test_euclid_diagonal(self):
        assert _ypow(2.0, -(2.0**-0.5)) == pytest.approx(2.0**-0.5, abs=1e-12)


def _log_space_speed(p, z):
    # The chart speed (z^(p^2-p) (1-z^p)^(1-p) + 1)^(1/p) in log space.  Its
    # soft-plus is the form _speed takes where z^p > 1/2 (lg >= 0), extended
    # to lg < 0, which the rest of the segment reaches, without overflow.
    if z == 0.0:
        return 1.0
    lz = math.log(z)
    lg = (p * p - p) * lz + (1.0 - p) * math.log(-math.expm1(p * lz))
    return math.exp((max(lg, 0.0) + math.log1p(math.exp(-abs(lg)))) / p)


# Speed evaluations of one cold half_perimeter at each p of the mpmath
# fixture, counted as the abscissae passed to _speeds, 15 per GK15 panel.
# They pin the quadrature's break points (on the rise to the fold and, below
# p = 2, toward z = 0) plus the bisection that follows, and that every
# evaluation goes through the one speed formula.
SPEED_EVALS_PER_HALF_PERIMETER = {
    1.001: 375,
    1.0625: 510,
    1.5: 240,
    2.0: 60,
    3.0: 60,
    10.0: 75,
    45.0: 60,
    50.5: 60,
    100.0: 60,
    200.0: 60,
    500.0: 45,
    1000.0: 45,
    10000.0: 30,
}


class TestChartSpeed:
    def test_unit_speed_at_pole_p2(self):
        assert _speed(2.0, 0.0) == 1.0

    # 1.1875: the last z is the rounded fold, where z^p is one ulp above 1/2,
    # so the one panel takes both branches of _speeds.
    @pytest.mark.parametrize("p", [*SPEED_EVALS_PER_HALF_PERIMETER, 1.1875])
    def test_matches_log_space_form_on_the_folded_segment(self, p):
        fold = _fold_limit(p)
        zs = [fold * k / 199 for k in range(200)]
        values = _speeds(p, zs)
        assert len(values) == len(zs)
        for z, value in zip(zs, values):
            ref = _log_space_speed(p, z)
            assert abs(value - ref) <= 4.0 * math.ulp(ref), z
            assert value == _speed(p, z), z

    @pytest.mark.parametrize("p", [3.0, 1e4])
    def test_finite_beyond_the_fold(self, p):
        fold = _fold_limit(p)
        for k in range(1, 51):
            z = fold + (1.0 - fold) * k / 51
            value = _speed(p, z)
            ref = _log_space_speed(p, z)
            assert math.isfinite(value)
            assert abs(value - ref) <= 4.0 * math.ulp(ref), z

    def test_log_space_at_a_rounded_fold_with_zero_exponent(self):
        # The rounded fold at p = 1.1875 has z^p one ulp above 1/2, so _speed
        # takes log space, and there the rounded lg is exactly 0: the
        # soft-plus is ln 2 and the speed 2^(1/p).
        p = 1.1875
        fold = _fold_limit(p)
        assert fold**p == 0.5 + 2.0**-53
        assert _speed(p, fold) == math.exp(math.log(2.0) / p) == _log_space_speed(p, fold)

    def test_square_constant_one_at_the_corner(self):
        # The square's chart is evaluated at its fold z = 1.
        assert _speed(INF, 1.0) == 1.0

    @pytest.mark.parametrize("p, calls", list(SPEED_EVALS_PER_HALF_PERIMETER.items()))
    def test_half_perimeter_speed_evaluations(self, p, calls, monkeypatch):
        count = [0]
        speeds = lp_geometry._speeds

        def counted(p, zs):
            count[0] += len(zs)
            return speeds(p, zs)

        monkeypatch.setattr(lp_geometry, "_speeds", counted)
        monkeypatch.setattr(lp_geometry, "_PERIMETER_CACHE", {})
        half_perimeter(p)
        assert count[0] == calls

    def test_p1_constant_two(self):
        # exponent p^2 - p vanishes, the integrand collapses to 2 on both
        # sides of the fold z = 1/2, with no branch of its own; the
        # quarter-arc cross-check 2 * (1/2) = pi_1 / 4 pins the constant
        for z in (0.0, 0.2, 0.49, 0.5, math.nextafter(0.5, 1.0), 0.9, math.nextafter(1.0, 0.0)):
            assert _speed(1.0, z) == 2.0
        assert 2.0 * 0.5 == half_perimeter(1.0) / 4.0

    def test_matches_finite_difference_of_chart(self):
        # the only check that _speed is the l_p speed of the chart: the
        # mpmath fixture integrates the same formula
        p, z, h = 3.0, 0.5, 1e-5
        dx = (-(z + h) + (z - h)) / (2 * h)
        dy = (_ypow(p, z + h) - _ypow(p, z - h)) / (2 * h)
        assert _speed(p, z) == pytest.approx(lp_norm(p, Point2(dx, dy)), abs=1e-6)


class TestChartInverse:
    @pytest.mark.parametrize("p, i, ulps", [(3.1875, 3, 1), (4.9375, 2, 2)])
    def test_bisection_fallback_a_few_ulps_below_a_panel_end(self, p, i, ulps):
        # Here a Newton step of x_at lands on or past its bracket's end, so
        # it bisects instead; no other test reaches that branch.
        ch = _Chart(p)
        target = ch.lam[i]
        for _ in range(ulps):
            target = math.nextafter(target, 0.0)
        x = ch.x_at(target)
        assert ch.xs[i - 1] <= x <= ch.xs[i]
        assert abs(ch.arc(x) - target) <= 4.4e-16 * ch.eighth


class TestHalfPerimeter:
    def test_extremes_exact(self):
        assert half_perimeter(1.0) == 4.0
        assert half_perimeter(INF) == 4.0

    def test_euclidean(self):
        assert half_perimeter(2.0) == pytest.approx(math.pi, abs=1e-9)

    def test_conjugate_pair(self):
        assert half_perimeter(4.0) == pytest.approx(half_perimeter(4.0 / 3.0), abs=1e-8)

    @pytest.mark.parametrize("p", [1.2, 1.7, 3.0, 9.0, 33.0])
    def test_euclidean_is_smallest(self, p):
        assert half_perimeter(p) >= math.pi - 1e-9
        # away from p=2 the half perimeter sits strictly above pi
        assert half_perimeter(p) - math.pi > 1e-8


# The p of the perimeter_sweep workload's lattice from 2 on (1/32 apart up
# to 45, 1/2 apart up to 1000), plus large p, where the knee nears the fold
# and, from about 8.5e8, rounds to it.
DENSE_P = (
    [1.0 + k / 32 for k in range(32, 1409)]
    + [45.0 + k / 2 for k in range(1, 1911)]
    + [1e4, 1e5, 1e9, 1e15]
)


def _count_gk15(monkeypatch):
    calls = [0]
    gk15 = numerics._gk15

    def counted(f, a, b):
        calls[0] += 1
        return gk15(f, a, b)

    monkeypatch.setattr(numerics, "_gk15", counted)
    return calls


def _head_tail_quarter_arc(p):
    # pi_p / 4 before break points: for p > 4 the integrals over [0, knee]
    # and [knee, fold], each bisected from one panel to its own target.
    speed = partial(lp_geometry._speeds, p)
    fold, knee = _fold_limit(p), _knee(p)
    if p <= 4.0 or fold <= knee:
        return integrate_adaptive(speed, 0.0, fold, _QUAD_TOL, points=())
    head = integrate_adaptive(speed, 0.0, knee, _QUAD_TOL, points=())
    return head + integrate_adaptive(speed, knee, fold, _QUAD_TOL, points=())


class TestHalfPerimeterBreakPoints:
    def test_no_more_panels_than_head_tail_bisection(self, monkeypatch):
        calls = _count_gk15(monkeypatch)
        monkeypatch.setattr(lp_geometry, "_PERIMETER_CACHE", {})
        more = []
        total = [0, 0]
        for p in DENSE_P:
            calls[0] = 0
            _head_tail_quarter_arc(p)
            before = calls[0]
            calls[0] = 0
            lp_geometry._PERIMETER_CACHE.clear()
            half_perimeter(p)
            if calls[0] > before:
                more.append((p, before, calls[0]))
            total[0] += before
            total[1] += calls[0]
        assert more == []
        # 28,129 -> 12,340 on these p (-56%)
        assert total[1] <= 0.5 * total[0]

    def test_agrees_with_the_chart(self):
        # DENSE_P and the 31 lattice p in (1, 2), where the speed grows like
        # z^(p (p - 1)) from z = 0
        ps = DENSE_P + [1.0 + k / 32 for k in range(1, 32)]
        worst = max(abs(half_perimeter(p) - 4.0 * _chart(p).eighth) / half_perimeter(p) for p in ps)
        assert worst <= 1e-15

    @pytest.mark.parametrize("p", [1.001, 1.5, 2.0, 3.0, 4.0, 4.5, 45.0, 1e4, 1e9, 1e15])
    def test_one_quadrature_per_integral(self, p, monkeypatch):
        breaks = []
        integrate = lp_geometry.integrate_adaptive

        def recorded(f, a, b, tol, points=()):
            breaks.append(sorted(x for x in points if a < x < b))
            return integrate(f, a, b, tol, points)

        monkeypatch.setattr(lp_geometry, "integrate_adaptive", recorded)
        monkeypatch.setattr(lp_geometry, "_PERIMETER_CACHE", {})
        half_perimeter(p)
        assert len(breaks) == 1
        # The knee comes first (none where it rounds to the fold, p >= 8.5e8),
        # then the points toward the fold.
        knee = [_knee(p)] if p > 4.0 and _knee(p) < _fold_limit(p) else []
        assert breaks[0][: len(knee)] == knee


class TestArcLength:
    """Arc length from angle 0, measured on the chart."""

    @pytest.mark.parametrize("p", P_PALETTE)
    def test_full_perimeter(self, p):
        assert 8.0 * _chart(p).eighth == pytest.approx(2.0 * half_perimeter(p), abs=1e-8)

    def test_l1_quarter_through_top(self):
        top = _arc_from_zero(1.0, 3 * math.pi / 4) - _arc_from_zero(1.0, math.pi / 4)
        assert top == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("x", [1e-12, 5e-13, 1e-300])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_negative_arc_places_the_mirror_point(self, p, x):
        a = _point_at_arc_from_zero(p, x)
        assert _point_at_arc_from_zero(p, -x) == Point2(a.x, -a.y)

    @pytest.mark.parametrize("p", [1.0, 1.4, 2.0, 5.0, INF])
    def test_eighths_balance(self, p):
        # reflection across y=x maps one eighth onto the other
        first = _arc_from_zero(p, math.pi / 4)
        second = _arc_from_zero(p, math.pi / 2) - first
        assert first == pytest.approx(second, abs=1e-9)


@pytest.mark.parametrize("p", [1.3e16, 1e17])
def test_chart_beyond_fold_rounding_is_the_square(p):
    # 2^(-1/p) rounds to 1 above p = ln 2 * 2^54, about 1.25e16, where the
    # speed and the height are singular at the fold end
    ch = _chart(p)
    assert 4.0 * ch.eighth == pytest.approx(4.0, abs=1e-12)
    # the diagonal point is the corner of the square, not (0, 1)
    assert _point_at_arc_from_zero(p, ch.eighth) == Point2(1.0, 1.0)


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
def test_non_finite_angle_is_a_domain_error(phi):
    with pytest.raises(DomainError):
        unit_circle_point(2.0, phi)
    with pytest.raises(DomainError):
        point_at_arc_length(2.0, phi, 1.0)


class TestPointAtArcLength:
    def test_zero_length(self):
        cp = point_at_arc_length(3.0, 1.1, 0.0)
        start = unit_circle_point(3.0, 1.1)
        assert cp.point.x == pytest.approx(start.point.x, abs=1e-12)
        assert cp.point.y == pytest.approx(start.point.y, abs=1e-12)

    def test_euclidean_angle_equals_length(self):
        cp = point_at_arc_length(2.0, 0.0, math.pi / 2)
        assert cp.phi == pytest.approx(math.pi / 2, abs=1e-10)

    def test_l1_unit_step(self):
        cp = point_at_arc_length(1.0, 0.0, 1.0)
        assert cp.point.x == pytest.approx(0.5, abs=1e-12)
        assert cp.point.y == pytest.approx(0.5, abs=1e-12)

    def test_rejects_overlong(self):
        with pytest.raises(DomainError):
            point_at_arc_length(2.0, 0.0, 9.0)

    @pytest.mark.parametrize("ulps", [1, 2, 3, 4])
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 4.0, INF])
    def test_angle_a_few_ulps_below_a_full_lap(self, p, ulps):
        length = 8.0 * _chart(p).eighth
        for _ in range(ulps):
            length = math.nextafter(length, 0.0)
        cp = point_at_arc_length(p, 0.0, length)
        assert 0.0 <= cp.phi < TWO_PI
        assert lp_norm(p, cp.point) == pytest.approx(1.0, abs=1e-15)

    def test_angle_that_rounds_to_a_full_turn_is_zero(self):
        # a length of -1e-17 (inside the accepted -1e-9 slack) puts the point
        # at p = 4 below the x axis by less than half an ulp of 2*pi, so
        # 2*pi plus its angle rounds to 2*pi; the reduced angle is 0
        cp = point_at_arc_length(4.0, 0.0, -1e-17)
        x, y = cp.point
        assert y < 0.0 and math.atan2(y, x) + TWO_PI == TWO_PI
        assert cp.phi == 0.0

    @given(
        p=st.sampled_from(P_PALETTE),
        phi=st.floats(min_value=0.0, max_value=TWO_PI),
        frac=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_round_trip(self, p, phi, frac):
        L = frac * 2.0 * half_perimeter(p)
        cp = point_at_arc_length(p, phi, L)
        back = _arc_from_zero(p, cp.phi) - _arc_from_zero(p, phi % TWO_PI)
        # the wrap is ambiguous at a full lap; compare modulo the perimeter
        total = 2.0 * half_perimeter(p)
        d = (back - L) % total
        assert min(d, total - d) <= 1e-8


class TestChordLength:
    def test_coincident(self):
        a = unit_circle_point(2.0, 1.0)
        assert chord_length(2.0, a.point, a.point) == 0.0

    def test_l1_named_points(self):
        A = unit_circle_point(1.0, math.pi / 4)
        B = unit_circle_point(1.0, 3 * math.pi / 4)
        C = unit_circle_point(1.0, 0.0)
        D = unit_circle_point(1.0, math.pi / 2)
        # arcs of equal length 2 (A to B, C to D) with different chords
        assert chord_length(1.0, A.point, B.point) == pytest.approx(1.0, abs=1e-12)
        assert chord_length(1.0, C.point, D.point) == pytest.approx(2.0, abs=1e-12)


def _reflections(pt: Point2):
    return [
        Point2(pt.x, -pt.y),
        Point2(-pt.x, pt.y),
        Point2(pt.y, pt.x),
        Point2(-pt.y, -pt.x),
    ]


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 10.0, INF])
def test_reflection_invariance(p):
    rng = random.Random(99)
    for _ in range(25):
        a = unit_circle_point(p, rng.uniform(0.0, TWO_PI))
        b = unit_circle_point(p, rng.uniform(0.0, TWO_PI))
        base_chord = chord_length(p, a.point, b.point)
        for ra, rb in zip(_reflections(a.point), _reflections(b.point)):
            assert chord_length(p, ra, rb) == pytest.approx(base_chord, abs=1e-9)


def test_concurrent_use_is_deterministic():
    # arc tables are cached per p; rebuilds are deterministic, so hammering
    # a fresh p from several threads must agree with the serial answer
    from concurrent.futures import ThreadPoolExecutor

    import lpevac.lp_geometry as geo

    p = 2.71828
    geo._CHART_CACHE.pop(p, None)
    jobs = [(phi, L) for phi in (0.1, 1.0, 2.5, 4.0) for L in (0.3, 1.1, 2.2)]

    def work(job):
        phi, L = job
        cp = point_at_arc_length(p, phi, L)
        return cp.point.x, cp.point.y

    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(work, jobs * 4))
    serial = [work(j) for j in jobs * 4]
    assert threaded == serial


@pytest.mark.parametrize(
    "cache,fill", [("_CHART_CACHE", "_chart"), ("_PERIMETER_CACHE", "half_perimeter")]
)
def test_caches_stay_bounded(cache, fill):
    # each cache holds the one p in use
    import lpevac.lp_geometry as geo

    cache, fill = getattr(geo, cache), getattr(geo, fill)
    ps = [1.6180339 + 1e-3 * i for i in range(5)]
    for p in ps:
        fill(p)
    assert list(cache) == [ps[-1]]
    newest = cache[ps[-1]]
    fill(ps[-1])
    assert list(cache) == [ps[-1]] and cache[ps[-1]] is newest


def test_cache_inserts_from_threads_keep_the_bound():
    # an insert clears the cache and then inserts; with the lock, eight
    # threads switching every microsecond neither raise nor leave more or
    # fewer than one entry
    import sys
    import threading

    import lpevac.lp_geometry as geo

    cache, errors = {}, []

    def work(t):
        try:
            for i in range(2000):
                geo._remember(cache, t + i / 1e4, i)
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(float(t),)) for t in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert errors == [] and len(cache) == 1
