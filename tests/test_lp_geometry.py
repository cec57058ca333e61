import math
import random
import warnings

import pytest
from hypothesis import given, strategies as st

from lpevac import (
    INF,
    ArcSpec,
    DomainError,
    Point2,
    arc_distance,
    arc_length,
    chart_point,
    chart_speed,
    chord_length,
    half_perimeter,
    lp_norm,
    point_at_arc_length,
    unit_circle_point,
    validate_p,
)

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
    def test_pole(self):
        assert chart_point(2.0, 0.0) == Point2(0.0, 1.0)

    def test_right_edge(self):
        assert chart_point(3.0, -1.0) == Point2(1.0, 0.0)

    def test_euclid_diagonal(self):
        pt = chart_point(2.0, -(2.0**-0.5))
        assert pt.x == pytest.approx(2.0**-0.5, abs=1e-12)
        assert pt.y == pytest.approx(2.0**-0.5, abs=1e-12)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            chart_point(2.0, 1.5)
        with pytest.raises(DomainError):
            chart_point(INF, 0.0)


class TestChartSpeed:
    def test_unit_speed_at_pole_p2(self):
        assert chart_speed(2.0, 0.0) == 1.0

    def test_p1_constant_two(self):
        # exponent p^2 - p vanishes, the integrand collapses to 2; the
        # quarter-arc cross-check 2 * (1/2) = pi_1 / 4 pins the constant
        for z in (0.0, 0.2, 0.49, 0.9):
            assert chart_speed(1.0, z) == 2.0
        assert 2.0 * 0.5 == half_perimeter(1.0) / 4.0

    def test_matches_finite_difference_of_chart(self):
        p, z, h = 3.0, 0.5, 1e-5
        a = chart_point(p, z + h)
        b = chart_point(p, z - h)
        fd = lp_norm(p, Point2((a.x - b.x) / (2 * h), (a.y - b.y) / (2 * h)))
        assert chart_speed(p, z) == pytest.approx(fd, abs=1e-6)

    def test_rejects_singular_edge(self):
        with pytest.raises(DomainError):
            chart_speed(3.0, 1.0)


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


class TestArcLength:
    @pytest.mark.parametrize("p", P_PALETTE)
    def test_full_perimeter(self, p):
        assert arc_length(p, 0.0, TWO_PI) == pytest.approx(
            2.0 * half_perimeter(p), abs=1e-8
        )

    def test_l1_quarter_through_top(self):
        assert arc_length(1.0, math.pi / 4, 3 * math.pi / 4) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("p", [1.0, 1.4, 2.0, 5.0, INF])
    def test_eighths_balance(self, p):
        # reflection across y=x maps one eighth onto the other
        first = arc_length(p, 0.0, math.pi / 4)
        second = arc_length(p, math.pi / 4, math.pi / 2)
        assert first == pytest.approx(second, abs=1e-9)

    def test_rejects_bad_order(self):
        with pytest.raises(DomainError):
            arc_length(2.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            arc_length(2.0, 0.0, 7.0)


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

    @given(
        p=st.sampled_from(P_PALETTE),
        phi=st.floats(min_value=0.0, max_value=TWO_PI),
        frac=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_round_trip(self, p, phi, frac):
        L = frac * 2.0 * half_perimeter(p)
        cp = point_at_arc_length(p, phi, L)
        back = arc_length(p, phi, phi + ((cp.phi - phi) % TWO_PI))
        # the wrap is ambiguous at a full lap; compare modulo the perimeter
        total = 2.0 * half_perimeter(p)
        err = min(abs(back - L), abs(back - L + total), abs(back - L - total))
        assert err <= 1e-8


class TestArcDistanceAndChord:
    def test_coincident(self):
        a = unit_circle_point(2.0, 1.0)
        assert arc_distance(2.0, a, a) == 0.0
        assert chord_length(2.0, a.point, a.point) == 0.0

    def test_l1_named_points(self):
        A = unit_circle_point(1.0, math.pi / 4)
        B = unit_circle_point(1.0, 3 * math.pi / 4)
        C = unit_circle_point(1.0, 0.0)
        D = unit_circle_point(1.0, math.pi / 2)
        # equal arc distances but different chords
        assert arc_distance(1.0, A, B) == pytest.approx(2.0, abs=1e-12)
        assert arc_distance(1.0, C, D) == pytest.approx(2.0, abs=1e-12)
        assert chord_length(1.0, A.point, B.point) == pytest.approx(1.0, abs=1e-12)
        assert chord_length(1.0, C.point, D.point) == pytest.approx(2.0, abs=1e-12)

    @given(
        p=st.sampled_from(P_PALETTE),
        phis=st.tuples(
            st.floats(min_value=0.0, max_value=TWO_PI),
            st.floats(min_value=0.0, max_value=TWO_PI),
        ),
    )
    def test_symmetry_and_range(self, p, phis):
        a = unit_circle_point(p, phis[0])
        b = unit_circle_point(p, phis[1])
        d1 = arc_distance(p, a, b)
        d2 = arc_distance(p, b, a)
        assert d1 == pytest.approx(d2, abs=1e-9)
        assert -1e-12 <= d1 <= half_perimeter(p) + 1e-8

    def test_triangle_inequality_sampled(self):
        rng = random.Random(20240817)
        for _ in range(1000):
            p = rng.choice(P_PALETTE)
            pts = [unit_circle_point(p, rng.uniform(0.0, TWO_PI)) for _ in range(3)]
            ab = arc_distance(p, pts[0], pts[1])
            bc = arc_distance(p, pts[1], pts[2])
            ac = arc_distance(p, pts[0], pts[2])
            assert ac <= ab + bc + 1e-8


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
        base_arc = arc_distance(p, a, b)
        for ra, rb in zip(_reflections(a.point), _reflections(b.point)):
            assert chord_length(p, ra, rb) == pytest.approx(base_chord, abs=1e-9)
            phi_a = math.atan2(ra.y, ra.x) % TWO_PI
            phi_b = math.atan2(rb.y, rb.x) % TWO_PI
            ca = unit_circle_point(p, phi_a)
            cb = unit_circle_point(p, phi_b)
            assert arc_distance(p, ca, cb) == pytest.approx(base_arc, abs=1e-9)


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
    "cache,size,fill",
    [
        ("_CHART_CACHE", "_CHART_CACHE_SIZE", "_chart"),
        ("_PERIMETER_CACHE", "_PERIMETER_CACHE_SIZE", "half_perimeter"),
    ],
)
def test_caches_stay_bounded(cache, size, fill):
    import lpevac.lp_geometry as geo

    cache, size, fill = getattr(geo, cache), getattr(geo, size), getattr(geo, fill)
    ps = [1.6180339 + 1e-3 * i for i in range(size + 3)]
    for p in ps:
        fill(p)
    assert len(cache) == size
    assert ps[0] not in cache
    newest = cache[ps[-1]]
    fill(ps[-1])
    assert len(cache) == size and cache[ps[-1]] is newest


def test_cache_inserts_from_threads_keep_the_bound():
    # eviction is check-then-act on a shared dict; with the lock, eight
    # threads switching every microsecond neither raise nor leave the
    # cache below or above its bound
    import sys
    import threading

    import lpevac.lp_geometry as geo

    cache, size, errors = {}, 64, []

    def work(t):
        try:
            for i in range(2000):
                geo._remember(cache, size, t + i / 1e4, i)
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
    assert errors == [] and len(cache) == size


def test_arcspec_holds_fields():
    arc = ArcSpec(2.0, 0.5, 1.25)
    assert (arc.p, arc.start_phi, arc.length) == (2.0, 0.5, 1.25)


def test_arcspec_midpoint_and_tangential_angle():
    arc = ArcSpec(2.0, 0.0, math.pi)
    mid = arc.midpoint()
    assert mid.phi == pytest.approx(math.pi / 2, abs=1e-10)
    assert arc.tangential_angle() == pytest.approx(math.pi / 2, abs=1e-10)
    diamond = ArcSpec(1.0, 7 * math.pi / 4, 2.0)
    assert diamond.tangential_angle() == pytest.approx(0.0, abs=1e-10)
