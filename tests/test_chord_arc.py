import json
import math
import os
import random
import signal
import sys
import threading
import time
from functools import partial
from pathlib import Path

import pytest

from lpevac import (
    INF,
    Branch,
    Direction,
    DomainError,
    Point2,
    Tolerance,
    chord_length,
    find_root_bracketed,
    half_perimeter,
    integrate_adaptive,
    lp_norm,
    min_chord,
    min_chord_curve,
    point_at_arc_length,
    tangential_chord,
    unit_circle_point,
    verify_min_chord_monotone,
    verify_tangential_chord_monotone,
    worst_case_params,
)
from lpevac.lp_geometry import _chart, _point_at_arc_from_zero, _speeds, _ypow

QUARTER = math.pi / 4
TWO_PI = 2.0 * math.pi
QUAD = Tolerance(abs_tol=1e-12, rel_tol=1e-12, max_iter=60)
CURVE_P = (1.001, 1.5, 2.0, 3.0, 10.0, 45.0, INF)
REFERENCE_P = [
    row["p"]
    for row in json.loads(
        (Path(__file__).parent / "data" / "reference.json").read_text()
    )["values"]
]


def _count_placements(monkeypatch, p):
    # Wrap _point_at_arc_from_zero in every lpevac module that holds it,
    # after the chart of p is built, and return the call counter.
    import lpevac.lp_geometry as geo

    _chart(p)
    calls = [0]
    original = geo._point_at_arc_from_zero

    def counting(p, s):
        calls[0] += 1
        return original(p, s)

    for name, module in list(sys.modules.items()):
        if name.startswith("lpevac") and (
            getattr(module, "_point_at_arc_from_zero", None) is original
        ):
            monkeypatch.setattr(module, "_point_at_arc_from_zero", counting)
    return calls


def _chord_from(p, phi, u):
    # The chord of the arc of length u that starts at rho_p(phi).
    a = unit_circle_point(p, phi).point
    return chord_length(p, a, point_at_arc_length(p, phi, u).point)


def _scanned_min_chord(p, u):
    # Independent of the arc/chord lemma: the least chord over 513 arc
    # midpoints m = i E / 512 on [0, E], each placing both endpoints m -/+ u/2.
    eighth = _chart(p).eighth
    half = 0.5 * min(u, 8.0 * eighth - u)
    best = math.inf
    for i in range(513):
        m = eighth * i / 512
        a = _point_at_arc_from_zero(p, m + half)
        b = _point_at_arc_from_zero(p, m - half)
        best = min(best, lp_norm(p, (a.x - b.x, a.y - b.y)))
    return best


class TestTangentialChord:
    def test_euclidean_constant(self):
        u = 4.0 * math.pi / 3.0
        for theta in (0.0, 0.2, 0.5, QUARTER):
            assert tangential_chord(2.0, theta, u) == pytest.approx(
                math.sqrt(3.0), abs=1e-6
            )

    def test_axis_angle_matches_critical_separation(self):
        cp = worst_case_params(1.5)
        assert tangential_chord(1.5, 0.0, cp.explored) == pytest.approx(
            cp.separation, abs=1e-6
        )

    def test_diagonal_angle_matches_critical_separation(self):
        cp = worst_case_params(3.0)
        assert tangential_chord(3.0, QUARTER, cp.explored) == pytest.approx(
            cp.separation, abs=1e-6
        )

    @pytest.mark.parametrize("p", [1.3, 1.7, 2.0])
    def test_axis_extreme_equals_axis_gamma(self, p):
        cp = worst_case_params(p, Branch.AXIS)
        assert tangential_chord(p, 0.0, cp.explored) == pytest.approx(
            cp.separation, abs=1e-6
        )

    @pytest.mark.parametrize("p", [2.0, 3.0, 10.0])
    def test_diagonal_extreme_equals_diagonal_gamma(self, p):
        cp = worst_case_params(p, Branch.DIAGONAL)
        assert tangential_chord(p, QUARTER, cp.explored) == pytest.approx(
            cp.separation, abs=1e-6
        )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            tangential_chord(2.0, 1.2, 1.0)
        with pytest.raises(DomainError):
            tangential_chord(2.0, 0.1, 0.0)


class TestTangentialChordProfile:
    def test_samples_carry_inputs(self):
        from lpevac import tangential_chord_profile

        profile = tangential_chord_profile(2.0, 4.0 * math.pi / 3.0, 9)
        assert len(profile) == 9
        assert all(type(s) is tuple and len(s) == 2 for s in profile)
        assert profile[0][0] == 0.0
        assert profile[-1][0] == pytest.approx(QUARTER, abs=1e-15)
        for _, chord in profile:
            assert chord == pytest.approx(math.sqrt(3.0), abs=1e-6)

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0, INF])
    def test_pairs_are_theta_and_tangential_chord(self, p):
        from lpevac import tangential_chord_profile

        arc_len = worst_case_params(p).explored
        profile = tangential_chord_profile(p, arc_len, 17)
        thetas = [i * QUARTER / 16 for i in range(16)] + [QUARTER]
        assert [theta for theta, _ in profile] == pytest.approx(thetas, abs=1e-15)
        assert profile == [
            (theta, tangential_chord(p, theta, arc_len)) for theta, _ in profile
        ]

    @pytest.mark.parametrize("grid_size", [1, 0, -3])
    def test_grid_below_two_is_domain_error(self, grid_size):
        # as min_chord_curve does; the grid is not silently raised to 2
        from lpevac import tangential_chord_profile

        with pytest.raises(DomainError, match=f"need at least 2 angles, got {grid_size}$"):
            tangential_chord_profile(2.0, 4.0, grid_size)

    def test_fractional_grid_is_type_error(self):
        from lpevac import tangential_chord_profile

        with pytest.raises(TypeError):
            tangential_chord_profile(2.0, 4.0, 2.9)
        with pytest.raises(TypeError):
            min_chord_curve(2.0, 2.9)


class TestMinChord:
    def test_euclidean_closed_form(self):
        for u in (0.4, 1.2, 2.2, 3.1):
            assert min_chord(2.0, u) == pytest.approx(2.0 * math.sin(u / 2.0), abs=1e-7)

    @pytest.mark.parametrize("p", [1.3, 2.0, 3.0, 10.0])
    def test_diameter(self, p):
        assert min_chord(p, half_perimeter(p)) == pytest.approx(2.0, abs=1e-7)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_tight_at_critical_measure(self, p):
        cp = worst_case_params(p)
        assert min_chord(p, cp.explored) == pytest.approx(cp.separation, abs=1e-5)

    @pytest.mark.parametrize("p", [1.4, 3.0])
    def test_complement_symmetry(self, p):
        rng = random.Random(31)
        total = 2.0 * half_perimeter(p)
        for _ in range(5):
            u = rng.uniform(0.1, total - 0.1)
            assert min_chord(p, u) == pytest.approx(min_chord(p, total - u), abs=1e-7)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_minimality_against_random_arcs(self, p):
        rng = random.Random(int(10 * p))
        for u in (1.0, 2.5, half_perimeter(p) * 0.9):
            best = min_chord(p, u)
            for _ in range(50):
                phi = rng.uniform(0.0, TWO_PI)
                assert best <= _chord_from(p, phi, u) + 1e-7

    @pytest.mark.parametrize("p,u", [(1.5, 2.0), (3.0, 2.6), (2.0, 4.0)])
    def test_exhaustive_start_angle_sweep(self, p, u):
        sweep = min(_chord_from(p, TWO_PI * i / 4096.0, u) for i in range(4096))
        best = min_chord(p, u)
        # the sweep sits on a 2*pi/4096 start-angle grid, so it can overshoot
        # the true minimum quadratically in the spacing (about 6e-6 here)
        assert best <= sweep + 1e-9
        assert sweep - best <= 1e-5

    @pytest.mark.parametrize("p", [1.5, 3.0, INF])
    def test_places_two_points_per_midpoint(self, p, monkeypatch):
        calls = _count_placements(monkeypatch, p)
        min_chord(p, 1.0)
        assert calls[0] == 2  # both endpoints of the one end-chord midpoint


class TestMinChordCurve:
    """min_chord_curve, and the lattice that certifies it."""

    @pytest.mark.parametrize(
        "steps,p",
        [(steps, p) for steps in (64, 65, 96, 256) for p in CURVE_P]
        + [(64, p) for p in REFERENCE_P if p not in CURVE_P],
    )
    def test_matches_min_chord_per_arc_length(self, steps, p):
        # Every value against the least chord of an independent 513-midpoint
        # scan, for every fixture p and inf; CURVE_P also at denser grids.
        # At p = 2 every chord of one length is the same up to rounding.
        curve = min_chord_curve(p, steps)
        assert len(curve) == steps
        assert curve[0] == (0.0, 0.0)
        tol = 5e-14 if p == 2.0 else 2e-15
        for u, chord in curve[1:]:
            assert abs(chord - _scanned_min_chord(p, u)) <= tol

    @pytest.mark.parametrize("p", [1.5, 3.0, INF])
    @pytest.mark.parametrize("steps", [64, 256])
    def test_places_two_points_per_arc_length(self, p, steps, monkeypatch):
        calls = _count_placements(monkeypatch, p)
        min_chord_curve(p, steps)
        assert calls[0] == 2 * (steps - 1)

    def test_arc_lengths_are_uniform_to_pi_p(self):
        curve = min_chord_curve(3.0, 65)
        us = [u for u, _ in curve]
        assert us[-1] == pytest.approx(half_perimeter(3.0), abs=1e-12)
        step = us[-1] / 64
        assert all(u == pytest.approx(j * step, abs=1e-14) for j, u in enumerate(us))

    @pytest.mark.parametrize("steps", [64, 510, 1024])
    def test_chord_evaluations_per_arc_length_stay_bounded(self, steps, monkeypatch):
        # verify_min_chord_monotone takes every r-th lattice midpoint, so the
        # lattice chords per arc length are the scanned midpoints alone: 631,
        # 1019 (the most at any grid) and 513 here, plus the curve's one; a
        # lattice scanned without the stride would need about 2100 per u at
        # steps = 1024.  A chord is an element of a row of chord_arc's
        # lattice kernel or a chord_length in evacuation's separation.
        import lpevac.chord_arc as chord_arc
        import lpevac.evacuation as evacuation

        calls = [0]
        rows = chord_arc._lattice_chords
        chord = evacuation.chord_length

        def counting_rows(*args):
            out = rows(*args)
            calls[0] += len(out)
            return out

        def counting_chord(*args):
            calls[0] += 1
            return chord(*args)

        monkeypatch.setattr(chord_arc, "_lattice_chords", counting_rows)
        monkeypatch.setattr(evacuation, "chord_length", counting_chord)
        # one share: the rows of a forked child would count in its memory
        monkeypatch.setattr(chord_arc, "_share_count", lambda: 1)
        verify_min_chord_monotone(1.5, steps)
        assert (steps - 1) * (513 + 1) <= calls[0] <= (steps - 1) * (1019 + 1)

    @pytest.mark.parametrize("p", [1.5, 3.0, INF])
    @pytest.mark.parametrize("steps", [64, 256, 512])
    def test_places_only_the_lattice(self, p, steps, monkeypatch):
        # verify_min_chord_monotone places 2n / d points, n = 2 (steps - 1) k,
        # k = ceil(256 / (steps - 1)), d = gcd(r, 4k, n), r = max(1, n // 510):
        # the points of the lattice's first quadrant that the rows read, and
        # nothing else but the curve's 2 (steps - 1)
        calls = _count_placements(monkeypatch, p)
        verify_min_chord_monotone(p, steps)
        k = -(-256 // (steps - 1))
        n = 2 * (steps - 1) * k
        d = math.gcd(max(1, n // 510), 4 * k, n)
        assert calls[0] == 2 * n // d + 2 * (steps - 1)
        assert calls[0] == {64: 1386, 256: 1530, 512: 2044}[steps]

    def test_rejects_single_step(self):
        with pytest.raises(DomainError):
            min_chord_curve(2.0, 1)


class TestVerifyMinChordMonotone:
    def test_euclidean(self):
        rep = verify_min_chord_monotone(2.0, 128, 1e-9)
        assert rep.passed and rep.max_violation <= 1e-9
        assert rep.direction is Direction.INCREASING

    def test_small_p(self):
        assert verify_min_chord_monotone(1.5, 512, 1e-9).passed

    def test_large_p(self):
        assert verify_min_chord_monotone(10.0, 512, 1e-9).passed

    def test_grid_floor(self):
        with pytest.raises(DomainError):
            verify_min_chord_monotone(2.0, 32, 1e-9)

    @pytest.mark.parametrize("p", [1.5, 3.0, 2.0, INF])
    def test_lemma_sees_one_interior_drop(self, p, monkeypatch):
        # Lower by 1e-6 the lattice chord at midpoint E / 2 of the shortest
        # grid arc length.  At p = 1.5 and 3 the row stays above its end
        # chord, so the least chord per arc length, and the curve, do not
        # move: only the lemma check sees it.  At p = 2 (a hypot row) and inf
        # (a max row) the row is constant there up to rounding, and the
        # lowered chord makes a step of 1e-6 that the monotone early return
        # must not hide.
        # Grid 64: 630 cells, 631 midpoints per arc length.
        import lpevac.chord_arc as chord_arc

        rows = [0]
        kernel = chord_arc._lattice_chords

        def dropping(*args):
            chords = kernel(*args)
            rows[0] += 1
            if rows[0] == 1:
                chords[315] -= 1e-6
            return chords

        monkeypatch.setattr(chord_arc, "_lattice_chords", dropping)
        rep = verify_min_chord_monotone(p, 64)
        assert not rep.passed
        assert rep.max_violation == pytest.approx(1e-6, rel=0.05)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("where", [0, 315, -1])
    @pytest.mark.parametrize("row", [1, 40, 63])
    def test_nan_lattice_chord_fails(self, p, where, row, monkeypatch):
        import lpevac.chord_arc as chord_arc

        rows = [0]
        kernel = chord_arc._lattice_chords

        def poisoned(*args):
            chords = kernel(*args)
            rows[0] += 1
            if rows[0] == row:
                chords[where] = math.nan
            return chords

        monkeypatch.setattr(chord_arc, "_lattice_chords", poisoned)
        # one share: the rows of a forked child would count in its memory
        monkeypatch.setattr(chord_arc, "_share_count", lambda: 1)
        rep = verify_min_chord_monotone(p, 64)
        assert rows[0] == 63
        assert not rep.passed and math.isnan(rep.max_violation)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("where", [1, 32, -1])
    def test_nan_curve_value_fails(self, p, where, monkeypatch):
        import lpevac.chord_arc as chord_arc

        curve = chord_arc.min_chord_curve

        def poisoned(p, steps):
            rows = curve(p, steps)
            rows[where] = (rows[where][0], math.nan)
            return rows

        monkeypatch.setattr(chord_arc, "min_chord_curve", poisoned)
        rep = verify_min_chord_monotone(p, 64)
        assert not rep.passed and math.isnan(rep.max_violation)

    def test_largest_drop_sees_nan_anywhere(self):
        from lpevac.chord_arc import _largest_drop

        assert _largest_drop([1.0, 0.0]) == 1.0
        for bad in (math.nan, INF, -INF):
            for where in range(3):
                values = [1.0, 0.0, 2.0]
                values[where] = bad
                assert math.isnan(_largest_drop(values)), values
                assert math.isnan(_largest_drop(values, increasing=False)), values
        for values in ([1.0, 2.0, INF], [INF, INF], [-INF, INF]):
            assert math.isnan(_largest_drop(values))
        assert math.isnan(_largest_drop([INF, 2.0, 1.0], increasing=False))

    def test_largest_drop_is_the_plain_scan(self):
        # Bit for bit the scan without the monotone early return, in both
        # directions, on each row and its reverse.
        from operator import sub

        from lpevac.chord_arc import _largest_drop, _lattice_chords, _quarter_turn_lattice

        def scan(values, increasing):
            a, b = (values, values[1:]) if increasing else (values[1:], values)
            return max(0.0, max(map(sub, a, b), default=0.0))

        rng = random.Random(3007)
        rising = sorted(rng.uniform(0.0, 2.0) for _ in range(300))
        xs, ys = _quarter_turn_lattice(2.0, 630, 1)
        euclid = _lattice_chords(2.0, xs, ys, 1260, 1890, 1, 20)  # grid 64, row 1
        assert len(set(euclid)) > 1 and euclid != sorted(euclid)
        assert euclid != sorted(euclid, reverse=True)
        rows = [
            [1.0, 2.0, 3.0], rising,  # strictly monotone
            [1.0, 1.0, 2.0, 2.0, 2.0, 3.0], [0.5] * 5,  # equal runs
            [0.0, -0.0], [-0.0, 0.0, -0.0, 0.0], [-0.0, 0.0, 1.0, 1.0],  # signed zeros
            euclid,  # a p = 2 row, constant up to rounding
            [0.5], [0.5, 0.25], [0.25, 0.25],  # lengths 1 and 2
            [0.0, 1.0, 2.0, 1.5, 3.0], rising[:150] + [rising[149] - 1e-6] + rising[151:],
            # the only step against the direction: a subnormal, the last pair, the first pair
            [0.0, 5e-324, 0.0, 1.0], [1.0, 2.0, 3.0, 2.5], [3.0, 1.0, 2.0, 3.0],
        ]
        for row in rows:
            for values in (row, row[::-1]):
                for increasing in (True, False):
                    got = _largest_drop(values, increasing)
                    assert got.hex() == scan(values, increasing).hex(), (values, increasing)


# 2 - 1e-12 and 2 + 1e-12 take the generic branch right beside p == 2; at
# p = 1e300 every ratio b / a below 1 raised to p underflows to 0.0
KERNEL_P = (
    1.0, 1.0 + 1e-7, 1.001, 1.5, 2.0 - 1e-12, 2.0, 2.0 + 1e-12, 3.7, 20.0, 1e4,
    1e17, 1e300, INF,
)
ORACLE_P = (1.001, 1.5, 2.0, 3.0, 45.0, 1e4, INF)


def _kernel_chords(p, vectors):
    # Lay the vectors out so that the kernel's chord k joins xs[k] = 0.0 to
    # xs[2m + k] = vectors[k][0]: midpoints m + k at stride 1, the last one
    # as the end midpoint hi, shift s = m.  v - 0.0 is v exactly.
    from lpevac.chord_arc import _lattice_chords

    m = len(vectors)
    xs = [0.0] * (2 * m) + [v[0] for v in vectors]
    ys = [0.0] * (2 * m) + [v[1] for v in vectors]
    return _lattice_chords(p, xs, ys, m, 2 * m - 1, 1, m)


def _kernel_vectors(rng):
    # Zero vectors (0.0, where an inline b / a would divide 0 by 0), an
    # axis, |dx| = |dy|, both orders of |dx| and |dy| and tiny components.
    out = [(0.0, 0.0), (-0.0, 0.0), (0.0, 1.0), (-2.5, 0.0), (5e-324, 0.0)]
    out += [(5e-324, 5e-324), (1e-300, -3e-310), (1e-200, 1e-200), (1.0, 1.0)]
    for _ in range(2000):
        a = rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-300, 300)
        b = a * rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-20, 0)
        c, d = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
        out += [(a, b), (b, a), (a, -a), (c, d)]
    for _ in range(500):
        a = rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-323, -300)
        b = rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-323, -300)
        out += [(a, b), (b, a), (a, a)]
    return out


class TestLatticeChords:
    @pytest.mark.parametrize("p", KERNEL_P)
    def test_bit_identical_to_lp_norm(self, p):
        vectors = _kernel_vectors(random.Random(1101))
        got = _kernel_chords(p, vectors)
        want = [lp_norm(p, (dx, dy)) for dx, dy in vectors]
        assert list(map(float.hex, got)) == list(map(float.hex, want))

    @pytest.mark.parametrize("steps", [64, 256])
    def test_lattice_is_the_read_range(self, steps):
        # 5n / d + 1 points, the multiples of d among the arc indices
        # [-2n, 3n]: every d-th point of the start of the quarter turns of
        # the full turn's lattice, bit for bit
        from lpevac.chord_arc import _quarter_turn_lattice

        n = 2 * (steps - 1) * -(-256 // (steps - 1))
        full_xs, full_ys = _full_turn_lattice(3.0, n)
        for d in (1, 2):
            xs, ys = _quarter_turn_lattice(3.0, n, d)
            assert len(xs) == len(ys) == 5 * n // d + 1
            want_xs, want_ys = full_xs[: 5 * n + 1 : d], full_ys[: 5 * n + 1 : d]
            assert list(map(float.hex, xs)) == list(map(float.hex, want_xs))
            assert list(map(float.hex, ys)) == list(map(float.hex, want_ys))


def _full_turn_lattice(p, n):
    # The lattice at arc indices [-2n, 7n] (index i + 2n), each quadrant a
    # quarter turn of the placed quadrant [0, 2E).
    h = _chart(p).eighth / n
    pts = [_point_at_arc_from_zero(p, i * h) for i in range(2 * n)]
    x = [pt.x for pt in pts]
    y = [pt.y for pt in pts]
    neg_x = [-v for v in x]
    neg_y = [-v for v in y]
    xs = y + x + neg_y + neg_x + y[: n + 1]
    ys = neg_x + y + x + neg_y + neg_x[: n + 1]
    return xs, ys


def _per_chord_violation(p, grid_size):
    # verify_min_chord_monotone's sweep with one lp_norm call per chord,
    # on the full turn's lattice, with the list form of the largest drop.
    def drop(values):
        return max([0.0] + [a - b for a, b in zip(values, values[1:])])

    k = -(-256 // (grid_size - 1))
    n = 2 * (grid_size - 1) * k
    xs, ys = _full_turn_lattice(p, n)
    mid_idx = list(range(2 * n, 3 * n, max(1, n // 510))) + [3 * n]
    worst = 0.0
    for j in range(1, grid_size):
        s = 4 * k * j
        chords = [
            lp_norm(p, (xs[i + s] - xs[i - s], ys[i + s] - ys[i - s])) for i in mid_idx
        ]
        worst = max(worst, drop(chords if p <= 2.0 else chords[::-1]))
    return max(worst, drop([c for _, c in min_chord_curve(p, grid_size)]))


# grid 1100: n = 2198, r = 4 and d = 2, so the end midpoint E lies off the
# compressed lattice's stride and reaches the row as its appended point
@pytest.mark.parametrize(
    "grid,p",
    [(grid, p) for grid in (64, 256) for p in ORACLE_P] + [(1100, 1.5), (1100, 45.0)],
)
def test_min_chord_monotone_matches_per_chord_sweep(p, grid):
    tol = 1e-9
    rep = verify_min_chord_monotone(p, grid, tol)
    worst = _per_chord_violation(p, grid)
    assert rep.max_violation == worst
    assert rep.passed == (worst <= tol)


# At grid 64 the rows are the offsets s = 20 j, j = 1 .. 63; with two
# shares the forked child takes the first 31 (s <= 620), this process the
# rest.  The first row is the shortest arc length, nearly flat in the midpoint.
CHILD_ROWS, PARENT_ROW = (20, 620), 1000
SHARE_P = (1.0, 1.001, 1.5, 2.0, 3.0, 10.0, 45.0, 1e4, INF)


def _reaped_all():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestForkedShares:
    @pytest.fixture
    def forks(self, monkeypatch):
        # Two shares whatever this host's CPUs; counts the forks made here.
        import lpevac.chord_arc as chord_arc

        calls = []
        fork = os.fork

        def counting():
            calls.append(os.getpid())
            return fork()

        monkeypatch.setattr(chord_arc, "_share_count", lambda: 2)
        monkeypatch.setattr(os, "fork", counting)
        return calls

    @staticmethod
    def _rows_here(monkeypatch, change=None):
        # Wrap the row kernel: record the offsets computed in this process,
        # and let change(s, chords) alter a row in either process.
        import lpevac.chord_arc as chord_arc

        here, seen = os.getpid(), []
        kernel = chord_arc._lattice_chords

        def wrapped(*args):
            if os.getpid() == here:
                seen.append(args[-1])
            chords = kernel(*args)
            if change is not None:
                change(args[-1], chords)
            return chords

        monkeypatch.setattr(chord_arc, "_lattice_chords", wrapped)
        return seen

    @pytest.mark.parametrize("grid", [64, 256, 512])
    @pytest.mark.parametrize("p", SHARE_P)
    def test_same_report_as_one_share(self, p, grid, forks, monkeypatch):
        import lpevac.chord_arc as chord_arc

        forked = verify_min_chord_monotone(p, grid)
        monkeypatch.setattr(chord_arc, "_share_count", lambda: 1)
        single = verify_min_chord_monotone(p, grid)
        assert len(forks) == 1
        assert forked.max_violation.hex() == single.max_violation.hex()
        assert forked.passed == single.passed
        assert _reaped_all()

    @pytest.mark.parametrize(
        "plant,row", [("nan", CHILD_ROWS[0]), ("nan", CHILD_ROWS[1]), ("drop", CHILD_ROWS[0])]
    )
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_child_rows_reach_the_report(self, p, plant, row, forks, monkeypatch):
        # A NaN, or a chord lowered by 1e-6 inside a monotone row (see
        # test_lemma_sees_one_interior_drop), in a row only the child computes.
        def planted(s, chords):
            if s == row:
                chords[315] = math.nan if plant == "nan" else chords[315] - 1e-6

        seen = self._rows_here(monkeypatch, planted)
        rep = verify_min_chord_monotone(p, 64)
        assert len(forks) == 1
        assert sorted(seen) == list(range(640, 1280, 20))
        assert PARENT_ROW in seen
        assert not rep.passed
        if plant == "nan":
            assert math.isnan(rep.max_violation)
        else:
            assert rep.max_violation == pytest.approx(1e-6, rel=0.05)
        assert _reaped_all()

    @pytest.mark.parametrize("failure", ["raises", "killed", "cut short", "exits non-zero"])
    def test_failed_child_share_is_computed_here(self, failure, forks, monkeypatch):
        # A child that fails after its rows sends back 1.5 ("0x1.8p+0"), in
        # full with exit status 3, or cut short to "0x1.8" with status 0;
        # 1.5 is no drop of a chord of C_p, so a report that took it differs.
        import lpevac.chord_arc as chord_arc

        here = os.getpid()
        write, exit_ = os.write, os._exit

        def fail_in_child(s, chords):
            if os.getpid() != here and failure == "raises":
                raise RuntimeError("row failed in the child")
            if os.getpid() != here and failure == "killed":
                os.kill(os.getpid(), signal.SIGKILL)

        def wrong_write(fd, data):
            if os.getpid() == here:
                return write(fd, data)
            return write(fd, b"0x1.8" if failure == "cut short" else b"0x1.8p+0\n")

        def failing_exit(status):
            exit_(3 if os.getpid() != here and failure == "exits non-zero" else status)

        if failure in ("cut short", "exits non-zero"):
            monkeypatch.setattr(os, "write", wrong_write)
            monkeypatch.setattr(os, "_exit", failing_exit)
        seen = self._rows_here(monkeypatch, fail_in_child)
        forked = verify_min_chord_monotone(3.0, 64)
        monkeypatch.setattr(chord_arc, "_share_count", lambda: 1)
        single = verify_min_chord_monotone(3.0, 64)
        assert len(forks) == 1
        assert sorted(seen[:63]) == list(range(20, 1280, 20))
        assert forked.max_violation.hex() == single.max_violation.hex()
        assert forked.passed == single.passed
        assert _reaped_all()

    def test_failed_fork_runs_one_share(self, forks, monkeypatch):
        import lpevac.chord_arc as chord_arc

        def no_fork():
            forks.append(os.getpid())
            raise BlockingIOError("fork: resource temporarily unavailable")

        seen = self._rows_here(monkeypatch)
        monkeypatch.setattr(os, "fork", no_fork)
        forked = verify_min_chord_monotone(3.0, 64)
        monkeypatch.setattr(chord_arc, "_share_count", lambda: 1)
        single = verify_min_chord_monotone(3.0, 64)
        assert len(forks) == 1
        assert sorted(seen[:63]) == list(range(20, 1280, 20))
        assert forked.max_violation.hex() == single.max_violation.hex()
        assert forked.passed == single.passed
        assert _reaped_all()

    def test_error_in_a_child_row_raises_here(self, forks, monkeypatch):
        def bad_row(s, chords):
            if s == CHILD_ROWS[0]:
                raise ValueError("bad row")

        seen = self._rows_here(monkeypatch, bad_row)
        with pytest.raises(ValueError, match="^bad row$"):
            verify_min_chord_monotone(3.0, 64)
        assert len(forks) == 1 and CHILD_ROWS[0] in seen
        assert _reaped_all()

    def test_interrupt_ends_and_reaps_the_child(self, forks, monkeypatch):
        import lpevac.chord_arc as chord_arc

        here = os.getpid()

        def slow_child(s, chords):
            if os.getpid() != here:
                time.sleep(30.0)

        def interrupted(p, steps):
            raise KeyboardInterrupt

        self._rows_here(monkeypatch, slow_child)
        monkeypatch.setattr(chord_arc, "min_chord_curve", interrupted)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            verify_min_chord_monotone(3.0, 64)
        assert time.monotonic() - start < 10.0
        assert len(forks) == 1
        assert _reaped_all()


    def test_sigchld_ignored(self, forks, monkeypatch):
        # A process that ignores SIGCHLD has its children reaped by the
        # system, so waitpid finds none; the report and the interrupt path
        # must not depend on reaping the child itself.
        import lpevac.chord_arc as chord_arc

        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            forked = verify_min_chord_monotone(3.0, 64)

            def interrupted(p, steps):
                raise KeyboardInterrupt

            curve = chord_arc.min_chord_curve
            monkeypatch.setattr(chord_arc, "min_chord_curve", interrupted)
            with pytest.raises(KeyboardInterrupt):
                verify_min_chord_monotone(3.0, 64)
            monkeypatch.setattr(chord_arc, "min_chord_curve", curve)
        finally:
            signal.signal(signal.SIGCHLD, previous)
        monkeypatch.setattr(chord_arc, "_share_count", lambda: 1)
        single = verify_min_chord_monotone(3.0, 64)
        assert len(forks) == 2
        assert forked.max_violation.hex() == single.max_violation.hex()
        assert forked.passed == single.passed
        assert _reaped_all()


class TestShareCount:
    def test_no_fork_while_another_thread_runs(self, monkeypatch):
        import lpevac.chord_arc as chord_arc

        forks = []
        fork = getattr(os, "fork", None)

        def counting():
            forks.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", counting, raising=False)
        release = threading.Event()
        worker = threading.Thread(target=release.wait, args=(30.0,))
        worker.start()
        try:
            shares = chord_arc._share_count()
            rep = verify_min_chord_monotone(3.0, 64)
        finally:
            release.set()
            worker.join(timeout=30.0)
        assert not worker.is_alive()
        assert shares == 1 and forks == []
        assert rep.passed

    def test_one_cpu_gives_one_share(self, monkeypatch):
        import lpevac.chord_arc as chord_arc

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert chord_arc._share_count() == 1

    def test_no_fork_gives_one_share(self, monkeypatch):
        import lpevac.chord_arc as chord_arc

        monkeypatch.delattr(os, "fork", raising=False)
        assert chord_arc._share_count() == 1


class TestVerifyTangentialChordMonotone:
    def test_euclidean_near_constant(self):
        rep = verify_tangential_chord_monotone(2.0, 512, 1e-6)
        assert rep.passed and rep.max_violation <= 1e-6

    def test_below_two_increasing(self):
        rep = verify_tangential_chord_monotone(1.5, 512, 1e-9)
        assert rep.direction is Direction.INCREASING and rep.passed

    def test_above_two_decreasing(self):
        rep = verify_tangential_chord_monotone(3.0, 512, 1e-9)
        assert rep.direction is Direction.DECREASING and rep.passed

    # p = 2 takes the profile's range, the other p its largest drop
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("where", [0, 32, -1])
    def test_nan_profile_value_fails(self, p, where, monkeypatch):
        import lpevac.chord_arc as chord_arc

        profile = chord_arc.tangential_chord_profile

        def poisoned(p, arc_len, grid_size):
            samples = profile(p, arc_len, grid_size)
            samples[where] = (samples[where][0], math.nan)
            return samples

        monkeypatch.setattr(chord_arc, "tangential_chord_profile", poisoned)
        rep = verify_tangential_chord_monotone(p, 64, 1e-6)
        assert not rep.passed and math.isnan(rep.max_violation)


# Independent reconstruction of the tangential chord curve: anchor points
# found by bracketed root finding on one-shot quadrature of the chart speed,
# the arc endpoint located the same way, no cumulative tables involved.


def _arc_to_q1_point(p, x):
    # arc length from (1, 0) to the first-quadrant point with abscissa x
    y = _ypow(p, x)
    fold = 2.0 ** (-1.0 / p)
    if y <= fold:
        return integrate_adaptive(partial(_speeds, p), 0.0, y, QUAD)
    return 0.5 * half_perimeter(p) - integrate_adaptive(
        partial(_speeds, p), 0.0, x, QUAD
    )


def _upper_point_arc(p, x):
    # arc length from (1, 0) to the upper-half point with abscissa x
    if x >= 0.0:
        return _arc_to_q1_point(p, x)
    return half_perimeter(p) - _arc_to_q1_point(p, -x)


def _point_at_direct(p, lam):
    # quadrature-plus-Brent inverse of the arc measure
    hp = half_perimeter(p)
    lam = lam % (2.0 * hp)
    k = min(int(lam / (hp / 2.0)), 3)
    rem = lam - k * hp / 2.0
    fold = 2.0 ** (-1.0 / p)
    speed_int = lambda y: integrate_adaptive(partial(_speeds, p), 0.0, y, QUAD)
    if rem <= hp / 4.0:
        y = find_root_bracketed(lambda y: speed_int(y) - rem, 0.0, fold, QUAD)
        bx, by = _ypow(p, y), y
    else:
        x = find_root_bracketed(lambda x: speed_int(x) - (hp / 2.0 - rem), 0.0, fold, QUAD)
        bx, by = x, _ypow(p, x)
    if k == 0:
        return Point2(bx, by)
    if k == 1:
        return Point2(-by, bx)
    if k == 2:
        return Point2(-bx, -by)
    return Point2(by, -bx)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_endpoint_sweep_oracle_matches_tangential_chord(p):
    cp = worst_case_params(p)
    e = cp.explored
    hp = half_perimeter(p)

    # axis pose: upper endpoint with arc distance pi_p - e/2 from (1, 0), so
    # the measure-e arc runs over the top to the endpoint's lower mirror
    lam_a = hp - 0.5 * e
    x_a = find_root_bracketed(lambda x: _upper_point_arc(p, x) - lam_a, 0.0, 1.0, QUAD)
    a_pt = Point2(x_a, _ypow(p, x_a))
    b_pt = _point_at_direct(p, lam_a + e)
    assert b_pt.x == pytest.approx(a_pt.x, abs=1e-9)
    assert b_pt.y == pytest.approx(-a_pt.y, abs=1e-9)

    # rotate both endpoints together by a quarter of pi_p; the midpoint then
    # sweeps the tangential angles [0, pi/4] up to central symmetry
    n = 12
    chords = []
    xs_r = []
    for i in range(n + 1):
        s = 0.25 * hp * i / n
        r_pt = _point_at_direct(p, lam_a + s)
        t_pt = _point_at_direct(p, lam_a + e + s)
        mid = _point_at_direct(p, hp + s)
        theta = math.atan2(-mid.y, -mid.x)  # reflect the midpoint to [0, pi/4]
        assert -1e-9 <= theta <= QUARTER + 1e-9
        chord = lp_norm(p, Point2(r_pt.x - t_pt.x, r_pt.y - t_pt.y))
        chords.append(chord)
        xs_r.append(r_pt.x)
        # two independent routes to the same curve
        assert chord == pytest.approx(
            tangential_chord(p, min(max(theta, 0.0), QUARTER), e), abs=1e-6
        )
    # final pose is the diagonal one (midpoint on the 5*pi/4 ray, which lies
    # on the line y = x): the endpoints swap coordinates
    r_last = _point_at_direct(p, lam_a + 0.25 * hp)
    t_last = _point_at_direct(p, lam_a + e + 0.25 * hp)
    assert t_last.x == pytest.approx(r_last.y, abs=1e-9)
    assert t_last.y == pytest.approx(r_last.x, abs=1e-9)
    assert chords[0] == pytest.approx(tangential_chord(p, 0.0, e), abs=1e-6)
    assert chords[-1] == pytest.approx(tangential_chord(p, QUARTER, e), abs=1e-6)
    # plotting convenience: the stretched angle axis is linear in the
    # endpoint abscissa, exact at the two poses (x_a -> 0, final -> pi/4)
    w_c = xs_r[-1]
    mapped = [(1.0 - (x - w_c) / (x_a - w_c)) * QUARTER for x in xs_r]
    assert mapped[0] == pytest.approx(0.0, abs=1e-9)
    assert mapped[-1] == pytest.approx(QUARTER, abs=1e-9)
    assert all(b >= a - 1e-12 for a, b in zip(mapped, mapped[1:]))
    # the sweep's minimum is the separation of the optimal deployment, and
    # the profile is monotone in the swept angle
    assert min(chords) == pytest.approx(cp.separation, abs=1e-5)
    diffs = [b - a for a, b in zip(chords, chords[1:])]
    if p < 2.0:
        assert all(d >= -1e-9 for d in diffs)
    else:
        assert all(d <= 1e-9 for d in diffs)


def test_square_diameter_any_angle():
    # max-norm circle: every arc of length pi_p spans a diameter chord
    for theta in (0.0, 0.3, QUARTER):
        assert tangential_chord(INF, theta, 4.0) == pytest.approx(2.0, abs=1e-9)
