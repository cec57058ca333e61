import heapq
import math
import re

import pytest
from hypothesis import given, strategies as st

from lpevac.numerics import (
    BracketError,
    IntegrationError,
    Tolerance,
    find_root_bracketed,
    integrate_adaptive,
    maximize_1d,
)
from lpevac import numerics
from lpevac.numerics import _gk15

TOL = Tolerance(abs_tol=1e-10, rel_tol=1e-10, max_iter=60)


def _panel(g):
    # The panel integrand of a scalar g: g mapped over a panel's abscissae.
    return lambda xs: [g(x) for x in xs]


class TestTolerance:
    def test_defaults(self):
        t = Tolerance()
        assert t.abs_tol == 1e-10 and t.rel_tol == 1e-10 and t.max_iter == 60

    @pytest.mark.parametrize(
        "kwargs",
        [dict(abs_tol=0.0), dict(abs_tol=-1e-3), dict(rel_tol=-1e-12), dict(max_iter=0)],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            Tolerance(**kwargs)


class TestGK15Panel:
    # On [-1, 1] the nodes are the rule's own abscissae, unrounded.
    @staticmethod
    def _moment(d):
        return 2.0 / (d + 1) if d % 2 == 0 else 0.0

    @pytest.mark.parametrize("d", range(23))
    def test_kronrod_exact_to_degree_22(self, d):
        est, _ = _gk15(_panel(lambda x: x**d), -1.0, 1.0)
        assert abs(est - self._moment(d)) <= 4.0 * math.ulp(2.0 / (d + 1))

    @pytest.mark.parametrize("d", range(14))
    def test_gauss_exact_to_degree_13(self, d):
        # The error estimate is |K15 - G7|; both rules are exact here.
        _, err = _gk15(_panel(lambda x: x**d), -1.0, 1.0)
        assert err <= 4.0 * math.ulp(2.0 / (d + 1))

    def test_exactness_ends_where_the_theory_says(self):
        k24, _ = _gk15(_panel(lambda x: x**24), -1.0, 1.0)
        assert abs(k24 - self._moment(24)) > 1e-10
        _, err14 = _gk15(_panel(lambda x: x**14), -1.0, 1.0)
        assert err14 > 1e-6


def _assert_message_bounds_the_error(error, exact):
    # the message names the depth reached, the estimate and its error bound
    pattern = r"no convergence after 2 subdivision levels on \[.+\] \(estimate (.+), bound (.+)\)"
    m = re.fullmatch(pattern, str(error))
    estimate, bound = map(float, m.groups())
    assert abs(estimate - exact) <= bound + 1e-6


class TestIntegrateAdaptive:
    def test_constant(self):
        assert integrate_adaptive(_panel(lambda x: 1.0), 0.0, 2.0, TOL) == pytest.approx(2.0, abs=1e-12)

    def test_linear(self):
        assert integrate_adaptive(_panel(lambda x: x), 0.0, 1.0, TOL) == pytest.approx(0.5, abs=1e-12)

    def test_euclidean_quarter_arc(self):
        # chart speed of the p=2 circle over the folded segment gives pi/4
        p = 2.0

        def f(z):
            return (z ** (p * p - p) * (1 - z**p) ** (1 - p) + 1.0) ** (1.0 / p)

        val = integrate_adaptive(_panel(f), 0.0, 2 ** (-0.5), TOL)
        assert val == pytest.approx(math.pi / 4, abs=1e-10)

    def test_empty_interval(self):
        assert integrate_adaptive(_panel(math.sin), 1.3, 1.3, TOL) == 0.0

    def test_rejects_reversed_bounds(self):
        with pytest.raises(ValueError):
            integrate_adaptive(_panel(math.sin), 1.0, 0.0, TOL)

    def test_depth_exhaustion_carries_estimate(self):
        tiny_budget = Tolerance(abs_tol=1e-15, rel_tol=0.0, max_iter=2)
        with pytest.raises(IntegrationError) as exc:
            integrate_adaptive(_panel(lambda x: math.sin(40.0 * x) ** 2), 0.0, 3.0, tiny_budget)
        _assert_message_bounds_the_error(exc.value, 1.5 - math.sin(240.0) / 160.0)

    @given(b=st.floats(min_value=0.2, max_value=2.8))
    def test_additive_on_smooth_integrand(self, b):
        f = _panel(lambda x: math.exp(-x) * math.cos(3.0 * x))
        whole = integrate_adaptive(f, 0.0, 3.0, TOL)
        split = integrate_adaptive(f, 0.0, b, TOL) + integrate_adaptive(f, b, 3.0, TOL)
        assert abs(whole - split) <= 2.0 * TOL.abs_tol

    def test_calls_f_once_per_panel_with_its_nodes(self, monkeypatch):
        # The panel contract: one call of f per GK15 panel, given the 15
        # abscissae of _NODES mapped onto that panel, in that order.
        panels = []
        gk15 = numerics._gk15

        def recorded(f, a, b):
            panels.append((a, b))
            return gk15(f, a, b)

        monkeypatch.setattr(numerics, "_gk15", recorded)
        calls = []

        def f(xs):
            calls.append(list(xs))
            return [math.sin(40.0 * x) ** 2 for x in xs]

        integrate_adaptive(f, 0.0, 3.0, TOL, points=[1.0, 2.0])
        assert len(panels) > 3
        assert len(calls) == len(panels)
        for xs, (a, b) in zip(calls, panels):
            c, h = 0.5 * (a + b), 0.5 * (b - a)
            assert xs == [c + h * x for x in numerics._NODES]
            assert a < xs[0] < xs[7] == c < xs[-1] < b


def _bisection_from_one_panel(f, a, b, tol):
    # The quadrature before break points: one GK15 panel on [a, b], then
    # bisection of the worst panel, as integrate_adaptive still runs it.
    est, err = _gk15(f, a, b)
    total_est, total_err = est, err
    heap = [(-err, a, b, est, err)]
    while total_err > max(tol.abs_tol, tol.rel_tol * abs(total_est)):
        _, a0, b0, est0, err0 = heapq.heappop(heap)
        mid = 0.5 * (a0 + b0)
        e1, r1 = _gk15(f, a0, mid)
        e2, r2 = _gk15(f, mid, b0)
        total_est += e1 + e2 - est0
        total_err += r1 + r2 - err0
        heapq.heappush(heap, (-r1, a0, mid, e1, r1))
        heapq.heappush(heap, (-r2, mid, b0, e2, r2))
    return total_est


def _counted(monkeypatch):
    # Count the GK15 panels integrate_adaptive evaluates.
    calls = [0]
    gk15 = numerics._gk15

    def counted(f, a, b):
        calls[0] += 1
        return gk15(f, a, b)

    monkeypatch.setattr(numerics, "_gk15", counted)
    return calls


INTEGRANDS = [
    # Scalar integrands, so the test ids name them; each test wraps one in _panel.
    (math.sin, 0.0, 3.0),
    (lambda x: math.exp(-x) * math.cos(3.0 * x), 0.0, 3.0),
    (math.sqrt, 0.0, 2.0),
    (lambda x: 1.0 / (1.0 + 25.0 * x * x), -1.0, 1.0),
    (lambda z: (z**6 * (1.0 - z**3) ** -2.0 + 1.0) ** (1.0 / 3.0), 0.0, 2.0 ** (-1.0 / 3.0)),
]


class TestBreakPoints:
    @pytest.mark.parametrize("f, a, b", INTEGRANDS)
    def test_no_points_is_the_bisection_bit_for_bit(self, f, a, b):
        f = _panel(f)
        ref = _bisection_from_one_panel(f, a, b, TOL)
        assert integrate_adaptive(f, a, b, TOL) == ref
        assert integrate_adaptive(f, a, b, TOL, points=()) == ref

    @pytest.mark.parametrize("f, a, b", INTEGRANDS)
    def test_points_outside_or_at_the_ends_are_ignored(self, f, a, b, monkeypatch):
        f = _panel(f)
        calls = _counted(monkeypatch)
        ref = integrate_adaptive(f, a, b, TOL)
        panels = calls[0]
        calls[0] = 0
        ignored = [a, b, a - 1.0, b + 1.0, a, b, math.nan, -math.inf, math.inf]
        assert integrate_adaptive(f, a, b, TOL, points=ignored) == ref
        assert calls[0] == panels

    @pytest.mark.parametrize("f, a, b", INTEGRANDS)
    def test_repeated_points_count_once(self, f, a, b, monkeypatch):
        f = _panel(f)
        calls = _counted(monkeypatch)
        third, half = a + (b - a) / 3.0, 0.5 * (a + b)
        ref = integrate_adaptive(f, a, b, TOL, points=[third, half])
        panels = calls[0]
        calls[0] = 0
        repeated = [half, third, half, third, third, b, half]
        assert integrate_adaptive(f, a, b, TOL, points=repeated) == ref
        assert calls[0] == panels

    @pytest.mark.parametrize("c", [0.3, 1.3, 2.0 / 3.0, math.pi / 2.0])
    def test_kink_at_a_break_point_takes_two_panels(self, c, monkeypatch):
        # |x - c| is linear on either side of c: GK15 is exact on each piece,
        # so no panel is bisected.
        calls = _counted(monkeypatch)
        f = _panel(lambda x: abs(x - c))
        value = integrate_adaptive(f, 0.0, 3.0, TOL, points=[c])
        assert calls[0] == 2
        exact = 0.5 * c * c + 0.5 * (3.0 - c) ** 2
        assert abs(value - exact) <= 4.0 * math.ulp(exact)

    def test_kink_without_the_break_point_needs_bisection(self, monkeypatch):
        calls = _counted(monkeypatch)
        integrate_adaptive(_panel(lambda x: abs(x - 1.3)), 0.0, 3.0, TOL)
        assert calls[0] > 2

    def test_pieces_share_one_error_target(self, monkeypatch):
        # Break points only seed the heap: the bisection that follows stops
        # on the summed estimate, so an unresolved piece is still bisected.
        calls = _counted(monkeypatch)
        f = _panel(lambda x: math.sin(40.0 * x) ** 2)
        value = integrate_adaptive(f, 0.0, 3.0, TOL, points=[1.0, 2.0])
        assert calls[0] > 3
        assert abs(value - (1.5 - math.sin(240.0) / 160.0)) <= 1e-9

    def test_depth_exhaustion_still_raises(self):
        tiny_budget = Tolerance(abs_tol=1e-15, rel_tol=0.0, max_iter=2)
        with pytest.raises(IntegrationError) as exc:
            integrate_adaptive(
                _panel(lambda x: math.sin(40.0 * x) ** 2), 0.0, 3.0, tiny_budget, points=[1.0, 2.0]
            )
        _assert_message_bounds_the_error(exc.value, 1.5 - math.sin(240.0) / 160.0)


class TestFindRootBracketed:
    def test_linear(self):
        r = find_root_bracketed(lambda x: x - 0.5, 0.0, 1.0, TOL)
        assert type(r) is float
        assert r == pytest.approx(0.5, abs=1e-10)

    def test_quadratic_analytic(self):
        # w^2 + 1 - 2(1-w)^2 = 0 on [0, 1] solves w^2 - 4w + 1 = 0
        r = find_root_bracketed(lambda w: w * w + 1 - 2 * (1 - w) ** 2, 0.0, 1.0, TOL)
        assert r == pytest.approx(2.0 - math.sqrt(3.0), abs=1e-10)

    def test_cubic_matches_scan_oracle(self):
        f = lambda w: w**3 + 1 - 2 * (1 - w) ** 3
        # oracle: 1e6-step uniform scan, then interval halving on the
        # sign-change cell (frozen result 0.20405781723545574)
        n = 10**6
        prev = f(0.0)
        lo = hi = None
        for i in range(1, n + 1):
            cur = f(i / n)
            if (prev < 0) != (cur < 0):
                lo, hi = (i - 1) / n, i / n
                break
            prev = cur
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if (f(lo) < 0) != (f(mid) < 0):
                hi = mid
            else:
                lo = mid
        oracle = 0.5 * (lo + hi)
        assert oracle == pytest.approx(0.20405781723545574, abs=1e-12)
        r = find_root_bracketed(f, 0.0, 1.0, TOL)
        assert r == pytest.approx(oracle, abs=1e-10)

    def test_budget_bounds_the_evaluations(self):
        # two evaluations at the ends, then one per step: max_iter is the cap
        # (a triple root takes Brent 150 steps to reach at this abs_tol), and
        # running out of it is an error, not a silent estimate
        calls = []

        def f(x):
            calls.append(x)
            return (x - 1.0 / 3.0) ** 3

        with pytest.raises(RuntimeError, match="after 3 steps, between"):
            find_root_bracketed(f, 0.0, 1.0, Tolerance(1e-300, 0.0, max_iter=3))
        assert 3 < len(calls) <= 2 + 3

    def test_root_on_the_last_step_returns(self):
        # the secant step from the ends lands on the root exactly; the stop
        # test runs after that last evaluation
        calls = []

        def f(x):
            calls.append(x)
            return x - 0.5

        r = find_root_bracketed(f, 0.0, 1.0, Tolerance(1e-300, 0.0, max_iter=1))
        assert r == 0.5
        assert calls == [0.0, 1.0, 0.5]

    def test_rejects_unbracketed(self):
        with pytest.raises(BracketError):
            find_root_bracketed(lambda x: x + 2.0, 0.0, 1.0, TOL)

    @given(
        root=st.floats(min_value=-0.9, max_value=0.9),
        scale=st.floats(min_value=0.1, max_value=50.0),
    )
    def test_result_inside_bracket_with_small_residual(self, root, scale):
        # f changes sign only at root, so a bracket below abs_tol wide puts
        # the result within abs_tol of it
        f = lambda x: scale * (x - root) ** 3
        r = find_root_bracketed(f, -1.0, 1.0, TOL)
        assert -1.0 <= r <= 1.0
        assert abs(f(r)) <= TOL.abs_tol or abs(r - root) <= 2 * TOL.abs_tol


class TestMaximize1d:
    def test_parabola(self):
        x, v = maximize_1d(lambda x: -((x - 0.3) ** 2), 0.0, 1.0, TOL)
        assert x == pytest.approx(0.3, abs=1e-8)
        assert v == pytest.approx(0.0, abs=1e-8)

    def test_sine(self):
        x, v = maximize_1d(math.sin, 0.0, math.pi, TOL)
        assert x == pytest.approx(math.pi / 2, abs=1e-8)
        assert v == pytest.approx(1.0, abs=1e-8)

    def test_budget_bounds_the_evaluations(self):
        # the grid, the two golden points, then one per step
        calls = []

        def f(x):
            calls.append(x)
            return -((x - 0.3) ** 2)

        maximize_1d(f, 0.0, 1.0, Tolerance(1e-300, 0.0, max_iter=3), n_grid=16)
        assert 16 + 1 + 2 < len(calls) <= 16 + 1 + 2 + 3

    def test_degenerate_interval(self):
        assert maximize_1d(math.cos, 0.7, 0.7, TOL) == (0.7, math.cos(0.7))

    @pytest.mark.parametrize("n_grid", [1, 0, -7])
    def test_grid_below_two_cells_is_value_error(self, n_grid):
        with pytest.raises(ValueError, match="at least 2 grid cells, got"):
            maximize_1d(math.sin, 0.0, math.pi, TOL, n_grid=n_grid)

    def test_fractional_grid_is_type_error(self):
        with pytest.raises(TypeError):
            maximize_1d(math.sin, 0.0, math.pi, TOL, n_grid=2.9)

    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_dominates_random_probes(self, seed):
        import random

        rng = random.Random(seed)
        f = lambda x: math.sin(5.0 * x) + 0.3 * math.cos(11.0 * x)
        _, v = maximize_1d(f, 0.0, 2.0, TOL, n_grid=1024)
        for _ in range(10):
            assert v >= f(rng.uniform(0.0, 2.0)) - TOL.abs_tol
