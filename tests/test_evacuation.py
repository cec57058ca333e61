import math
import random
import warnings

import pytest
from hypothesis import given, strategies as st

from lpevac import (
    INF,
    AlgoParams,
    Branch,
    CirclePoint,
    DomainError,
    Point2,
    aux_root_equation,
    chord_length,
    evac_time,
    half_perimeter,
    optimality_report,
    robot_positions,
    separation,
    simulate_exit,
    tangential_chord_profile,
    unit_circle_point,
    weak_lower_bound,
    worst_case_cost,
    worst_case_grid_oracle,
    worst_case_params,
)
from lpevac import lp_geometry
from lpevac.cli import cmd_cost, cmd_params

QUARTER = math.pi / 4
P_GRID = [1.1, 1.3, 1.5, 1.7, 2.0, 2.5, 3.0, 5.0, 10.0, 20.0]


def test_params_validation():
    with pytest.raises(DomainError):
        AlgoParams(2.0, 1.0)  # past pi/4
    with pytest.raises(DomainError):
        AlgoParams(0.5, 0.0)
    for phi in (-1e-13, QUARTER + 1e-13):  # no slack around [0, pi/4]
        with pytest.raises(DomainError):
            AlgoParams(2.0, phi)
    assert [AlgoParams(2.0, phi).phi for phi in (-0.0, QUARTER)] == [0.0, QUARTER]


class TestRobotPositions:
    def test_start_together(self):
        params = AlgoParams(3.0, QUARTER)
        a, b = robot_positions(params, 0.0)
        dep = unit_circle_point(3.0, QUARTER).point
        for pt in (a, b):
            assert pt.x == pytest.approx(dep.x, abs=1e-12)
            assert pt.y == pytest.approx(dep.y, abs=1e-12)

    def test_l1_axis_after_one(self):
        a, b = robot_positions(AlgoParams(1.0, 0.0), 1.0)
        assert (a.x, a.y) == (pytest.approx(0.5, abs=1e-12), pytest.approx(0.5, abs=1e-12))
        assert (b.x, b.y) == (pytest.approx(0.5, abs=1e-12), pytest.approx(-0.5, abs=1e-12))

    def test_square_diagonal_after_one(self):
        a, b = robot_positions(AlgoParams(INF, QUARTER), 1.0)
        assert (a.x, a.y) == (pytest.approx(0.0, abs=1e-12), pytest.approx(1.0, abs=1e-12))
        assert (b.x, b.y) == (pytest.approx(1.0, abs=1e-12), pytest.approx(0.0, abs=1e-12))

    @given(
        p=st.sampled_from([1.0, 1.5, 2.0, 4.0, INF]),
        frac=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_mirror_symmetry_axis(self, p, frac):
        tau = frac * half_perimeter(p)
        a, b = robot_positions(AlgoParams(p, 0.0), tau)
        assert a.x == b.x and a.y == -b.y

    @given(
        p=st.sampled_from([1.0, 1.5, 2.0, 4.0, INF]),
        frac=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_mirror_symmetry_diagonal(self, p, frac):
        tau = frac * half_perimeter(p)
        a, b = robot_positions(AlgoParams(p, QUARTER), tau)
        assert a.x == pytest.approx(b.y, abs=1e-9)
        assert a.y == pytest.approx(b.x, abs=1e-9)

    def test_rejects_out_of_range_tau(self):
        with pytest.raises(DomainError):
            robot_positions(AlgoParams(2.0, 0.0), 4.0)


class TestSeparation:
    def test_zero_at_start(self):
        assert separation(AlgoParams(2.0, 0.0), 0.0) == 0.0

    def test_l1_axis_is_tau_up_to_two(self):
        params = AlgoParams(1.0, 0.0)
        for tau in (0.0, 0.5, 1.0, 1.7, 2.0):
            assert separation(params, tau) == pytest.approx(tau, abs=1e-12)

    def test_square_diagonal_descends_after_two(self):
        params = AlgoParams(INF, QUARTER)
        for tau in (2.0, 2.6, 3.5, 4.0):
            assert separation(params, tau) == pytest.approx(4.0 - tau, abs=1e-12)

    @pytest.mark.parametrize("p", [1.3, 2.0, 3.0, 8.0])
    def test_axis_closed_form(self, p):
        # distance of mirrored robots is twice the height of the finder
        params = AlgoParams(p, 0.0)
        hp = half_perimeter(p)
        for frac in (0.1, 0.35, 0.5, 0.8):
            tau = frac * hp
            a, _ = robot_positions(params, tau)
            assert separation(params, tau) == pytest.approx(2.0 * abs(a.y), abs=1e-9)

    @pytest.mark.parametrize("p", [1.3, 2.0, 3.0, 8.0])
    def test_diagonal_closed_form(self, p):
        params = AlgoParams(p, QUARTER)
        hp = half_perimeter(p)
        for frac in (0.1, 0.35, 0.5, 0.8):
            tau = frac * hp
            a, _ = robot_positions(params, tau)
            expected = 2.0 ** (1.0 / p) * abs(a.x - a.y)
            assert separation(params, tau) == pytest.approx(expected, abs=1e-9)


class TestEvacTime:
    def test_cost_one_at_deployment(self):
        assert evac_time(AlgoParams(3.0, 0.0), 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_l1_plateau(self):
        params = AlgoParams(1.0, 0.0)
        for tau in (2.0, 2.5, 3.0, 3.9, 4.0):
            assert evac_time(params, tau) == pytest.approx(5.0, abs=1e-12)

    @pytest.mark.parametrize("p", P_GRID)
    @pytest.mark.parametrize("phi", [0.0, QUARTER])
    def test_separation_unimodal(self, p, phi):
        params = AlgoParams(p, phi)
        hp = half_perimeter(p)
        n = 1024
        vals = [separation(params, hp * i / n) for i in range(n + 1)]
        rising = max(max(0.0, vals[i] - vals[i + 1]) for i in range(n // 2))
        falling = max(max(0.0, vals[i + 1] - vals[i]) for i in range(n // 2, n))
        assert rising <= 1e-9
        assert falling <= 1e-9


class TestSimulateExit:
    def test_exit_at_deployment(self):
        params = AlgoParams(2.5, QUARTER)
        out = simulate_exit(params, unit_circle_point(2.5, QUARTER))
        assert out.total_cost == pytest.approx(1.0, abs=1e-9)

    def test_l1_quarter_deployment_far_exit_costs_six(self):
        out = simulate_exit(AlgoParams(1.0, QUARTER), unit_circle_point(1.0, math.pi))
        assert out.tau == pytest.approx(3.0, abs=1e-12)
        assert out.separation == pytest.approx(2.0, abs=1e-12)
        assert out.total_cost == pytest.approx(6.0, abs=1e-12)

    def test_square_plateau_end(self):
        out = simulate_exit(AlgoParams(INF, QUARTER), unit_circle_point(INF, 5 * math.pi / 4))
        assert out.total_cost == pytest.approx(5.0, abs=1e-12)

    def test_euclidean_worst_exit(self):
        exit_phi = math.pi - math.asin(math.sqrt(3.0) / 2.0)
        out = simulate_exit(AlgoParams(2.0, 0.0), unit_circle_point(2.0, exit_phi))
        assert out.total_cost == pytest.approx(
            1.0 + math.sqrt(3.0) + 2.0 * math.pi / 3.0, abs=1e-6
        )

    @pytest.mark.parametrize("p", [1.5, 2.0, INF])
    def test_exit_off_its_angle_is_domain_error(self, p):
        # (0, 1) lies on every C_p, but the point at angle 0 is (1, 0)
        with pytest.raises(DomainError, match="not the point of C_p at angle 0.0"):
            simulate_exit(AlgoParams(p, 0.0), CirclePoint(0.0, Point2(0.0, 1.0)))

    def test_exit_off_the_circle_is_domain_error(self):
        with pytest.raises(DomainError):
            simulate_exit(AlgoParams(2.0, 0.0), CirclePoint(0.0, Point2(1.1, 0.0)))

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, INF])
    def test_cost_identity_random_exits(self, p):
        rng = random.Random(int(p * 1000) if p != INF else 77)
        params = AlgoParams(p, 0.0 if p <= 2 else QUARTER)
        for _ in range(100):
            exit_pt = unit_circle_point(p, rng.uniform(0.0, 2.0 * math.pi))
            out = simulate_exit(params, exit_pt)
            sep = chord_length(p, *out.finder_positions)
            assert out.total_cost == pytest.approx(1.0 + out.tau + sep, abs=1e-9)
            assert 0.0 <= out.tau <= half_perimeter(p) + 1e-9


class TestWorstCaseParams:
    def test_euclidean_axis_branch(self):
        cp = worst_case_params(2.0)
        assert cp.branch is Branch.AXIS
        assert cp.exit_coord == pytest.approx(0.5, abs=1e-12)
        assert cp.explored == pytest.approx(4.0 * math.pi / 3.0, abs=1e-8)
        assert cp.separation == pytest.approx(math.sqrt(3.0), abs=1e-8)

    def test_euclidean_diagonal_branch(self):
        cp = worst_case_params(2.0, Branch.DIAGONAL)
        assert cp.aux_root == pytest.approx(2.0 - math.sqrt(3.0), abs=1e-10)
        assert cp.separation == pytest.approx(math.sqrt(3.0), abs=1e-8)

    def test_branch_continuity_at_two(self):
        axis = worst_case_params(2.0, Branch.AXIS)
        diag = worst_case_params(2.0, Branch.DIAGONAL)
        assert abs(axis.explored - diag.explored) <= 1e-6
        assert abs(axis.separation - diag.separation) <= 1e-6

    def test_branch_forcing_limits(self):
        with pytest.raises(DomainError):
            worst_case_params(3.0, Branch.AXIS)
        with pytest.raises(DomainError):
            worst_case_params(1.5, Branch.DIAGONAL)

    def test_p3_matches_grid_oracle(self):
        cp = worst_case_params(3.0)
        tau_star, cost_star = worst_case_grid_oracle(AlgoParams(3.0, QUARTER), 4096)
        assert 1.0 + 0.5 * cp.explored + cp.separation == pytest.approx(cost_star, abs=1e-6)
        assert tau_star == pytest.approx(0.5 * cp.explored, abs=1e-4)

    def test_p50_matches_grid_oracle(self):
        # Regression pin for the slow p -> inf limit: the separation at
        # p = 50 is 1.9425, not within 0.05 of its limit 2.
        cp = worst_case_params(50.0)
        params = AlgoParams(50.0, QUARTER)
        tau_star, cost_star = worst_case_grid_oracle(params, 4096)
        assert 1.0 + 0.5 * cp.explored + cp.separation == pytest.approx(cost_star, abs=1e-6)
        a, b = robot_positions(params, tau_star)
        assert chord_length(50.0, a, b) == pytest.approx(cp.separation, abs=1e-7)

    @pytest.mark.parametrize("p", P_GRID)
    def test_explored_measure_range(self, p):
        cp = worst_case_params(p)
        hp = half_perimeter(p)
        assert hp + 1e-6 < cp.explored < 2.0 * hp + 1e-9

    @pytest.mark.parametrize("p", P_GRID)
    def test_separation_matches_chord_at_critical_time(self, p):
        cp = worst_case_params(p)
        phi = 0.0 if cp.branch is Branch.AXIS else QUARTER
        a, b = robot_positions(AlgoParams(p, phi), 0.5 * cp.explored)
        assert chord_length(p, a, b) == pytest.approx(cp.separation, abs=1e-7)

    @pytest.mark.parametrize("p", [2.1, 2.5, 3.0, 5.0, 12.0, 20.0])
    def test_aux_root_unique_sign_change(self, p):
        cp = worst_case_params(p)
        assert abs(aux_root_equation(p, cp.aux_root)) <= 1e-10
        n = 10**4
        changes = 0
        prev = aux_root_equation(p, 1.0 / n)
        for i in range(2, n):
            cur = aux_root_equation(p, i / n)
            if (prev < 0) != (cur < 0):
                changes += 1
            prev = cur
        assert changes == 1

    @pytest.mark.parametrize("p", [1e240, 1e250, 1e300, 1.7976931348623157e308])
    def test_aux_root_at_extreme_p(self, p):
        # w^p underflows, so the root solves (1 - w)^p = 1/2 exactly; Brent
        # takes 800 to 1,030 evaluations to bisect down to it from [0, 1/2].
        expected = -math.expm1(-math.log(2.0) / p)
        assert abs(worst_case_params(p).aux_root - expected) <= 2.0 * math.ulp(expected)

    @pytest.mark.parametrize("p", [1.001, 1.5, 2.0, 3.0, 45.0])
    def test_arc_lengths_come_from_the_chart(self, p, monkeypatch):
        # pi_p is the only quadrature; H(s) of the closed forms is the chart's
        half_perimeter(p)
        calls = []
        integrate = lp_geometry.integrate_adaptive

        def counted(*args):
            calls.append(args)
            return integrate(*args)

        monkeypatch.setattr(lp_geometry, "integrate_adaptive", counted)
        worst_case_params(p)
        assert calls == []

    def test_degenerate_limits(self):
        one = worst_case_params(1.0)
        assert (one.explored, one.separation) == (4.8, 1.6)
        inf = worst_case_params(INF)
        assert (inf.explored, inf.separation) == (4.0, 2.0)


LARGE_P_CALLS = {
    "worst_case_params": lambda: worst_case_params(100.0),
    "worst_case_cost": lambda: worst_case_cost(100.0),
    "optimality_report": lambda: optimality_report(100.0),
    "cmd_cost": lambda: cmd_cost(100.0, 100.0, 1),
    "cmd_params": lambda: cmd_params(100.0),
    "tangential_chord_profile": lambda: tangential_chord_profile(
        100.0, worst_case_params(100.0).explored, 64
    ),
}


@pytest.mark.parametrize("name", LARGE_P_CALLS)
def test_large_p_warns_nothing(name):
    # Every p in [1, inf] is computed to full precision; none is flagged.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        LARGE_P_CALLS[name]()


class TestWorstCaseCost:
    def test_extremes_exactly_five(self):
        assert worst_case_cost(1.0) == 5.0
        assert worst_case_cost(INF) == 5.0

    def test_euclidean(self):
        expected = 1.0 + math.sqrt(3.0) + 2.0 * math.pi / 3.0
        assert worst_case_cost(2.0) == pytest.approx(expected, abs=1e-5)

    def test_large_p(self):
        assert worst_case_cost(1000.0) == pytest.approx(4.9993023351, abs=1e-5)

    @pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 3.0, 10.0])
    def test_matches_grid_oracle(self, p):
        phi = 0.0 if p <= 2.0 else QUARTER
        tau_star, cost = worst_case_grid_oracle(AlgoParams(p, phi), 2048)
        assert worst_case_cost(p) == pytest.approx(cost, abs=1e-6)
        assert tau_star == pytest.approx(0.5 * worst_case_params(p).explored, abs=1e-6)

    @pytest.mark.parametrize("p", [1.3e16, 1e17])
    def test_beyond_fold_rounding_is_the_square(self, p):
        # 2^(-1/p) rounds to 1 above p = ln 2 * 2^54, about 1.25e16
        assert worst_case_cost(p) == pytest.approx(5.0, abs=1e-12)
        _, cost = worst_case_grid_oracle(AlgoParams(p, QUARTER), 1024)
        assert cost == pytest.approx(5.0, abs=1e-9)

    @pytest.mark.parametrize("p", [7161434102129027.0, 1.1350108156723144e16])
    def test_never_below_weak_bound(self, p):
        # Here the closed form rounds to 4.999999999999999, one ulp below 1 + pi_p = 5.0.
        assert worst_case_cost(p) >= weak_lower_bound(p)

    def test_oracle_for_extremes(self):
        _, c1 = worst_case_grid_oracle(AlgoParams(1.0, 0.0), 1024)
        assert c1 == pytest.approx(5.0, abs=1e-9)
        _, cinf = worst_case_grid_oracle(AlgoParams(INF, QUARTER), 1024)
        assert cinf == pytest.approx(5.0, abs=1e-9)


def _exit_at(p, s):
    # the exit at chart coordinate s, the point (-s, (1 - |s|^p)^(1/p))
    return unit_circle_point(p, math.atan2((1.0 - abs(s) ** p) ** (1.0 / p), -s))


class TestCostCurves:
    """The evacuation time of each canonical deployment over the search,
    from the simulation, against the closed-form worst case."""

    def test_axis_endpoints(self):
        # the exit at (0, 1) is found at tau = pi/2, the one at (-1, 0) at tau = pi
        params = AlgoParams(2.0, 0.0)
        assert evac_time(params, math.pi / 2.0) == pytest.approx(1.0 + math.pi / 2.0 + 2.0, abs=1e-10)
        assert evac_time(params, math.pi) == pytest.approx(1.0 + math.pi, abs=1e-10)

    def test_axis_profile_peaks_at_critical_coord(self):
        p = 1.7
        cp = worst_case_params(p)
        outcome = simulate_exit(AlgoParams(p, 0.0), _exit_at(p, cp.exit_coord))
        assert outcome.total_cost == pytest.approx(worst_case_cost(p), abs=1e-8)

    @pytest.mark.parametrize("p", [1.2, 1.5, 1.8, 2.0])
    def test_axis_derivative_vanishes_at_peak(self, p):
        params = AlgoParams(p, 0.0)
        tau = simulate_exit(params, _exit_at(p, worst_case_params(p).exit_coord)).tau
        h = 1e-6
        diff = (evac_time(params, tau + h) - evac_time(params, tau - h)) / (2.0 * h)
        assert abs(diff) <= 1e-4

    def test_diagonal_q2_matches_worst_case(self):
        p = 3.0
        cp = worst_case_params(p)
        outcome = simulate_exit(AlgoParams(p, QUARTER), _exit_at(p, cp.exit_coord))
        assert outcome.total_cost == pytest.approx(1.0 + 0.5 * cp.explored + cp.separation, abs=1e-10)

    @pytest.mark.parametrize("p", [2.1, 2.5, 3.0, 5.0, 12.0, 20.0])
    def test_diagonal_q3_has_no_interior_critical_point(self, p):
        # exits in the third quadrant are found from tau = 3 pi_p / 4, at
        # (-1, 0), to tau = pi_p, opposite the deployment
        params = AlgoParams(p, QUARTER)
        hp = half_perimeter(p)
        lo, hi = 0.75 * hp + 1e-9, hp - 1e-9
        h = 1e-7
        signs = set()
        for i in range(101):
            tau = lo + (hi - lo) * i / 100
            a = max(tau - h, lo)
            b = min(tau + h, hi)
            d = (evac_time(params, b) - evac_time(params, a)) / (b - a)
            signs.add(d > 0)
        assert len(signs) == 1
