"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the lines on
passing runs too).
"""
import math
import time

from lpevac import (
    INF,
    AlgoParams,
    Branch,
    Direction,
    Tolerance,
    half_perimeter,
    maximize_1d,
    min_chord,
    optimality_report,
    point_at_arc_length,
    separation,
    simulate_exit,
    unit_circle_point,
    verify_min_chord_monotone,
    verify_tangential_chord_monotone,
    weak_lower_bound,
    worst_case_cost,
    worst_case_grid_oracle,
    worst_case_params,
)

QUARTER = math.pi / 4
P_SET = [1.1, 1.3, 1.5, 1.7, 2.0, 2.5, 3.0, 5.0, 10.0, 20.0]


def _report(num: int, label: str, started: float, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {num:02d}] {status} {label} ({time.time() - started:.1f}s)")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def test_criterion_01_perimeter_constants():
    t0 = time.time()
    failures = []
    if half_perimeter(1.0) != 4.0:
        failures.append("pi_1 != 4")
    if half_perimeter(INF) != 4.0:
        failures.append("pi_inf != 4")
    if abs(half_perimeter(2.0) - math.pi) > 1e-9:
        failures.append("pi_2 off")
    for p in (1.25, 1.5, 3.0, 4.0, 8.0):
        if abs(half_perimeter(p) - half_perimeter(p / (p - 1.0))) > 1e-8:
            failures.append(f"conjugate symmetry broken at p={p}")
    for i in range(200):
        p = 1.01 + (45.0 - 1.01) * i / 199
        if half_perimeter(p) < math.pi - 1e-9:
            failures.append(f"pi_p below pi at p={p}")
            break
    _report(1, "perimeter constants", t0, failures)


def test_criterion_02_endpoint_costs():
    t0 = time.time()
    failures = []
    if worst_case_cost(1.0) != 5.0:
        failures.append("cost(1) != 5")
    if worst_case_cost(INF) != 5.0:
        failures.append("cost(inf) != 5")
    for p, phi in ((1.0, 0.0), (INF, QUARTER)):
        _, cost = worst_case_grid_oracle(AlgoParams(p, phi), 1024)
        if abs(cost - 5.0) > 1e-9:
            failures.append(f"grid oracle off at p={p}: {cost}")
    _report(2, "endpoint costs are exactly 5", t0, failures)


def test_criterion_03_euclidean_anchor():
    t0 = time.time()
    failures = []
    expected = 1.0 + math.sqrt(3.0) + 2.0 * math.pi / 3.0
    if abs(worst_case_cost(2.0) - expected) > 1e-5:
        failures.append("cost(2) off")
    cp = worst_case_params(2.0)
    if abs(cp.explored - 4.0 * math.pi / 3.0) > 1e-8:
        failures.append(f"explored measure off: {cp.explored}")
    if abs(cp.separation - math.sqrt(3.0)) > 1e-8:
        failures.append(f"separation off: {cp.separation}")
    frac = cp.explored / (2.0 * half_perimeter(2.0))
    if abs(frac - 2.0 / 3.0) > 1e-6:
        failures.append(f"explored fraction off: {frac}")
    _report(3, "euclidean anchor values", t0, failures)


def test_criterion_04_branch_continuity_at_two():
    t0 = time.time()
    failures = []
    axis = worst_case_params(2.0, Branch.AXIS)
    diag = worst_case_params(2.0, Branch.DIAGONAL)
    if abs(axis.explored - diag.explored) > 1e-6:
        failures.append(f"explored branches differ: {axis.explored} vs {diag.explored}")
    if abs(axis.separation - diag.separation) > 1e-6:
        failures.append(
            f"separation branches differ: {axis.separation} vs {diag.separation}"
        )
    _report(4, "branch continuity at p=2", t0, failures)


def _min_cost_over(p_lo: float, p_hi: float) -> tuple[float, float]:
    n = 400
    grid = [p_lo + (p_hi - p_lo) * i / n for i in range(n + 1)]
    vals = [worst_case_cost(p) for p in grid]
    i = min(range(n + 1), key=vals.__getitem__)
    lo = grid[i - 1] if i > 0 else p_lo
    hi = grid[i + 1] if i < n else p_hi
    x, neg = maximize_1d(
        lambda p: -worst_case_cost(p), lo, hi, Tolerance(1e-10, 0.0, 60), n_grid=64
    )
    if -neg <= vals[i]:
        return x, -neg
    return grid[i], vals[i]


def test_criterion_05_cost_curve_minima():
    t0 = time.time()
    failures = []
    p1, v1 = _min_cost_over(1.0, 2.0)
    if abs(v1 - 4.7544) > 1e-3:
        failures.append(f"min cost on [1,2] = {v1}")
    if abs(p1 - 1.5328) > 2e-3:
        failures.append(f"argmin on [1,2] = {p1}")
    p2, v2 = _min_cost_over(2.0, 16.0)
    if abs(v2 - 4.7784) > 1e-3:
        failures.append(f"min cost on [2,16] = {v2}")
    if abs(p2 - 2.6930) > 2e-3:
        failures.append(f"argmin on [2,16] = {p2}")
    _report(5, "cost curve minima and locations", t0, failures)


def test_criterion_06_large_p_anchor():
    t0 = time.time()
    failures = []
    upper = worst_case_cost(1000.0)
    weak = weak_lower_bound(1000.0)
    if abs(upper - 4.9993023351) > 1e-5:
        failures.append(f"cost(1000) = {upper}")
    if abs(weak - 4.9972283728) > 1e-5:
        failures.append(f"weak bound(1000) = {weak}")
    if upper - weak > 0.0021:
        failures.append(f"additive gap = {upper - weak}")
    _report(6, "large-p anchor at p=1000", t0, failures)


def test_criterion_07_closed_form_vs_oracle():
    t0 = time.time()
    failures = []
    for p in P_SET:
        phi = 0.0 if p <= 2.0 else QUARTER
        _, cost = worst_case_grid_oracle(AlgoParams(p, phi), 4096)
        if abs(worst_case_cost(p) - cost) > 1e-5:
            failures.append(f"p={p}: closed {worst_case_cost(p)} vs oracle {cost}")
    _report(7, "closed form matches 4096-point grid oracle", t0, failures)


def test_criterion_08_separation_unimodality():
    t0 = time.time()
    failures = []
    for p in P_SET:
        for phi in (0.0, QUARTER):
            params = AlgoParams(p, phi)
            hp = half_perimeter(p)
            n = 1024
            vals = [separation(params, hp * i / n) for i in range(n + 1)]
            rising = max(max(0.0, vals[i] - vals[i + 1]) for i in range(n // 2))
            falling = max(max(0.0, vals[i + 1] - vals[i]) for i in range(n // 2, n))
            if rising > 1e-9 or falling > 1e-9:
                failures.append(f"p={p} phi={phi}: viol {max(rising, falling)}")
    _report(8, "separation rises then falls", t0, failures)


def test_criterion_09_min_chord_anchors_and_monotonicity():
    t0 = time.time()
    failures = []
    for i in range(100):
        u = math.pi * (i + 0.5) / 100
        if abs(min_chord(2.0, u) - 2.0 * math.sin(u / 2.0)) > 1e-7:
            failures.append(f"euclidean min chord off at u={u}")
            break
    for p in P_SET:
        if abs(min_chord(p, half_perimeter(p)) - 2.0) > 1e-7:
            failures.append(f"diameter off at p={p}")
    for p in P_SET:
        rep = verify_min_chord_monotone(p, 512, 1e-9)
        if not rep.passed:
            failures.append(f"monotonicity failed at p={p}: {rep.max_violation}")
    _report(9, "min chord anchors and monotonicity", t0, failures)


def test_criterion_10_optimality():
    t0 = time.time()
    failures = []
    for p in (1.1, 1.25, 1.5, 1.75, 2.5, 3.0, 5.0, 10.0, 20.0):
        cp = worst_case_params(p)
        gap_chord = abs(min_chord(p, cp.explored) - cp.separation)
        if gap_chord > 1e-5:
            failures.append(f"p={p}: min chord vs separation {gap_chord}")
        rep = optimality_report(p)
        if abs(rep.gap) > 1e-4:
            failures.append(f"p={p}: bound gap {rep.gap}")
    _report(10, "upper and lower bounds coincide", t0, failures)


def test_criterion_11_tangential_chord_monotonicity():
    t0 = time.time()
    failures = []
    for p in (1.1, 1.5, 1.9):
        rep = verify_tangential_chord_monotone(p, 512, 1e-9)
        if not (rep.passed and rep.direction is Direction.INCREASING):
            failures.append(f"p={p} expected increasing: {rep}")
    for p in (2.1, 3.0, 10.0, 20.0):
        rep = verify_tangential_chord_monotone(p, 512, 1e-9)
        if not (rep.passed and rep.direction is Direction.DECREASING):
            failures.append(f"p={p} expected decreasing: {rep}")
    rep = verify_tangential_chord_monotone(2.0, 512, 1e-6)
    if not rep.passed:
        failures.append(f"p=2 profile range {rep.max_violation}")
    _report(11, "tangential chord monotone directions", t0, failures)


def test_criterion_12_limit_behavior():
    # Limits of the per-searcher search time (half the explored measure)
    # and the separation: 12/5 and 8/5 as p -> 1, both 2 as p -> inf.
    t0 = time.time()
    failures = []
    cp = worst_case_params(1.001)
    if abs(0.5 * cp.explored - 12.0 / 5.0) > 0.02:
        failures.append(f"p=1.001 search time {0.5 * cp.explored} vs 12/5")
    if abs(cp.separation - 8.0 / 5.0) > 0.02:
        failures.append(f"p=1.001 separation {cp.separation} vs 8/5")
    # The separation tends to 2 only at a rate of about ln p / p, so it is
    # checked by its value at p=50, a monotone approach and that rate.
    ladder = [50.0, 100.0, 200.0, 500.0, 1000.0]
    cp50 = worst_case_params(50.0)
    frac = cp50.explored / (2.0 * half_perimeter(50.0))
    gaps = [2.0 - worst_case_params(p).separation for p in ladder]
    if abs(0.5 * cp50.explored - 2.0) > 0.05:
        failures.append(f"p=50 search time {0.5 * cp50.explored} vs 2")
    # gamma_50 from three computations: the closed form (through the
    # auxiliary root) 1.9425199101786; the chord at the maximiser of
    # worst_case_grid_oracle (no root equation) 1.9425199112; a 30-digit
    # mpmath golden-section maximisation of the diagonal cost curve over
    # the chart coordinate 1.94251991017857.
    if abs(cp50.separation - 1.94251991018) > 1e-9:
        failures.append(f"p=50 separation {cp50.separation} vs 1.94251991018")
    for p, gap, prev in zip(ladder, gaps, [math.inf] + gaps):
        if not 0.0 < gap < prev:
            failures.append(f"p={p} separation gap {gap} not in (0, {prev})")
        if gap > math.log(p) / p:
            failures.append(f"p={p} separation gap {gap} above ln p / p")
    if abs(frac - 0.5) > 0.02:
        failures.append(f"p=50 explored fraction {frac} vs 1/2")
    _report(12, "limit behavior toward p=1 and p=inf", t0, failures)


def test_criterion_13_known_cost_simulations():
    t0 = time.time()
    failures = []
    out = simulate_exit(AlgoParams(1.0, QUARTER), unit_circle_point(1.0, math.pi))
    if abs(out.total_cost - 6.0) > 1e-9:
        failures.append(f"diagonal deployment far exit cost {out.total_cost}")
    params = AlgoParams(1.0, 0.0)
    for i in range(20):
        tau = 2.0 + 2.0 * i / 19
        exit_pt = point_at_arc_length(1.0, 0.0, tau)
        out = simulate_exit(params, exit_pt)
        if abs(out.total_cost - 5.0) > 1e-9:
            failures.append(f"plateau exit at tau={tau}: cost {out.total_cost}")
            break
    _report(13, "known-cost exit simulations", t0, failures)
