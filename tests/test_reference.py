"""pi_p, e_p, gamma_p, the worst-case cost and the chart's arc length H
against a high-precision fixture and the independent quadrature.

``tests/data/reference.json`` holds mpmath values at 20 digits, written by
``tools/make_reference.py``; this module reads only the JSON.  It also
holds the diagonal deployment's aux root for p >= 2, up to p = 1e15, and
the axis deployment's exit coordinate down to p = 1 + 2^-52.
"""
import json
import math
from functools import partial
from pathlib import Path

import pytest

from lpevac import Branch, half_perimeter, min_chord, worst_case_cost, worst_case_params
from lpevac import lp_geometry
from lpevac.lp_geometry import _QUAD_TOL, _Chart, _chart, _knee, _speeds
from lpevac.numerics import integrate_adaptive

# Every row is within 4e-16 but p = 1e4, where pi_p takes two GK15 panels,
# the knee alone, and is 5.6e-16 off; its e_p is 1.1e-15 off.
REL_TOL = 1.5e-15
FIXTURE = json.loads((Path(__file__).parent / "data" / "reference.json").read_text())
ROWS = FIXTURE["values"]


def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def test_fixture_spans_the_p_range():
    ps = [row["p"] for row in ROWS]
    assert min(ps) <= 1.001 and max(ps) >= 1e4


@pytest.mark.parametrize("row", ROWS, ids=lambda row: f"p={row['p']}")
class TestAgainstReference:
    def test_half_perimeter(self, row):
        assert _rel(half_perimeter(row["p"]), row["pi"]) <= REL_TOL

    def test_critical_params(self, row):
        cp = worst_case_params(row["p"])
        assert _rel(cp.explored, row["e"]) <= REL_TOL
        assert _rel(cp.separation, row["gamma"]) <= REL_TOL

    def test_min_chord_at_explored_measure(self, row):
        # the midpoint scan reaches the true minimum chord at every fixture p
        assert _rel(min_chord(row["p"], row["e"]), row["gamma"]) <= REL_TOL

    def test_worst_case_cost(self, row):
        assert _rel(worst_case_cost(row["p"]), row["cost"]) <= REL_TOL

    def test_chart_agrees_with_quadrature(self, row):
        p = row["p"]
        assert _rel(4.0 * _chart(p).eighth, half_perimeter(p)) <= REL_TOL

    def test_chart_arc_at_interior_points(self, row):
        ch = _chart(row["p"])
        for x, ref in row["arc"]:
            assert abs(ch.arc(x) - ref) <= 1e-15 * ch.eighth


@pytest.mark.parametrize("row", ROWS, ids=lambda row: f"p={row['p']}")
def test_half_perimeter_to_rounding(row):
    assert _rel(half_perimeter(row["p"]), row["pi"]) <= 1e-15


@pytest.mark.parametrize("p, ref", FIXTURE["aux_root"], ids=[f"p={p}" for p, _ in FIXTURE["aux_root"]])
def test_aux_root(p, ref):
    # The root is about ln 2 / p, so only a relative stop finds it at large p.
    assert _rel(worst_case_params(p, Branch.DIAGONAL).aux_root, ref) <= 1e-14


@pytest.mark.parametrize("p, ref", FIXTURE["axis_exit"], ids=[f"p={p!r}" for p, _ in FIXTURE["axis_exit"]])
def test_axis_exit_coord(p, ref):
    # The power 1/(p - 1) of the closed form amplifies the rounding of
    # 2^p - 1: formed directly, s was 0.2315 against 0.2 at p = 1 + 1e-15.
    assert _rel(worst_case_params(p).exit_coord, ref) <= 1e-14


@pytest.mark.parametrize("p", [row["p"] for row in ROWS] + [1.0, math.inf], ids=lambda p: f"p={p}")
class TestChart:
    def test_arc_agrees_with_quadrature(self, p):
        # The quadrature meets its own target max(abs_tol, rel_tol * H), not
        # more: near p = 1 it is 1.7e-13 off the fixture's H, where the chart
        # is within 2e-16 (test_chart_arc_at_interior_points).
        ch = _chart(p)
        for k in range(1, 65):
            x = ch.fold * k / 65
            quad = integrate_adaptive(partial(_speeds, p), 0.0, x, _QUAD_TOL, [_knee(p)])
            assert abs(ch.arc(x) - quad) <= max(_QUAD_TOL.abs_tol, _QUAD_TOL.rel_tol * quad)

    def test_x_at_inverts_arc(self, p):
        ch = _chart(p)
        for k in range(1, 65):
            lam = ch.eighth * k / 65
            assert abs(ch.arc(ch.x_at(lam)) - lam) <= 1e-15 * ch.eighth

    def test_build_evaluates_speed_at_most_4096_times(self, p, monkeypatch):
        # The 2048-cell Hermite table it replaced took 32,769 evaluations.
        # Each abscissa given to the one speed formula is one evaluation.
        evals = []
        speeds = lp_geometry._speeds

        def counted(p, zs):
            evals.extend(zs)
            return speeds(p, zs)

        monkeypatch.setattr(lp_geometry, "_speeds", counted)
        _Chart(p)
        assert 0 < len(evals) <= 4096


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_straight_chart_eighth_is_exact(p):
    assert _chart(p).eighth == 1.0
