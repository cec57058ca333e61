"""pi_p, e_p, gamma_p and the worst-case cost against a high-precision fixture.

``tests/data/reference.json`` holds mpmath values at 20 digits, written by
``tools/make_reference.py``; this module reads only the JSON.
"""
import json
from pathlib import Path

import pytest

from lpevac import half_perimeter, min_chord, worst_case_cost, worst_case_params
from lpevac.lp_geometry import _chart

REL_TOL = 1e-12
ROWS = json.loads((Path(__file__).parent / "data" / "reference.json").read_text())["values"]


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
