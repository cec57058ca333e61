import math

import pytest

from lpevac import (
    INF,
    generic_lower_bound,
    half_perimeter,
    optimality_report,
    weak_lower_bound,
    worst_case_cost,
)


class TestWeakLowerBound:
    def test_extremes(self):
        assert weak_lower_bound(1.0) == 5.0
        assert weak_lower_bound(INF) == 5.0

    def test_euclidean(self):
        assert weak_lower_bound(2.0) == pytest.approx(1.0 + math.pi, abs=1e-9)

    def test_large_p(self):
        assert weak_lower_bound(1000.0) == pytest.approx(4.9972283728, abs=1e-5)


class TestGenericLowerBound:
    def test_euclidean_value(self):
        expected = 1.0 + 2.0 * math.pi / 3.0 + math.sqrt(3.0)
        assert generic_lower_bound(2.0) == pytest.approx(expected, abs=1e-5)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_tight_against_upper(self, p):
        assert generic_lower_bound(p) == pytest.approx(worst_case_cost(p), abs=1e-4)

    def test_extremes_exactly_five(self):
        # the general formula at the limits of worst_case_params: 1 + 2.4 +
        # min_chord(1, 4.8) = 1.6 and 1 + 2 + min_chord(inf, 4.0) = 2.0
        assert generic_lower_bound(1.0) == 5.0
        assert generic_lower_bound(INF) == 5.0


class TestOptimalityReport:
    def test_l1_is_optimal(self):
        rep = optimality_report(1.0)
        assert rep.upper == 5.0 and rep.generic_lower == 5.0 and rep.gap == 0.0

    def test_square_is_optimal(self):
        rep = optimality_report(INF)
        assert rep.upper == 5.0 and rep.generic_lower == 5.0 and rep.gap == 0.0

    def test_euclidean_gap(self):
        rep = optimality_report(2.0)
        assert abs(rep.gap) <= 1e-4

    def test_large_p_uses_generic_bound(self):
        rep = optimality_report(1000.0)
        assert abs(rep.gap) <= 1e-9
        assert rep.weak_lower < rep.generic_lower

    @pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 2.5, 4.0, 9.0, 20.0])
    def test_bound_ordering(self, p):
        rep = optimality_report(p)
        assert rep.weak_lower <= rep.generic_lower + 1e-6
        assert rep.gap >= -1e-5
        assert abs(rep.gap) <= 1e-4

    def test_weak_dominated_by_generic_since_explored_exceeds_perimeter(self):
        for p in (1.3, 3.5, 12.0):
            rep = optimality_report(p)
            assert rep.generic_lower >= 1.0 + half_perimeter(p) - 1e-6
