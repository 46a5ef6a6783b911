"""Tests for the capacity rule: the highest load whose mean metric meets
the SLO, with dropped requests disqualifying a point."""

from repro.sweep.stats import capacity_at_slo, mean_ci


def points(pairs, dropped=()):
    """``(rho, value)`` pairs as single-seed capacity points."""
    return [(rho, mean_ci([value]), rho in dropped) for rho, value in pairs]


class TestCapacityAtSlo:
    def test_finds_highest_passing_point(self):
        sweep = points([(0.2, 1.0), (0.5, 5.0), (0.8, 50.0)])
        assert capacity_at_slo(sweep, slo=10.0) == 0.5

    def test_none_when_all_violate(self):
        assert capacity_at_slo(points([(0.2, 100.0)]), slo=10.0) is None

    def test_all_pass(self):
        assert capacity_at_slo(points([(0.2, 1.0), (0.9, 2.0)]), slo=10.0) == 0.9

    def test_drops_disqualify(self):
        sweep = points([(0.5, 1.0), (0.9, 1.0)], dropped=(0.9,))
        assert capacity_at_slo(sweep, slo=10.0) == 0.5

    def test_nan_points_skipped(self):
        sweep = points([(0.2, float("nan")), (0.5, 2.0)])
        assert capacity_at_slo(sweep, slo=10.0) == 0.5
        assert capacity_at_slo(points([(0.5, float("nan"))]), slo=10.0) is None
