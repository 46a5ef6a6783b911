"""Tests for queueing-theory formulas."""

import pytest

from repro.theory.queueing import (
    bimodal_moments,
    erlang_c,
    is_stable,
    mg1_mean_wait,
    mm1_mean_sojourn,
    mm1_mean_wait,
    mmc_mean_wait,
    partition_stability,
    utilization,
)
from repro.errors import ConfigurationError


class TestMM1:
    def test_known_value(self):
        # rho = 0.5: W = rho / (mu - lambda) = 0.5 / 0.5 = 1.
        assert mm1_mean_wait(0.5, 1.0) == pytest.approx(1.0)

    def test_sojourn_adds_service(self):
        assert mm1_mean_sojourn(0.5, 1.0) == pytest.approx(2.0)

    def test_unstable_raises(self):
        with pytest.raises(ConfigurationError):
            mm1_mean_wait(1.0, 1.0)

    def test_wait_grows_with_load(self):
        waits = [mm1_mean_wait(rho, 1.0) for rho in (0.1, 0.5, 0.9)]
        assert waits == sorted(waits)


class TestErlangC:
    def test_single_server_equals_rho(self):
        # For c=1 Erlang C reduces to rho.
        assert erlang_c(1, 0.3) == pytest.approx(0.3)

    def test_probability_in_unit_interval(self):
        for c, a in [(2, 1.0), (8, 6.0), (16, 12.0)]:
            p = erlang_c(c, a)
            assert 0.0 <= p <= 1.0

    def test_more_servers_less_waiting(self):
        assert erlang_c(20, 10.0) < erlang_c(12, 10.0)

    def test_unstable_raises(self):
        with pytest.raises(ConfigurationError):
            erlang_c(4, 4.0)

    def test_mmc_matches_mm1_for_c1(self):
        assert mmc_mean_wait(0.5, 1.0, 1) == pytest.approx(mm1_mean_wait(0.5, 1.0))


class TestMG1:
    def test_reduces_to_mm1_for_exponential(self):
        # Exponential service: E[S^2] = 2/mu^2.
        lam, mu = 0.5, 1.0
        pk = mg1_mean_wait(lam, 1.0 / mu, 2.0 / mu**2)
        assert pk == pytest.approx(mm1_mean_wait(lam, mu))

    def test_deterministic_halves_exponential_wait(self):
        lam, s = 0.5, 1.0
        det = mg1_mean_wait(lam, s, s**2)
        exp = mg1_mean_wait(lam, s, 2 * s**2)
        assert det == pytest.approx(exp / 2)

    def test_bimodal_moments(self):
        mean, second = bimodal_moments(1.0, 100.0, 0.5)
        assert mean == pytest.approx(50.5)
        assert second == pytest.approx(0.5 * 1 + 0.5 * 10_000)

    def test_high_variance_hurts(self):
        lam, mean = 0.009, 50.5
        _, second = bimodal_moments(1.0, 100.0, 0.5)
        bimodal_wait = mg1_mean_wait(lam, mean, second)
        det_wait = mg1_mean_wait(lam, mean, mean**2)
        assert bimodal_wait > det_wait


class TestStability:
    def test_utilization(self):
        assert utilization(0.28, 50.0, 14) == pytest.approx(1.0)

    def test_is_stable(self):
        assert is_stable(0.2, 50.0, 14)
        assert not is_stable(0.3, 50.0, 14)

    def test_partition_stability_vector(self):
        flags = partition_stability(
            rates=[0.1, 0.5], means=[1.0, 10.0], workers=[1, 4]
        )
        assert flags == [True, False]

    def test_partition_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            partition_stability([0.1], [1.0, 2.0], [1, 1])
