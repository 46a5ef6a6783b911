"""Tests for the analytic DARC partition model, validated against the
simulator with stealing disabled (where the model is exact-in-structure)."""

import pytest

from repro.theory.darc_model import (
    predict_partition,
    reservation_meets_slo,
    spec_inputs,
)
from repro.core.reservation import compute_reservation
from repro.errors import ConfigurationError
from repro.experiments.common import run_once
from repro.systems.persephone import PersephoneSystem
from repro.workload.presets import high_bimodal, tpcc


def high_bimodal_prediction(utilization, n_workers=14):
    spec = high_bimodal()
    entries = [(s.type_id, s.mean_service_time, s.ratio) for s in spec.type_specs()]
    reservation = compute_reservation(entries, n_workers=n_workers)
    rates, services = spec_inputs(spec, utilization, n_workers)
    return reservation, predict_partition(reservation, rates, services)


class TestPredictPartition:
    def test_group_structure(self):
        _, predictions = high_bimodal_prediction(0.7)
        assert len(predictions) == 2
        assert predictions[0].type_ids == [0]
        assert predictions[0].n_cores == 1

    def test_utilizations(self):
        # Short group: demand 0.7*0.1386*14 = 1.36... no — rho per group:
        # rate*mean/c.  At 70% load shorts: 0.7*0.2772*0.5... compute via
        # the model and sanity-check against hand math.
        _, predictions = high_bimodal_prediction(0.7)
        short, long = predictions
        # Short: lambda = 0.7 * (14/50.5) * 0.5 = 0.09703/us, S=1, c=1.
        assert short.rho == pytest.approx(0.0970, abs=0.001)
        # Long: same lambda, S=100, c=13.
        assert long.rho == pytest.approx(0.7465, abs=0.001)

    def test_instability_detected(self):
        _, predictions = high_bimodal_prediction(1.05)
        assert not predictions[1].stable
        assert predictions[1].mean_wait is None

    def test_zero_rate_group(self):
        spec = high_bimodal()
        entries = [(s.type_id, s.mean_service_time, s.ratio) for s in spec.type_specs()]
        reservation = compute_reservation(entries, n_workers=4)
        predictions = predict_partition(
            reservation, {0: 0.0, 1: 0.0}, {0: (1.0, 1.0), 1: (100.0, 10000.0)}
        )
        assert all(p.stable for p in predictions)
        assert predictions[0].mean_wait == 0.0

    def test_deterministic_correction_halves_wait(self):
        # CV^2 = 0 for deterministic service => wait = M/M/c wait / 2.
        _, predictions = high_bimodal_prediction(0.8)
        from repro.theory.queueing import mmc_mean_wait

        long = predictions[1]
        mmc = mmc_mean_wait(long.arrival_rate, 1.0 / long.mean_service, long.n_cores)
        assert long.mean_wait == pytest.approx(mmc / 2.0)


class TestSloCheck:
    def test_stable_low_load_passes(self):
        _, predictions = high_bimodal_prediction(0.5)
        assert reservation_meets_slo(predictions, slowdown_slo=10.0)

    def test_unstable_fails(self):
        _, predictions = high_bimodal_prediction(1.05)
        assert not reservation_meets_slo(predictions, slowdown_slo=10.0)

    def test_invalid_slo(self):
        _, predictions = high_bimodal_prediction(0.5)
        with pytest.raises(ConfigurationError):
            reservation_meets_slo(predictions, slowdown_slo=0.0)


class TestModelVsSimulation:
    @pytest.mark.parametrize("utilization", [0.5, 0.75])
    def test_long_group_mean_wait_matches_sim(self, utilization):
        """No-stealing DARC is a static partition; the long group's
        measured mean wait should track the M/D/c prediction."""

        class NoStealDarc(PersephoneSystem):
            def make_scheduler(self, spec, rngs):
                scheduler = super().make_scheduler(spec, rngs)
                scheduler.steal = False
                return scheduler

        spec = high_bimodal()
        result = run_once(
            NoStealDarc(n_workers=14, oracle=True), spec, utilization,
            n_requests=40_000, seed=3,
        )
        cols = result.server.recorder.columns().after_warmup(0.1).for_type(1)
        measured = float(cols.waits.mean())
        _, predictions = high_bimodal_prediction(utilization)
        predicted = predictions[1].mean_wait
        assert measured == pytest.approx(predicted, rel=0.35, abs=0.05)

    def test_tpcc_oracle_reservation_predicted_stable_at_85(self):
        spec = tpcc()
        entries = [(s.type_id, s.mean_service_time, s.ratio) for s in spec.type_specs()]
        reservation = compute_reservation(entries, n_workers=14, delta=2.0)
        rates, services = spec_inputs(spec, 0.85, 14)
        predictions = predict_partition(reservation, rates, services)
        # Every group is stable at 85% — why the 2/6/6 allocation works.
        assert all(p.stable for p in predictions)
        # Group B (NewOrder) runs hottest, near but under 1.
        assert 0.85 < predictions[1].rho < 1.0
