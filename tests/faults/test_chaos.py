"""End-to-end chaos episodes: DARC re-reservation, the conservation
ledger under combined faults, empty-plan bit-identity, determinism, and
sanitized runs for every system."""

import numpy as np
import pytest

from repro.experiments.common import run_once
from repro.faults.plan import FaultPlan, PacketDrop, PacketDup
from repro.faults.runner import run_chaos
from repro.analyze.determinism import digest_chaos_run
from repro.systems.persephone import PersephoneSystem
from repro.systems.shenango import ShenangoSystem
from repro.systems.shinjuku import ShinjukuSystem
from repro.workload.presets import high_bimodal
from repro.workload.resilience import RetryPolicy

ALL_SYSTEMS = [
    lambda: PersephoneSystem(n_workers=8, min_samples=200, oracle=False),
    lambda: ShenangoSystem(n_workers=8),
    lambda: ShinjukuSystem(n_workers=8),
]


def full_plan():
    """Crash/recover two cores plus lossy, duplicating network windows."""
    return FaultPlan.crash_recover([0, 1], crash_at=2500.0, recover_at=4500.0).add(
        PacketDrop(1000.0, 3000.0, 0.3)
    ).add(PacketDup(1500.0, 3500.0, 0.2))


def default_retry():
    return RetryPolicy(
        timeout_us=2000.0, max_retries=2, backoff_base_us=50.0, jitter_frac=0.1
    )


class TestDarcReReservation:
    def test_crash_and_recover_both_trigger_reinstall(self):
        system = PersephoneSystem(n_workers=8, min_samples=200, oracle=False)
        plan = FaultPlan.crash_recover([0, 1], crash_at=6000.0, recover_at=10000.0)
        res = run_chaos(
            system, high_bimodal(), 0.7, plan,
            n_requests=2000, seed=1, sanitize=True,
        )
        assert res.injector.crashes == 2
        assert res.injector.recoveries == 2
        scheduler = res.scheduler
        # Initial profiled install + one per crash + one per recover.
        assert scheduler.reservation_updates >= 5
        times = [t for t, _ in scheduler.reservation_log]
        assert any(t == pytest.approx(6000.0) for t in times)
        assert any(t == pytest.approx(10000.0) for t in times)
        # After full recovery the reservation spans the whole machine
        # again (the sanitizer already proved no crashed core was ever
        # named while down).
        reserved = set()
        for alloc in scheduler.reservation.allocations:
            reserved.update(alloc.reserved)
        assert reserved <= set(range(8))
        assert res.recorder.completed > 0

    def test_time_to_recover_measured(self):
        system = PersephoneSystem(n_workers=8, min_samples=200, oracle=False)
        plan = FaultPlan.crash_recover([0, 1], crash_at=4000.0, recover_at=8000.0)
        res = run_chaos(
            system, high_bimodal(), 0.7, plan,
            n_requests=2000, seed=1, window_us=400.0,
        )
        ttr = res.time_to_recover(sustain=2)
        # The episode ends: the run must eventually recover.
        assert ttr is not None
        assert ttr >= 0.0


class TestConservationLedger:
    @pytest.mark.parametrize("make_system", ALL_SYSTEMS)
    def test_every_attempt_accounted(self, make_system):
        res = run_chaos(
            make_system(), high_bimodal(), 0.7, full_plan(),
            n_requests=800, seed=2, retry=default_retry(), sanitize=True,
        )
        recorder = res.recorder
        server = res.server
        # Drained run with recovered cores: nothing left in the system.
        assert server.in_flight == 0
        assert server.pending == 0
        assert server.received == (
            recorder.completed + recorder.late_completions + recorder.dropped
        )
        # Packets dropped on the wire never reached the server.
        assert res.injector.packets_dropped > 0
        assert recorder.timeouts > 0  # the lossy window forced retries

    def test_requeue_false_drops_in_flight_victims(self):
        plan = FaultPlan.crash_recover(
            [0, 1], crash_at=2500.0, recover_at=4500.0, requeue=False
        )
        res = run_chaos(
            ShenangoSystem(n_workers=8), high_bimodal(), 0.7, plan,
            n_requests=800, seed=3, retry=default_retry(), sanitize=True,
        )
        assert res.injector.dropped_in_flight > 0
        assert res.recorder.dropped >= res.injector.dropped_in_flight


class TestEmptyPlanEquivalence:
    @pytest.mark.parametrize("make_system", ALL_SYSTEMS)
    def test_bit_identical_to_run_once(self, make_system):
        base = run_once(
            make_system(), high_bimodal(), 0.7, n_requests=800, seed=5
        )
        chaos = run_chaos(
            make_system(), high_bimodal(), 0.7, FaultPlan(),
            n_requests=800, seed=5,
        )
        a = base.server.recorder.columns()
        b = chaos.recorder.columns()
        for field in (
            "type_ids", "arrivals", "services", "finishes",
            "waits", "preemptions", "overheads",
        ):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field
        assert base.server.recorder.dropped == chaos.recorder.dropped
        assert base.server.loop.now == chaos.server.loop.now
        assert (
            base.server.loop.events_processed
            == chaos.server.loop.events_processed
        )


class TestDeterminism:
    def test_same_seed_same_plan_same_digest(self):
        def digest():
            return digest_chaos_run(
                PersephoneSystem(n_workers=8, min_samples=200, oracle=False),
                high_bimodal(),
                n_requests=800,
                seed=7,
            )

        first, second = digest(), digest()
        assert first.digest == second.digest
        assert first.completed == second.completed

    def test_different_seed_different_digest(self):
        def digest(seed):
            return digest_chaos_run(
                ShenangoSystem(n_workers=8),
                high_bimodal(),
                n_requests=800,
                seed=seed,
            )

        assert digest(1).digest != digest(2).digest


class TestSanitizedChaos:
    @pytest.mark.parametrize("make_system", ALL_SYSTEMS)
    def test_invariants_hold_through_full_episode(self, make_system):
        res = run_chaos(
            make_system(), high_bimodal(), 0.7, full_plan(),
            n_requests=800, seed=4, retry=default_retry(), sanitize=True,
        )
        assert res.recorder.completed > 0

    def test_permanent_crash_sanitized(self):
        # Cores never come back: queued work may strand behind them, and
        # the sanitizer must accept the stale state at drain.
        plan = FaultPlan.crash_recover([0], crash_at=2000.0)
        res = run_chaos(
            ShenangoSystem(n_workers=8), high_bimodal(), 0.7, plan,
            n_requests=400, seed=6, sanitize=True,
        )
        assert res.server.failed_workers == 1

    def test_report_dict_is_json_friendly(self):
        import json

        res = run_chaos(
            ShenangoSystem(n_workers=8), high_bimodal(), 0.7, full_plan(),
            n_requests=400, seed=8, retry=default_retry(),
        )
        out = res.report_dict()
        json.dumps(out)
        assert out["system"]
        assert out["injected"]["crashes"] == 2


#: The three-system crash/recover episode of ``repro.experiments.chaos``
#: at 20,000 requests, seed 1, pinned bit for bit: when the cores die
#: and return, and each system's recovery profile (duration, goodput,
#: time to recover, SLO-violation time, timeouts and the orphan ledger).
CHAOS_EPISODE_PINS = {
    "crash_at_us": 45089.28571428572,
    "recover_at_us": 90178.57142857143,
    "Persephone": {
        "duration_us": 328019.66828279896,
        "mean_goodput_rps_per_us": 0.07480158415841584,
        "orphans.timeouts": 18198,
        "slo_latency_us": 1000.0,
        "time_to_recover_us": 27053.571428571428,
        "timeouts": 18198,
        "violation_time_us": 18035.714285714286,
        "window_us": 3607.1428571428573,
    },
    "Shenango": {
        "duration_us": 179970.25760011564,
        "mean_goodput_rps_per_us": 0.11088554455445541,
        "orphans.timeouts": 0,
        "slo_latency_us": 1000.0,
        "time_to_recover_us": 1803.5714285714275,
        "timeouts": 0,
        "violation_time_us": 0.0,
        "window_us": 3607.1428571428573,
    },
    "Shinjuku": {
        "duration_us": 426116.16594718525,
        "mean_goodput_rps_per_us": 0.07091485148514852,
        "orphans.timeouts": 20961,
        "slo_latency_us": 1000.0,
        "time_to_recover_us": 9017.857142857145,
        "timeouts": 20961,
        "violation_time_us": 7214.285714285715,
        "window_us": 3607.1428571428573,
    },
}


class TestChaosEpisodePins:
    def test_episode_values_bit_for_bit(self):
        from repro.experiments import chaos

        result = chaos.run(n_requests=20000, seed=1)
        assert result.crash_at == CHAOS_EPISODE_PINS["crash_at_us"]
        assert result.recover_at == CHAOS_EPISODE_PINS["recover_at_us"]
        assert sorted(result.results) == ["Persephone", "Shenango", "Shinjuku"]
        for name, res in result.results.items():
            report = res.report_dict()
            for key, expected in CHAOS_EPISODE_PINS[name].items():
                value = report
                for part in key.split("."):
                    value = value[part]
                assert value == expected, f"{name}.{key}: {value!r} != {expected!r}"
