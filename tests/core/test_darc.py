"""Behavioural tests for the DARC scheduler."""

import numpy as np
import pytest

from repro.core.classifier import OracleClassifier, PartialClassifier
from repro.core.darc import DarcScheduler
from repro.errors import ConfigurationError
from repro.workload.presets import high_bimodal, tpcc
from repro.workload.request import UNKNOWN_TYPE, Request

from ..conftest import make_harness

HB_SPECS = high_bimodal().type_specs()


def oracle_darc(**kwargs):
    defaults = dict(profile=False, type_specs=HB_SPECS)
    defaults.update(kwargs)
    return DarcScheduler(**defaults)


class TestOracleMode:
    def test_requires_type_specs(self):
        with pytest.raises(ConfigurationError):
            DarcScheduler(profile=False)

    def test_reservation_installed_at_bind(self):
        h = make_harness(oracle_darc(), n_workers=14)
        assert h.scheduler.reservation is not None
        assert h.scheduler.reserved_count(0) == 1

    def test_short_not_blocked_by_longs(self):
        # Saturate all 14 workers with longs, then send one short: the
        # reserved core must pick it up immediately.
        h = make_harness(oracle_darc(), n_workers=14)
        for _ in range(20):
            h.submit(1, 100.0)
        h.submit(0, 1.0)
        h.run()
        cols = h.recorder.columns()
        short = cols.for_type(0)
        # Short ran immediately on its reserved worker: latency == service.
        assert short.latencies[0] == pytest.approx(1.0)

    def test_long_excluded_from_reserved_core(self):
        h = make_harness(oracle_darc(), n_workers=14)
        reserved = h.scheduler.reservation.group_for_type(0).reserved
        for _ in range(40):
            h.submit(1, 100.0)
        h.run()
        cols = h.recorder.columns()
        assert len(cols) == 40
        # The short-reserved worker never served a long request.
        assert h.workers[reserved[0]].completed == 0

    def test_short_steals_long_workers(self):
        # With no longs present, a burst of shorts should use more than
        # just the single reserved core (cycle stealing).
        h = make_harness(oracle_darc(), n_workers=14)
        for _ in range(28):
            h.submit(0, 1.0)
        h.run()
        busy_workers = sum(1 for w in h.workers if w.completed > 0)
        assert busy_workers > 1
        assert h.loop.now < 28.0  # parallel, not serialized on one core

    def test_fifo_within_type(self):
        h = make_harness(oracle_darc(), n_workers=2)
        # Only 1 reserved + 1 stealable; serialize 4 shorts and check order.
        reqs = [h.submit(0, 1.0, at=float(i) * 0.01) for i in range(4)]
        h.run()
        finishes = [r.finish_time for r in reqs]
        assert finishes == sorted(finishes)

    def test_shorts_dispatched_before_longs(self):
        h = make_harness(oracle_darc(), n_workers=2)
        # Fill both workers, queue a long then a short; on the next free
        # worker the short must win (ascending service-time order).
        h.submit(1, 100.0)
        h.submit(1, 100.0)
        long_req = h.submit(1, 100.0)
        short_req = h.submit(0, 1.0)
        h.run()
        assert short_req.finish_time < long_req.finish_time

    def test_pending_count(self):
        h = make_harness(oracle_darc(), n_workers=2)
        for _ in range(5):
            h.submit(1, 100.0)
        assert h.scheduler.pending_count() > 0
        h.run()
        assert h.scheduler.pending_count() == 0


class TestFlowControl:
    def test_typed_queue_capacity_drops(self):
        h = make_harness(oracle_darc(queue_capacity=2), n_workers=2)
        for _ in range(10):
            h.submit(1, 100.0)
        h.run()
        assert h.recorder.dropped > 0
        assert h.recorder.dropped_by_type.get(1, 0) == h.recorder.dropped

    def test_drops_shed_only_overloaded_type(self):
        # §4.3.3: drops shed load per-type; shorts keep flowing while the
        # long queue overflows.
        h = make_harness(oracle_darc(queue_capacity=3), n_workers=2)
        for i in range(20):
            h.submit(1, 100.0)
        for i in range(4):  # 1 dispatches to the reserved core, 3 queue
            h.submit(0, 1.0)
        h.run()
        assert h.recorder.dropped_by_type.get(0, 0) == 0
        assert h.recorder.dropped_by_type.get(1, 0) > 0


class TestUnknownRequests:
    def test_unknown_served_on_spillway(self):
        classifier = PartialClassifier(known_types=[0, 1])
        h = make_harness(
            oracle_darc(classifier=classifier), n_workers=14
        )
        spill = h.scheduler.reservation.spillway_worker
        r = h.submit(5, 2.0)  # a type the classifier doesn't know
        h.run()
        assert r.completed
        assert r.worker_id == spill


class TestProfiledMode:
    def test_starts_in_cfcfs(self):
        sched = DarcScheduler(profile=True, min_samples=50)
        h = make_harness(sched, n_workers=4)
        assert sched.reservation is None
        h.submit(0, 1.0)
        h.run()
        assert sched.reservation is None  # below min_samples

    def test_first_window_installs_reservation(self):
        sched = DarcScheduler(profile=True, min_samples=30)
        h = make_harness(sched, n_workers=4)
        for i in range(60):
            h.submit(i % 2, 1.0 if i % 2 == 0 else 50.0, at=float(i))
        h.run()
        assert sched.reservation is not None
        assert sched.reservation_updates >= 1

    def test_profiled_reservation_matches_oracle(self):
        sched = DarcScheduler(profile=True, min_samples=200)
        h = make_harness(sched, n_workers=14)
        rng = np.random.default_rng(0)
        t = 0.0
        for i in range(600):
            t += rng.exponential(10.0)
            tid = 0 if rng.random() < 0.5 else 1
            h.submit(tid, 1.0 if tid == 0 else 100.0, at=t)
        h.run()
        # Learned profile should reproduce the oracle's 1-core grant.
        assert sched.reserved_count(0) == 1

    def test_reservation_log_records_updates(self):
        sched = DarcScheduler(profile=True, min_samples=30)
        h = make_harness(sched, n_workers=4)
        for i in range(80):
            h.submit(i % 2, 1.0 if i % 2 == 0 else 20.0, at=float(i) * 2)
        h.run()
        assert len(sched.reservation_log) == sched.reservation_updates
        assert all(isinstance(t, float) for t, _ in sched.reservation_log)


class TestBreachRecheckAfterCrash:
    """A breach re-check over an unchanged profile must find the
    installed grants, which cover the usable cores, and reinstall
    nothing."""

    @staticmethod
    def profiled_run():
        sched = DarcScheduler(profile=True, min_samples=200)
        h = make_harness(sched, n_workers=14)
        rng = np.random.default_rng(0)
        t = 0.0
        for _ in range(600):
            t += rng.exponential(10.0)
            tid = 0 if rng.random() < 0.5 else 1
            h.submit(tid, 1.0 if tid == 0 else 100.0, at=t)
        h.run()
        return sched, h

    @staticmethod
    def assert_recheck_keeps_reservation(sched):
        updates = sched.reservation_updates
        window = sched.profiler.window_samples
        assert sched.min_samples <= window < 4 * sched.min_samples
        sched._slo_breached = True
        sched._maybe_update_reservation()
        assert sched.reservation_updates == updates
        assert sched._slo_breached  # still pending, nothing reinstalled
        assert sched.profiler.window_samples == window

    def test_recheck_plans_over_the_surviving_cores(self):
        # The reservation after a crash covers the 13 surviving cores,
        # not a 14-core plan.
        sched, h = self.profiled_run()
        sched.on_worker_crash(h.workers[3])
        assert sched.reservation.n_workers == 13
        self.assert_recheck_keeps_reservation(sched)

    def test_recheck_plans_over_the_leased_cores(self):
        from repro.core.allocator import CoreAllocator

        # A core allocator leases 8 of the 14 cores, one of them crashed.
        sched, h = self.profiled_run()
        CoreAllocator(sched).revoke(6)
        sched.on_worker_crash(h.workers[2])
        assert sched.reservation.n_workers == 7
        self.assert_recheck_keeps_reservation(sched)


class TestWasteAccounting:
    def test_no_waste_when_idle_without_pending(self):
        h = make_harness(oracle_darc(), n_workers=4)
        h.submit(0, 1.0)
        h.run()
        assert h.scheduler.measured_waste() < 4.0

    def test_waste_positive_when_longs_queue_behind_reservation(self):
        # 2 workers: 1 reserved for shorts, idle, while longs queue.
        h = make_harness(oracle_darc(), n_workers=2)
        for i in range(10):
            h.submit(1, 100.0)
        h.run()
        assert h.scheduler.measured_waste() > 0.3

    def test_expected_waste_exposed(self):
        h = make_harness(oracle_darc(), n_workers=14)
        assert h.scheduler.expected_waste() == pytest.approx(0.86, abs=0.01)


class TestStealToggle:
    def test_no_steal_serializes_shorts_on_reserved_core(self):
        h = make_harness(oracle_darc(steal=False), n_workers=14)
        for _ in range(10):
            h.submit(0, 1.0)
        h.run()
        # Without stealing, all 10 shorts run on the single reserved core.
        busy = [w for w in h.workers if w.completed > 0]
        assert len(busy) == 1
        assert h.loop.now >= 10.0


class TestFreeMaskDispatch:
    """Dispatch reads the free-core mask instead of asking each worker."""

    @staticmethod
    def occupy(h, worker_ids):
        """Put a placeholder request on each core without booking its
        completion, so the cores stay busy until the test ends them."""
        for widx in worker_ids:
            h.workers[widx].begin(Request(10_000 + widx, 1, 0.0, 1e9), 0.0)

    def test_several_free_candidates_fill_in_candidate_order(self):
        h = make_harness(oracle_darc(), n_workers=6)
        sched = h.scheduler
        assert sched._workers_for_type(0) == [0, 1, 2, 3, 4, 5]
        self.occupy(h, range(6))
        shorts = [h.submit(0, 1.0) for _ in range(4)]
        assert sched.pending_count() == 4
        for widx in (4, 0, 2):
            h.workers[widx].end(0.0)
        sched._dispatch_type(0)
        assert [r.worker_id for r in shorts] == [0, 2, 4, None]
        assert sched.pending_count() == 1
        h.run()
        assert all(r.completed for r in shorts)

    def test_a_crashed_candidate_is_never_picked(self):
        h = make_harness(oracle_darc(), n_workers=4)
        sched = h.scheduler
        reserved = sched.reservation.group_for_type(0).reserved
        assert reserved == [0]
        # Fail the short group's reserved core behind the scheduler's
        # back: the reservation still names it, only its mask bit is off.
        h.workers[0].fail()
        first = h.submit(0, 1.0)
        assert first.worker_id == 1
        self.occupy(h, (2, 3))
        queued = h.submit(0, 1.0)
        assert queued.worker_id is None  # core 0 is idle but crashed
        h.run()
        assert queued.worker_id == 1
        assert h.workers[0].completed == 0
        h.workers[0].recover()
        assert h.submit(0, 1.0).worker_id == 0

    def test_worker_free_with_nothing_pending_is_a_no_op(self):
        h = make_harness(oracle_darc(), n_workers=4)
        sched = h.scheduler

        def no_pop(type_ids):
            raise AssertionError("on_worker_free walked the queues")

        sched._pop_earliest = no_pop
        before = (sched.counts.free, sched.counts.busy, sched._waste_last_t)
        for worker in h.workers:
            sched.on_worker_free(worker)
        assert (sched.counts.free, sched.counts.busy, sched._waste_last_t) == before
        assert sched.pending_count() == 0


class TestWasteAtCrashAndRecover:
    def test_integral_counts_the_interval_before_each_transition(self):
        # Two cores: core 0 is reserved for shorts, core 1 for longs.
        # Long A runs on core 1 over [0, 100) and long B waits for it.
        # Core 0 is idle while B waits, except while it is crashed:
        # waste = 1 core x [0, 10) + 0 x [10, 30) + 1 core x [30, 100).
        h = make_harness(oracle_darc(), n_workers=2)
        sched = h.scheduler
        a = h.submit(1, 100.0)
        b = h.submit(1, 100.0)
        assert a.worker_id == 1 and sched.pending_count() == 1
        h.loop.call_at(10.0, sched.on_worker_crash, h.workers[0])
        h.loop.call_at(30.0, sched.on_worker_recover, h.workers[0])
        h.run()
        assert b.worker_id == 1 and h.loop.now == 200.0
        assert h.workers[0].completed == 0
        assert sched._waste_area == 80.0
        assert sched.measured_waste() == 80.0 / 200.0


#: (parameter, value) pairs DARC must refuse at construction.
BAD_PARAMS = [
    ("queue_capacity", 0),
    ("queue_capacity", -1),
    ("queue_capacity", 2.5),
    ("queue_capacity", True),
    ("min_demand_deviation", float("nan")),
    ("min_demand_deviation", -0.1),
    ("slo_slowdown", float("nan")),
    ("slo_slowdown", float("inf")),
    ("slo_slowdown", 0.0),
    ("delta", 0.5),
    ("delta", float("nan")),
    ("rounding", "banker"),
    ("min_samples", 2.5),
    ("min_samples", True),
    ("min_samples", 0),
]
#: The subset PersephoneSystem exposes.
SYSTEM_PARAMS = ("delta", "min_samples", "min_demand_deviation", "slo_slowdown")


class TestParameterValidation:
    @pytest.mark.parametrize("name,value", BAD_PARAMS)
    def test_darc_scheduler_refuses(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            DarcScheduler(**{name: value})

    @pytest.mark.parametrize(
        "name,value", [(n, v) for n, v in BAD_PARAMS if n in SYSTEM_PARAMS]
    )
    def test_persephone_system_refuses(self, name, value):
        from repro.systems.persephone import PersephoneSystem

        with pytest.raises(ConfigurationError, match=name):
            PersephoneSystem(**{name: value})

    def test_edge_values_are_accepted(self):
        DarcScheduler(
            queue_capacity=1,
            min_samples=1,
            min_demand_deviation=0.0,
            delta=1.0,
            rounding="floor",
        )
        DarcScheduler(delta=float("inf"))  # one group for every type
