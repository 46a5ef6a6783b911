"""Tests for the §6 core-allocator cooperation extension."""

import pytest

from repro.core.allocator import CoreAllocator, UtilizationGovernor
from repro.core.darc import DarcScheduler
from repro.errors import ConfigurationError, SchedulingError
from repro.workload.presets import high_bimodal

from ..conftest import make_harness

HB_SPECS = high_bimodal().type_specs()


def build(n_workers=8):
    scheduler = DarcScheduler(profile=False, type_specs=HB_SPECS)
    harness = make_harness(scheduler, n_workers=n_workers)
    allocator = CoreAllocator(scheduler)
    return harness, allocator


class TestCoreAllocator:
    def test_starts_with_full_lease(self):
        _, allocator = build(8)
        assert allocator.active_cores == 8
        assert allocator.total_cores == 8

    def test_revoke_shrinks_schedulable_set(self):
        harness, allocator = build(8)
        allocator.revoke(3)
        assert allocator.active_cores == 5
        assert len(harness.scheduler.workers) == 5
        # Reservation re-partitioned over 5 workers.
        assert harness.scheduler.reservation.n_workers == 5

    def test_grant_restores_cores(self):
        harness, allocator = build(8)
        allocator.revoke(4)
        allocator.grant(2)
        assert allocator.active_cores == 6
        assert allocator.grants == 2
        assert allocator.revocations == 4

    def test_clamped_to_bounds(self):
        _, allocator = build(4)
        assert allocator.set_active(100) == 4
        assert allocator.set_active(0) == 1  # min_cores default

    def test_min_cores_respected(self):
        scheduler = DarcScheduler(profile=False, type_specs=HB_SPECS)
        harness = make_harness(scheduler, n_workers=6)
        allocator = CoreAllocator(scheduler, min_cores=3)
        assert allocator.revoke(10) == 3

    def test_revoked_busy_worker_drains(self):
        harness, allocator = build(4)
        # Occupy all four workers with longs, then revoke two.
        reqs = [harness.submit(1, 50.0) for _ in range(4)]
        allocator.revoke(2)
        later = harness.submit(1, 50.0)
        harness.run()
        # Everything completes (in-flight work on revoked cores finishes).
        assert all(r.completed for r in reqs)
        assert later.completed
        # But the later request ran on a leased core.
        assert later.worker_id < 2

    def test_new_cores_pick_up_backlog(self):
        harness, allocator = build(8)
        allocator.revoke(6)  # down to 2 cores
        for _ in range(10):
            harness.submit(1, 100.0)
        assert harness.scheduler.pending_count() > 0
        allocator.grant(6)
        # The grant dispatches queued work immediately: with 8 cores the
        # long group holds 7 workers, one of which is still mid-request,
        # so 6 queued longs start and 3 remain queued.
        assert harness.scheduler.pending_count() == 3

    def test_lease_log(self):
        harness, allocator = build(8)
        allocator.revoke(1)
        allocator.grant(1)
        assert [cores for _, cores in allocator.lease_log] == [7, 8]

    def test_requires_bound_scheduler(self):
        scheduler = DarcScheduler(profile=False, type_specs=HB_SPECS)
        with pytest.raises(ConfigurationError):
            CoreAllocator(scheduler)

    def test_revoke_right_after_window_reset(self):
        # A profiled scheduler whose first window has just closed: the
        # reservation is installed and the window reset, so it is empty.
        scheduler = DarcScheduler(profile=True, min_samples=200)
        harness = make_harness(scheduler, n_workers=14)
        allocator = CoreAllocator(scheduler)
        for i in range(200):
            harness.submit(i % 2, 1.0 if i % 2 == 0 else 100.0, at=float(i))
        harness.run()
        assert scheduler.reservation.n_workers == 14
        assert not scheduler.profiler.window_entries()
        # The revoke must re-plan over the 8 leased cores from the last
        # installed entries, or dispatch indexes past the lease.
        allocator.revoke(6)
        longs = [harness.submit(1, 100.0) for _ in range(14)]
        harness.run()
        assert scheduler.reservation.n_workers == 8
        assert all(r.completed for r in longs)

    def test_invalid_min_cores(self):
        harness, _ = build(4)
        with pytest.raises(ConfigurationError):
            CoreAllocator(harness.scheduler, min_cores=0)


class TestUtilizationGovernor:
    def test_grows_under_backlog(self):
        harness, allocator = build(8)
        allocator.revoke(6)  # 2 cores
        governor = UtilizationGovernor(
            harness.loop, allocator, period_us=10.0, grow_backlog=2
        )
        governor.start()
        for i in range(40):
            harness.submit(1, 100.0, at=float(i))
        harness.run(until=200.0)
        governor.stop()
        assert allocator.active_cores > 2
        assert governor.decisions >= 1

    def test_shrinks_when_idle(self):
        harness, allocator = build(8)
        governor = UtilizationGovernor(harness.loop, allocator, period_us=10.0)
        governor.start()
        harness.run(until=100.0)  # no traffic at all
        governor.stop()
        assert allocator.active_cores < 8

    def test_double_start_raises(self):
        harness, allocator = build(4)
        governor = UtilizationGovernor(harness.loop, allocator)
        governor.start()
        with pytest.raises(SchedulingError):
            governor.start()

    def test_invalid_params(self):
        harness, allocator = build(4)
        with pytest.raises(ConfigurationError):
            UtilizationGovernor(harness.loop, allocator, period_us=0.0)
        with pytest.raises(ConfigurationError):
            UtilizationGovernor(harness.loop, allocator, grow_backlog=0)

    def test_decision_callback(self):
        harness, allocator = build(8)
        allocator.revoke(6)
        seen = []
        governor = UtilizationGovernor(
            harness.loop,
            allocator,
            period_us=10.0,
            grow_backlog=1,
            on_decision=lambda t, cores: seen.append((t, cores)),
        )
        governor.start()
        for i in range(30):
            harness.submit(1, 100.0, at=float(i))
        harness.run(until=100.0)
        governor.stop()
        assert seen
