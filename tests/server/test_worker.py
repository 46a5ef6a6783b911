"""Tests for the worker model."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulingError
from repro.server.worker import Worker
from repro.workload.request import Request


def req(rid=0, service=5.0):
    return Request(rid, 0, 0.0, service)


class TestWorker:
    def test_begin_end_cycle(self):
        w = Worker(0)
        r = req()
        w.begin(r, 1.0)
        assert not w.is_free
        assert r.worker_id == 0
        assert r.first_service_time == 1.0
        returned = w.end(6.0)
        assert returned is r
        assert w.is_free
        assert w.total_busy_time == 5.0

    def test_begin_while_busy_raises(self):
        w = Worker(0)
        w.begin(req(0), 0.0)
        with pytest.raises(SchedulingError):
            w.begin(req(1), 1.0)

    def test_end_while_idle_raises(self):
        with pytest.raises(SchedulingError):
            Worker(0).end(1.0)

    def test_first_service_time_preserved_on_resume(self):
        # Preemptive policies begin/end the same request repeatedly; the
        # first touch time must not be overwritten.
        w = Worker(0)
        r = req()
        w.begin(r, 1.0)
        w.end(3.0)
        w.begin(r, 10.0)
        w.end(12.0)
        assert r.first_service_time == 1.0
        assert w.total_busy_time == 4.0

    def test_overhead_accounting(self):
        w = Worker(0)
        w.begin(req(), 0.0)
        w.end(6.0, overhead=1.0)
        assert w.total_overhead_time == 1.0

    def test_utilization(self):
        w = Worker(0)
        w.begin(req(), 0.0)
        w.end(5.0)
        assert w.utilization(10.0) == pytest.approx(0.5)

    def test_utilization_counts_in_flight(self):
        w = Worker(0)
        w.begin(req(), 0.0)
        assert w.utilization(4.0) == pytest.approx(1.0)

    def test_utilization_zero_time(self):
        assert Worker(0).utilization(0.0) == 0.0

    def test_idle_since_updated(self):
        w = Worker(0)
        w.begin(req(), 0.0)
        w.end(7.0)
        assert w.idle_since == 7.0

    @pytest.mark.parametrize("factor", [0.0, -1.0, float("nan"), float("inf")])
    def test_set_speed_refuses_non_finite_or_non_positive(self, factor):
        # A lazy Shinjuku chain multiplies by speed_factor: NaN would turn
        # every slice time into NaN without an error.
        w = Worker(0)
        with pytest.raises(SchedulingError):
            w.set_speed(factor)
        assert w.speed_factor == 1.0


class TestLap:
    """``lap`` is ``end`` then ``begin`` of the same request, as one step."""

    @staticmethod
    def slots(worker):
        return {
            slot: getattr(worker, slot)
            for slot in Worker.__slots__
            if slot not in ("current", "counts")
        }

    @given(
        start=st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
        laps=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
                st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
                st.booleans(),
            ),
            min_size=1,
            max_size=8,
        ),
        closing=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_lap_matches_end_then_begin(self, start, laps, closing):
        lapped, twin = Worker(3), Worker(3)
        r_lap, r_twin = req(0), req(0)
        lapped.begin(r_lap, start)
        twin.begin(r_twin, start)
        now = start
        for step, overhead, forget_first_touch in laps:
            now += step
            if forget_first_touch:
                r_lap.first_service_time = r_twin.first_service_time = None
            lapped.lap(now, overhead)
            twin.begin(twin.end(now, overhead=overhead), now)
            assert self.slots(lapped) == self.slots(twin)
            assert lapped.current is r_lap and twin.current is r_twin
            assert lapped.counts.busy == twin.counts.busy == 1
            assert lapped.counts.failed == twin.counts.failed == 0
            assert r_lap.worker_id == r_twin.worker_id == 3
            assert r_lap.first_service_time == r_twin.first_service_time
        now += closing
        assert lapped.end(now) is r_lap
        twin.end(now)
        assert self.slots(lapped) == self.slots(twin)
        assert lapped.utilization(now + 1.0) == twin.utilization(now + 1.0)

    @given(
        start=st.integers(min_value=1, max_value=2**40),
        step=st.integers(min_value=1, max_value=2**12),
        scale=st.integers(min_value=-20, max_value=4),
        count=st.integers(min_value=0, max_value=60),
        overhead=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        busy=st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_laps_match_lap_per_boundary(self, start, step, scale, count, overhead, busy):
        """Lap times on a lattice (``start + j*step`` exact): ``laps``
        leaves every slot as ``count`` calls of ``lap`` do."""
        start, step = math.ldexp(start, scale), math.ldexp(step, scale)
        bulk, single = Worker(2), Worker(2)
        for worker in (bulk, single):
            worker.total_busy_time = worker.total_overhead_time = busy
            worker.begin(req(0), start)
        now = start
        for _ in range(count):
            now += step
            single.lap(now, overhead)
        bulk.laps(now, count, step, overhead)
        assert self.slots(bulk) == self.slots(single)

    def test_laps_while_idle_raises(self):
        with pytest.raises(SchedulingError):
            Worker(0).laps(7.0, 1, 7.0)

    def test_lap_while_idle_raises(self):
        with pytest.raises(SchedulingError):
            Worker(0).lap(1.0)
        w = Worker(0)
        w.begin(req(), 0.0)
        w.end(2.0)
        with pytest.raises(SchedulingError):
            w.lap(3.0, 1.0)
