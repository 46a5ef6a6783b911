"""Tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import EventLoop


class TestScheduling:
    def test_events_fire_in_time_order(self):
        loop = EventLoop()
        fired = []
        loop.call_at(5.0, fired.append, "b")
        loop.call_at(1.0, fired.append, "a")
        loop.call_at(9.0, fired.append, "c")
        loop.run()
        assert fired == ["a", "b", "c"]

    def test_same_time_events_fire_fifo(self):
        loop = EventLoop()
        fired = []
        for i in range(10):
            loop.call_at(3.0, fired.append, i)
        loop.run()
        assert fired == list(range(10))

    def test_call_after_is_relative(self):
        loop = EventLoop(start_time=10.0)
        times = []
        loop.call_after(2.5, lambda: times.append(loop.now))
        loop.run()
        assert times == [12.5]

    def test_scheduling_in_past_raises(self):
        loop = EventLoop(start_time=5.0)
        with pytest.raises(SimulationError):
            loop.call_at(4.0, lambda: None)

    def test_negative_delay_raises(self):
        loop = EventLoop()
        with pytest.raises(SimulationError):
            loop.call_after(-1.0, lambda: None)

    def test_negative_start_time_raises(self):
        with pytest.raises(SimulationError):
            EventLoop(start_time=-1.0)

    def test_nan_time_raises(self):
        # NaN fails every comparison: a plain ``time < now`` guard would
        # push it into the heap and leave the clock at NaN.
        loop = EventLoop()
        with pytest.raises(SimulationError):
            loop.call_at(float("nan"), lambda: None)
        assert loop.pending_count == 0

    def test_nan_delay_raises(self):
        loop = EventLoop()
        with pytest.raises(SimulationError):
            loop.call_after(float("nan"), lambda: None)
        assert loop.pending_count == 0

    def test_nan_start_time_raises(self):
        with pytest.raises(SimulationError):
            EventLoop(start_time=float("nan"))

    def test_events_scheduled_during_run_fire(self):
        loop = EventLoop()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                loop.call_after(1.0, chain, n + 1)

        loop.call_at(0.0, chain, 0)
        loop.run()
        assert fired == [0, 1, 2, 3]
        assert loop.now == 3.0

    def test_args_passed_through(self):
        loop = EventLoop()
        got = []
        loop.call_at(1.0, lambda a, b: got.append((a, b)), 1, "x")
        loop.run()
        assert got == [(1, "x")]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        loop = EventLoop()
        fired = []
        ev = loop.call_at(1.0, fired.append, "x")
        ev.cancel()
        loop.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        loop = EventLoop()
        ev = loop.call_at(1.0, lambda: None)
        ev.cancel()
        ev.cancel()
        loop.run()

    def test_cancel_from_within_event(self):
        loop = EventLoop()
        fired = []
        later = loop.call_at(5.0, fired.append, "later")
        loop.call_at(1.0, later.cancel)
        loop.run()
        assert fired == []

    def test_peek_time_skips_cancelled(self):
        loop = EventLoop()
        ev = loop.call_at(1.0, lambda: None)
        loop.call_at(2.0, lambda: None)
        ev.cancel()
        assert loop.peek_time() == 2.0


class TestRunControl:
    def test_run_until_stops_clock_at_boundary(self):
        loop = EventLoop()
        fired = []
        loop.call_at(1.0, fired.append, "a")
        loop.call_at(10.0, fired.append, "b")
        loop.run(until=5.0)
        assert fired == ["a"]
        assert loop.now == 5.0

    def test_run_until_leaves_future_events_pending(self):
        loop = EventLoop()
        fired = []
        loop.call_at(10.0, fired.append, "b")
        loop.run(until=5.0)
        loop.run()
        assert fired == ["b"]

    def test_max_events_limit(self):
        loop = EventLoop()
        fired = []
        for i in range(5):
            loop.call_at(float(i), fired.append, i)
        loop.run(max_events=2)
        assert fired == [0, 1]

    def test_stop_exits_early(self):
        loop = EventLoop()
        fired = []
        loop.call_at(1.0, fired.append, "a")
        loop.call_at(2.0, loop.stop)
        loop.call_at(3.0, fired.append, "b")
        loop.run()
        assert fired == ["a"]

    def test_run_is_not_reentrant(self):
        loop = EventLoop()
        errors = []

        def reenter():
            try:
                loop.run()
            except SimulationError as exc:
                errors.append(exc)

        loop.call_at(1.0, reenter)
        loop.run()
        assert len(errors) == 1

    def test_drain_discards_pending(self):
        loop = EventLoop()
        fired = []
        loop.call_at(1.0, fired.append, "a")
        loop.drain()
        loop.run()
        assert fired == []

    def test_events_processed_counter(self):
        loop = EventLoop()
        for i in range(4):
            loop.call_at(float(i), lambda: None)
        loop.run()
        assert loop.events_processed == 4

    def test_clock_advances_to_until_even_with_no_events(self):
        loop = EventLoop()
        loop.run(until=42.0)
        assert loop.now == 42.0

    def test_empty_run_returns_now(self):
        loop = EventLoop(start_time=3.0)
        assert loop.run() == 3.0

    def test_exception_in_event_propagates_and_loop_reusable(self):
        loop = EventLoop()

        def boom():
            raise ValueError("boom")

        loop.call_at(1.0, boom)
        with pytest.raises(ValueError):
            loop.run()
        fired = []
        loop.call_at(2.0, fired.append, "after")
        loop.run()
        assert fired == ["after"]


class TestChurn:
    """Steady-state heap traffic: self-rescheduling timer chains and a
    decoy scheduled and cancelled by every fired event."""

    def test_timer_chains_fire_every_event_and_drain(self):
        chains, n = 16, 10_000
        loop = EventLoop()
        remaining = [n // chains] * chains

        def tick(idx, delay):
            remaining[idx] -= 1
            if remaining[idx] > 0:
                loop.call_after(delay, tick, idx, delay)

        for idx in range(chains):
            loop.call_after(float(2 * idx + 1), tick, idx, float(2 * idx + 1))
        loop.run()
        assert loop.events_processed == chains * (n // chains)
        assert loop.pending_count == 0

    def test_cancelled_decoys_are_skipped_not_run(self):
        n = 10_000
        loop = EventLoop()
        remaining = [n]

        def tick():
            remaining[0] -= 1
            loop.call_after(0.5, tick).cancel()
            if remaining[0] > 0:
                loop.call_after(1.0, tick)

        loop.call_after(1.0, tick)
        loop.run()
        # Each fired event left one cancelled decoy behind; the lazy
        # skip popped every one of them without running or counting it.
        assert loop.events_processed == n
        assert loop.pending_count == 0
