"""Tests for the preemptive SRPT oracle policy."""

import pytest

from repro.errors import ConfigurationError
from repro.policies.srpt import ShortestRemainingProcessingTime as SRPT

from ..conftest import make_harness


class TestSrpt:
    def test_short_preempts_long(self):
        h = make_harness(SRPT(), n_workers=1)
        long_req = h.submit(1, 100.0)
        short_req = h.submit(0, 1.0, at=10.0)
        h.run()
        # Short arrives, remaining(long)=90 > 1 -> preempt, run short.
        assert short_req.finish_time == pytest.approx(11.0)
        assert long_req.preemption_count == 1
        assert long_req.finish_time == pytest.approx(101.0)

    def test_no_preemption_when_newcomer_longer(self):
        h = make_harness(SRPT(), n_workers=1)
        first = h.submit(0, 5.0)
        second = h.submit(0, 50.0, at=1.0)
        h.run()
        assert first.preemption_count == 0
        assert first.finish_time == pytest.approx(5.0)
        assert second.finish_time == pytest.approx(55.0)

    def test_remaining_time_decides_not_total(self):
        h = make_harness(SRPT(), n_workers=1)
        long_req = h.submit(1, 100.0)
        # At t=99 the long has 1.0 remaining; a 2.0 newcomer must wait.
        late = h.submit(0, 2.0, at=99.0)
        h.run()
        assert long_req.preemption_count == 0
        assert late.finish_time == pytest.approx(102.0)

    def test_preempts_longest_remaining_victim(self):
        h = make_harness(SRPT(), n_workers=2)
        a = h.submit(1, 100.0)
        b = h.submit(1, 30.0)
        short = h.submit(0, 1.0, at=5.0)
        h.run()
        # The 100us request (more remaining) is the victim.
        assert a.preemption_count == 1
        assert b.preemption_count == 0
        assert short.finish_time == pytest.approx(6.0)

    def test_preempt_cost_charged(self):
        h = make_harness(SRPT(preempt_cost_us=2.0), n_workers=1)
        long_req = h.submit(1, 100.0)
        short_req = h.submit(0, 1.0, at=10.0)
        h.run()
        # Preemption takes 2us before the short runs.
        assert short_req.finish_time == pytest.approx(13.0)
        assert long_req.overhead_time == pytest.approx(2.0)
        assert h.workers[0].total_overhead_time == pytest.approx(2.0)

    def test_work_conserving(self):
        h = make_harness(SRPT(), n_workers=4)
        for _ in range(8):
            h.submit(0, 2.0)
        h.run()
        assert h.loop.now == pytest.approx(4.0)

    def test_mean_latency_beats_fcfs(self):
        from repro.policies.fcfs import CentralizedFCFS

        def run(policy):
            h = make_harness(policy, n_workers=2)
            import numpy as np

            rng = np.random.default_rng(3)
            t = 0.0
            for i in range(500):
                t += float(rng.exponential(20.0))
                service = 1.0 if rng.random() < 0.8 else 100.0
                h.submit(0, service, at=t)
            h.run()
            cols = h.recorder.columns()
            return cols.latencies.mean()

        assert run(SRPT()) < run(CentralizedFCFS())

    def test_invalid_cost(self):
        with pytest.raises(ConfigurationError):
            SRPT(preempt_cost_us=-1.0)


class TestObserved:
    @pytest.mark.parametrize("cost", [0.0, 2.0])
    def test_observer_sees_every_slice(self, cost):
        """Dispatch, preemption (once the core is released, after the
        preemption cost) and completion all reach an attached observer."""
        sched = SRPT(preempt_cost_us=cost)
        h = make_harness(sched, n_workers=1)
        calls = []

        class Spy:
            def on_dispatch(self, request, worker, now):
                calls.append(("dispatch", now, request.rid))

            def on_preempt(self, request, worker, overhead_us):
                calls.append(("preempt", h.loop.now, request.rid, overhead_us))

            def on_complete(self, request, worker, now):
                calls.append(("complete", now, request.rid))

        sched.attach_observer(Spy())
        long_req = h.submit(1, 100.0)
        short_req = h.submit(0, 1.0, at=10.0)
        h.run()
        assert calls == [
            ("dispatch", 0.0, long_req.rid),
            ("preempt", 10.0 + cost, long_req.rid, cost),
            ("dispatch", 10.0 + cost, short_req.rid),
            ("complete", 11.0 + cost, short_req.rid),
            ("dispatch", 11.0 + cost, long_req.rid),
            ("complete", 101.0 + cost, long_req.rid),
        ]
