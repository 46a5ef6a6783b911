"""Tests for the preemptive time-sharing (Shinjuku-model) policy."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.policies.timesharing import TimeSharing
from repro.server.worker import Worker
from repro.systems.shinjuku import ShinjukuSystem
from repro.workload.presets import high_bimodal
from repro.workload.request import RequestTypeSpec

from repro.experiments.common import run_once
from repro.faults.plan import FaultPlan, WorkerCrash, WorkerRecover, WorkerSlowdown

from ..conftest import make_harness
from ..lint.test_determinism import _PolicySystem, _timesharing_accounting

HB = high_bimodal().type_specs()


class TestSingleQueue:
    def test_short_request_no_preemption(self):
        h = make_harness(TimeSharing(quantum_us=5.0, preempt_overhead_us=1.0), n_workers=1)
        r = h.submit(0, 3.0)
        h.run()
        assert r.preemption_count == 0
        assert r.latency == pytest.approx(3.0)

    def test_long_request_preempted_per_quantum(self):
        h = make_harness(TimeSharing(quantum_us=5.0, preempt_overhead_us=1.0), n_workers=1)
        r = h.submit(0, 20.0)
        h.run()
        # 20us in 5us slices: preempted after slices 1-3, finishes in 4.
        assert r.preemption_count == 3
        assert r.overhead_time == pytest.approx(3.0)
        assert r.latency == pytest.approx(20.0 + 3.0)

    def test_preemption_protects_short_requests(self):
        h = make_harness(TimeSharing(quantum_us=5.0, preempt_overhead_us=0.0), n_workers=1)
        long_req = h.submit(1, 100.0)
        short_req = h.submit(0, 1.0, at=0.1)
        h.run()
        # The short runs after the long's first 5us slice, not after 100us.
        assert short_req.finish_time == pytest.approx(6.0)
        assert long_req.finish_time > short_req.finish_time

    def test_preempted_requeued_at_tail(self):
        h = make_harness(TimeSharing(quantum_us=5.0, preempt_overhead_us=0.0), n_workers=1)
        a = h.submit(0, 10.0)
        b = h.submit(0, 10.0, at=0.1)
        h.run()
        # Slices alternate a,b,a,b: both see processor sharing.
        assert a.preemption_count == 1
        assert b.preemption_count == 1
        assert abs(a.finish_time - b.finish_time) == pytest.approx(5.0)

    def test_overhead_counts_against_worker(self):
        h = make_harness(TimeSharing(quantum_us=5.0, preempt_overhead_us=2.0), n_workers=1)
        h.submit(0, 10.0)
        h.run()
        assert h.workers[0].total_overhead_time == pytest.approx(2.0)

    def test_delay_plus_overhead(self):
        sched = TimeSharing(quantum_us=5.0, preempt_overhead_us=1.0, preempt_delay_us=1.0)
        h = make_harness(sched, n_workers=1)
        r = h.submit(0, 10.0)
        h.run()
        # One preemption at cost 2us total.
        assert r.latency == pytest.approx(12.0)


class TestMultiQueue:
    def make(self, **kwargs):
        defaults = dict(
            quantum_us=5.0,
            preempt_overhead_us=0.0,
            mode="multi",
            type_specs=HB,
        )
        defaults.update(kwargs)
        return TimeSharing(**defaults)

    def test_requires_type_specs(self):
        with pytest.raises(ConfigurationError):
            TimeSharing(mode="multi")

    def test_preempted_goes_to_head_of_own_queue(self):
        h = make_harness(self.make(), n_workers=1)
        long1 = h.submit(1, 10.0)
        long2 = h.submit(1, 10.0, at=0.1)
        h.run()
        # Head-of-queue re-insertion: long1's remaining slice runs before
        # long2 is started... but BVT alternates queues; within the same
        # queue order is preserved.
        assert long1.finish_time < long2.finish_time

    def test_bvt_shares_between_types(self):
        h = make_harness(self.make(), n_workers=1)
        h.submit(1, 20.0)
        short = h.submit(0, 1.0, at=0.1)
        h.run()
        # The short's queue has lower virtual time, so it runs at the
        # first preemption boundary.
        assert short.finish_time == pytest.approx(6.0)

    def test_weights_bias_selection(self):
        heavy = self.make(weights={1: 100.0})
        h = make_harness(heavy, n_workers=1)
        long_req = h.submit(1, 10.0)
        short_req = h.submit(0, 1.0, at=0.1)
        h.run()
        assert h.recorder.completed == 2

    def test_unregistered_type_raises(self):
        from repro.errors import SchedulingError

        h = make_harness(self.make(), n_workers=1)
        h.submit(0, 10.0)
        with pytest.raises(SchedulingError):
            h.submit(9, 1.0)

    def test_unregistered_type_raises_at_its_first_boundary(self):
        from repro.errors import SchedulingError

        # A free core starts it without a queue; the quantum boundary
        # must still refuse it rather than guess a queue or a vtime.
        h = make_harness(self.make(), n_workers=1)
        h.submit(9, 10.0)
        with pytest.raises(SchedulingError):
            h.run()


class TestFlowControlAndValidation:
    def test_queue_capacity_drops_new_arrivals_only(self):
        sched = TimeSharing(quantum_us=5.0, preempt_overhead_us=0.0, queue_capacity=1)
        h = make_harness(sched, n_workers=1)
        h.submit(0, 50.0)
        h.submit(0, 50.0)   # queued
        h.submit(0, 50.0)   # dropped
        h.run()
        assert h.recorder.dropped == 1
        # Preempted requests are never dropped by flow control.
        assert h.recorder.completed == 2

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            TimeSharing(quantum_us=0.0)
        with pytest.raises(ConfigurationError):
            TimeSharing(preempt_overhead_us=-1.0)
        with pytest.raises(ConfigurationError):
            TimeSharing(mode="triple")

    # A NaN quantum passes ``<= 0`` and then never preempts: the server
    # silently runs non-preemptively.  Infinite costs hold a core forever.
    BAD_TIMES = [
        dict(quantum_us=math.nan),
        dict(quantum_us=math.inf),
        dict(quantum_us=-5.0),
        dict(preempt_overhead_us=math.nan),
        dict(preempt_overhead_us=math.inf),
        dict(preempt_delay_us=math.nan),
        dict(preempt_delay_us=math.inf),
        dict(preempt_delay_us=-0.5),
    ]

    @pytest.mark.parametrize("kwargs", BAD_TIMES, ids=repr)
    def test_non_finite_or_negative_times_are_refused(self, kwargs):
        with pytest.raises(ConfigurationError):
            TimeSharing(**kwargs)

    @pytest.mark.parametrize("kwargs", BAD_TIMES, ids=repr)
    def test_shinjuku_system_refuses_them_at_construction(self, kwargs):
        with pytest.raises(ConfigurationError):
            ShinjukuSystem(**kwargs)

    def test_zero_costs_are_accepted(self):
        sched = TimeSharing(preempt_overhead_us=0.0, preempt_delay_us=0.0)
        assert sched.preempt_overhead_us == sched.preempt_delay_us == 0.0

    @pytest.mark.parametrize(
        "weights",
        [
            {1: 0.0},       # divides by zero at the first dequeue
            {1: -2.0},      # virtual time falls: the type always wins BVT
            {0: math.nan},
            {0: math.inf},
            {7: 2.0},       # not a registered type: would be ignored
        ],
        ids=repr,
    )
    def test_bad_weights_are_refused(self, weights):
        with pytest.raises(ConfigurationError):
            TimeSharing(mode="multi", type_specs=HB, weights=weights)

    def test_weights_need_registered_types_in_single_mode_too(self):
        with pytest.raises(ConfigurationError):
            TimeSharing(weights={0: 2.0})

    def test_positive_weights_of_registered_types_are_accepted(self):
        sched = TimeSharing(mode="multi", type_specs=HB, weights={0: 0.5, 1: 3.0})
        assert sched.weights == {0: 0.5, 1: 3.0}

    @pytest.mark.parametrize("capacity", [0, -1, 2.5, True], ids=repr)
    def test_bad_queue_capacity_is_refused(self, capacity):
        with pytest.raises(ConfigurationError):
            TimeSharing(queue_capacity=capacity)

    def test_queue_capacity_of_one_is_accepted(self):
        assert TimeSharing(queue_capacity=1).queue_capacity == 1

    def test_ideal_ts_is_overhead_free(self):
        h = make_harness(TimeSharing(quantum_us=5.0, preempt_overhead_us=0.0), n_workers=1)
        r = h.submit(0, 23.0)
        h.run()
        assert r.latency == pytest.approx(23.0)
        assert h.scheduler.preemptions == 4


class _Spy:
    """Records (kind, time, rid) for every tracer hook a policy fires."""

    def __init__(self, loop):
        self.loop = loop
        self.calls = []

    def _record(self, kind, request, now=None):
        self.calls.append((kind, self.loop.now if now is None else now, request.rid))

    def on_dispatch(self, request, worker, now):
        self._record("dispatch", request, now)

    def on_preempt(self, request, worker, overhead_us):
        self._record("preempt", request)

    def on_complete(self, request, worker, now):
        self._record("complete", request, now)


@pytest.fixture
def laps(monkeypatch):
    """Counts :meth:`Worker.lap` calls: each is one hand-back."""
    count = [0]
    lap = Worker.lap

    def counting(self, now, overhead=0.0):
        count[0] += 1
        lap(self, now, overhead)

    monkeypatch.setattr(Worker, "lap", counting)
    return count


class TestHandBack:
    """A quantum boundary whose discipline would re-pick the preempted
    request hands it straight back to its core; any other boundary goes
    through the queues."""

    def multi(self, type_specs=HB):
        return TimeSharing(
            quantum_us=5.0, preempt_overhead_us=0.0, mode="multi", type_specs=type_specs
        )

    def test_own_type_only_queue_hands_back(self, laps):
        h = make_harness(self.multi(), n_workers=1)
        first = h.submit(1, 20.0)
        second = h.submit(1, 20.0, at=0.1)
        h.run()
        # Every boundary finds only its own type queued: BVT must re-pick
        # it, so it keeps the core and ``second`` waits for its finish.
        assert first.preemption_count == 3
        assert laps[0] == 3 + 3
        assert second.first_service_time == pytest.approx(20.0)
        assert h.workers[0].total_busy_time == pytest.approx(40.0)
        assert h.workers[0].counts.busy == 0

    def test_lower_vtime_type_takes_the_core(self, laps):
        sched = self.multi()
        h = make_harness(sched, n_workers=1)
        first = h.submit(1, 20.0)
        short = h.submit(0, 1.0, at=6.0)
        second = h.submit(1, 20.0, at=7.0)
        h.run(until=10.5)
        # At 5 nothing waits (hand-back; type 1 charged 5).  At 10 type 0
        # (vtime 0) beats type 1 (vtime 5): ``short`` starts and ``first``
        # goes to the head of type 1's queue, ahead of ``second``.
        assert laps[0] == 1
        assert short.first_service_time == pytest.approx(10.0)
        assert list(sched.typed[1]) == [first, second]
        h.run()
        assert first.finish_time == pytest.approx(21.0)
        assert second.first_service_time == pytest.approx(21.0)

    @pytest.mark.parametrize("order", ["short-first", "long-first"])
    def test_vtime_tie_goes_to_earlier_registered_type(self, order, laps):
        specs = HB if order == "short-first" else list(reversed(HB))
        h = make_harness(self.multi(specs), n_workers=1)
        long_req = h.submit(1, 20.0)
        short = h.submit(0, 1.0, at=1.0)
        h.run(until=5.5)
        # At 5 both types have vtime 0 (the long started without a
        # dequeue).  The tie goes to the type registered first; when that
        # is the long's own type, the long is handed straight back.
        assert laps[0] == (0 if order == "short-first" else 1)
        h.run()
        if order == "short-first":
            assert short.first_service_time == pytest.approx(5.0)
        else:
            assert short.first_service_time == pytest.approx(10.0)
        assert long_req.preemption_count == 3

    @pytest.mark.parametrize("order", ["short-first", "long-first"])
    def test_dequeue_breaks_the_tie_the_same_way(self, order):
        specs = HB if order == "short-first" else list(reversed(HB))
        sched = self.multi(specs)
        h = make_harness(sched, n_workers=1)
        h.submit(1, 20.0)            # occupies the core
        h.submit(1, 20.0)
        h.submit(0, 1.0)
        assert sched.vtimes[0] == sched.vtimes[1] == 0.0
        expected = 0 if order == "short-first" else 1
        assert sched._bvt_pick() == expected
        assert sched._bvt_pick(own_tid=1) == expected
        assert sched._dequeue().type_id == expected

    def test_single_mode_hands_back_only_on_an_empty_queue(self, laps):
        sched = TimeSharing(quantum_us=5.0, preempt_overhead_us=0.0)
        h = make_harness(sched, n_workers=1)
        long_req = h.submit(0, 20.0)
        other = h.submit(0, 5.0, at=7.0)
        h.run()
        # 5: queue empty, hand back.  10: ``other`` waits, so the long
        # goes to the tail and ``other`` runs 10..15.  15: the long is
        # dequeued.  20: queue empty again, hand back.
        assert laps[0] == 2
        assert long_req.preemption_count == 3
        assert other.first_service_time == pytest.approx(10.0)
        assert long_req.finish_time == pytest.approx(25.0)

    def test_traced_hand_back_emits_preempt_then_dispatch(self):
        sched = TimeSharing(quantum_us=5.0, preempt_overhead_us=1.0)
        h = make_harness(sched, n_workers=1)
        spy = _Spy(h.loop)
        sched.attach_observer(spy)
        r = h.submit(0, 10.0)
        h.run()
        assert spy.calls == [
            ("dispatch", 0.0, r.rid),
            ("preempt", 6.0, r.rid),
            ("dispatch", 6.0, r.rid),
            ("complete", 11.0, r.rid),
        ]
        assert h.workers[0].total_overhead_time == pytest.approx(1.0)
        assert h.workers[0].total_busy_time == pytest.approx(11.0)


def _weighted_tpcc(spec, rngs):
    return TimeSharing(
        quantum_us=10.0,
        preempt_overhead_us=1.0,
        preempt_delay_us=1.0,
        mode="multi",
        type_specs=spec.type_specs(),
        weights={0: 2.0, 2: 0.5, 3: 4.0},
    )


class _EveryEvent:
    """A loop observer due after every event: it keeps each slice on
    the per-quantum path."""

    def on_loop_event(self, loop):
        return loop.now


class TestLazyBoundaries:
    """Untraced runs settle certain hand-backs in bulk; traced runs book
    every quantum boundary as its own event.  Both must reach the same
    digest, the same worker and vtime accounting and the same preemption
    count, while the untraced run pops far fewer events."""

    #: name -> (system factory, workload, rho, fault plan factory or None,
    #: max_sim_time_us).
    RUNS = {
        "multi": (lambda: ShinjukuSystem(n_workers=14), "high_bimodal", 0.7, None, None),
        "single": (
            lambda: ShinjukuSystem(n_workers=14, mode="single"),
            "extreme_bimodal",
            0.6,
            None,
            None,
        ),
        "multi-tpcc-weighted": (
            lambda: _PolicySystem(_weighted_tpcc, n_workers=14),
            "tpcc",
            0.8,
            None,
            None,
        ),
        # Integer services and quanta with free preemptions: every lap and
        # completion lands on an integer lattice, so events tie.
        "integer-free-preemption": (
            lambda: ShinjukuSystem(
                n_workers=8, preempt_overhead_us=0.0, preempt_delay_us=0.0
            ),
            "high_bimodal",
            0.8,
            None,
            None,
        ),
        "straggler-and-crash": (
            lambda: ShinjukuSystem(n_workers=14),
            "high_bimodal",
            0.7,
            lambda: FaultPlan(
                [
                    WorkerSlowdown(2_000.0, 3, factor=3.0, until=9_000.0),
                    WorkerCrash(3_300.0, 5),
                    WorkerRecover(4_700.0, 5),
                ]
            ),
            None,
        ),
        # Both cores restart at the same round instant and lap in step.
        "recover-together": (
            lambda: ShinjukuSystem(n_workers=14),
            "high_bimodal",
            0.7,
            lambda: FaultPlan(
                [
                    WorkerCrash(3_300.0, 1),
                    WorkerCrash(3_300.0, 6),
                    WorkerRecover(6_100.0, 1),
                    WorkerRecover(6_100.0, 6),
                ]
            ),
            None,
        ),
        "cut-mid-slice": (
            lambda: ShinjukuSystem(n_workers=14),
            "high_bimodal",
            0.7,
            None,
            4_321.5,
        ),
        # A quantum with low mantissa bits: ``remaining - k * quantum``
        # is inexact for most service times.
        "quantum-3.3": (
            lambda: ShinjukuSystem(n_workers=14, quantum_us=3.3),
            "high_bimodal",
            0.7,
            None,
            None,
        ),
        # A x1.13 straggler's lap step ``5 * 1.13 + 2`` has low mantissa
        # bits, so ``now + k * step`` rounds at most times.  (A x1.1 one
        # laps every 7.5 us, exactly.)
        "straggler-1.13": (
            lambda: ShinjukuSystem(n_workers=14),
            "high_bimodal",
            0.7,
            lambda: FaultPlan([WorkerSlowdown(1_500.0, 4, factor=1.13, until=8_000.0)]),
            None,
        ),
    }
    #: Runs where a slice may decline to go lazy: they check only that
    #: the untraced run equals the traced one, not which path it took.
    MAY_DECLINE = {"quantum-3.3", "straggler-1.13"}

    @staticmethod
    def run(name, tracer):
        from repro.faults.runner import run_chaos
        from repro.metrics.digest import digest_chaos_outcome, digest_outcome
        from repro.workload import presets

        factory, workload, rho, plan, cut = TestLazyBoundaries.RUNS[name]
        spec = getattr(presets, workload)()
        if plan is None:
            result = run_once(
                factory(), spec, rho, n_requests=5_000, seed=2, tracer=tracer,
                max_sim_time_us=cut,
            )
            recorder, scheduler = result.server.recorder, result.scheduler
            digest = digest_outcome(recorder, result.server.loop)
        else:
            result = run_chaos(
                factory(), spec, rho, plan(), n_requests=5_000, seed=2,
                sanitize=True, tracer=tracer,
            )
            scheduler = result.scheduler
            digest = digest_chaos_outcome(
                result.recorder, result.server.loop, result.injector
            )
        accounting = _timesharing_accounting(scheduler, result.server.workers)
        return digest, accounting, scheduler.preemptions, result.server.loop

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_lazy_equals_per_quantum(self, name):
        from repro.trace import Tracer

        *lazy, lazy_loop = self.run(name, None)
        *eager, eager_loop = self.run(name, Tracer())
        assert lazy == eager
        assert lazy_loop.events_processed == eager_loop.events_processed
        assert eager_loop.credited_events == 0
        if name not in self.MAY_DECLINE:
            # The untraced run really took the lazy path.
            assert lazy_loop.credited_events > 0

    def test_chain_started_at_a_break_hides_no_earlier_lap(self):
        """At 76 a type-0 slice goes lazy on core 2 and a type-1 request
        is enqueued, which makes the type-0 chains and the type-2 chain
        uncertain.  The stand-in is core 1's lap at 77, before core 0's
        at 80; the chain started at 76 laps only at 81, yet it sorts
        first among the type-0 chains."""
        types = [RequestTypeSpec(i, f"t{i}", 50.0, 1 / 3) for i in range(3)]

        def run(per_quantum):
            sched = TimeSharing(
                quantum_us=5.0, preempt_overhead_us=0.0, mode="multi", type_specs=types
            )
            h = make_harness(sched, n_workers=3)
            if per_quantum:
                h.loop.attach_observer(_EveryEvent())
            requests = [
                h.submit(2, 50.0, at=65.0),
                h.submit(0, 50.0, at=67.0),
                h.submit(0, 40.0, at=76.0),
                h.submit(1, 10.0, at=76.0),
            ]
            h.run()
            sched.settle()
            outcome = [(r.finish_time, r.preemption_count) for r in requests]
            return outcome, sched.preemptions, dict(sched.vtimes), h.loop

        *lazy, lazy_loop = run(False)
        *eager, eager_loop = run(True)
        assert lazy == eager
        assert lazy_loop.events_processed == eager_loop.events_processed
        assert lazy_loop.credited_events > 0
        # The type-1 request takes core 1 at 77.
        assert lazy[0][3] == (87.0, 1)

    def test_cut_run_settles_its_laps(self):
        *_, loop = self.run("cut-mid-slice", None)
        assert loop.now == 4_321.5

    def test_heap_pops_per_request(self):
        """The benchmark's server-shinjuku configuration pops at most four
        heap events per request (about 11.5 per request when every
        quantum boundary is an event)."""
        n = 10_000
        result = run_once(
            ShinjukuSystem(n_workers=14, quantum_us=5, mode="multi"),
            high_bimodal(),
            0.7,
            n_requests=n,
            seed=1,
        )
        loop = result.server.loop
        assert (loop.events_processed - loop.credited_events) / n <= 4.0
        assert loop.events_processed / n > 11.0
