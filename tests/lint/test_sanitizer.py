"""SimSanitizer: every invariant is exercised with a deliberate bug and
must be caught, and a clean run must pass untouched."""

import heapq

import pytest

from repro.core.darc import DarcScheduler
from repro.core.static import DarcStatic
from repro.errors import SanitizerViolation, SchedulingError, SimulationError
from repro.metrics.sanitizer import SimSanitizer
from repro.policies.fcfs import CentralizedFCFS, DecentralizedFCFS, WorkStealingFCFS
from repro.policies.srpt import ShortestRemainingProcessingTime
from repro.policies.timesharing import TimeSharing
from repro.policies.typed import (
    CSCQ,
    DeficitRoundRobin,
    EarliestDeadlineFirst,
    FixedPriority,
    ShortestJobFirst,
    StaticPartitioning,
)
from repro.server.config import ServerConfig
from repro.server.server import Server
from repro.sim.engine import EventLoop
from repro.sim.events import Event
from repro.workload.request import Request, RequestTypeSpec


def make_server(scheduler, n_workers=2):
    loop = EventLoop()
    server = Server(loop, scheduler, config=ServerConfig(n_workers=n_workers))
    sanitizer = SimSanitizer().attach(loop, server)
    return loop, server, sanitizer


def feed(loop, server, requests):
    for request in requests:
        loop.call_at(request.arrival_time, server.ingress, request)


def requests(n, service=5.0, gap=1.0, type_id=0):
    return [Request(i, type_id, i * gap, service) for i in range(n)]


TWO_TYPES = [
    RequestTypeSpec(0, "short", 1.0, 0.5),
    RequestTypeSpec(1, "long", 100.0, 0.5),
]

#: Every queueing policy: each keeps ``Scheduler.queued`` and a
#: ``pending_scan()`` reference, each built for a two-worker server.
COUNTING_POLICIES = {
    "c-fcfs": lambda: CentralizedFCFS(),
    "srpt": lambda: ShortestRemainingProcessingTime(),
    "sjf": lambda: ShortestJobFirst(),
    "edf": lambda: EarliestDeadlineFirst(TWO_TYPES),
    "cscq": lambda: CSCQ(TWO_TYPES, threshold_us=10.0, n_short_workers=1),
    "timesharing-single": lambda: TimeSharing(mode="single"),
    "timesharing-multi": lambda: TimeSharing(mode="multi", type_specs=TWO_TYPES),
    "darc": lambda: DarcScheduler(profile=False, type_specs=TWO_TYPES),
    "d-fcfs": lambda: DecentralizedFCFS(steering="round_robin"),
    "ws-fcfs": lambda: WorkStealingFCFS(steering="round_robin"),
    "fixed-priority": lambda: FixedPriority(TWO_TYPES),
    "drr": lambda: DeficitRoundRobin(TWO_TYPES),
    "static-partitioning": lambda: StaticPartitioning(TWO_TYPES),
    "darc-static": lambda: DarcStatic(TWO_TYPES, n_reserved=1),
}


class TestCleanRuns:
    def test_clean_fcfs_run_passes(self):
        loop, server, sanitizer = make_server(CentralizedFCFS(), n_workers=2)
        feed(loop, server, requests(10))
        loop.run()
        assert sanitizer.events_checked == loop.events_processed
        assert sanitizer.checks_run > sanitizer.events_checked
        assert server.recorder.completed == 10

    def test_clean_darc_oracle_run_passes(self):
        specs = [
            RequestTypeSpec(0, "short", 1.0, 0.5),
            RequestTypeSpec(1, "long", 100.0, 0.5),
        ]
        scheduler = DarcScheduler(profile=False, type_specs=specs)
        loop, server, sanitizer = make_server(scheduler, n_workers=4)
        mixed = [Request(i, i % 2, i * 2.0, 1.0 if i % 2 == 0 else 100.0) for i in range(20)]
        feed(loop, server, mixed)
        loop.run()
        assert server.recorder.completed == 20
        assert sanitizer.events_checked == loop.events_processed

    def test_attach_twice_raises(self):
        loop = EventLoop()
        SimSanitizer().attach(loop)
        with pytest.raises(SimulationError, match="already attached"):
            SimSanitizer().attach(loop)

    def test_detach_allows_reattach(self):
        loop = EventLoop()
        SimSanitizer().attach(loop)
        loop.attach_sanitizer(None)
        SimSanitizer().attach(loop)


class TestMonotonicTime:
    def test_past_event_smuggled_into_heap_is_caught(self):
        loop = EventLoop()
        sanitizer = SimSanitizer().attach(loop)
        loop.call_at(10.0, lambda: None)
        loop.run()
        # Bypass call_at's guard: plant an event before already-run time.
        heapq.heappush(loop._heap, (5.0, 10_000, Event(5.0, 10_000, lambda: None, ())))
        with pytest.raises(SanitizerViolation) as excinfo:
            loop.run()
        assert excinfo.value.invariant == "monotonic-time"
        assert sanitizer.checks_run > 0


class TestWorkerExclusivity:
    def test_request_on_two_workers_is_caught(self):
        loop, server, _ = make_server(CentralizedFCFS(), n_workers=2)
        feed(loop, server, [Request(0, 0, 0.0, 100.0)])
        loop.run(until=1.0)
        assert not server.workers[0].is_free
        server.workers[1].current = server.workers[0].current
        loop.call_at(1.5, lambda: None)
        with pytest.raises(SanitizerViolation) as excinfo:
            loop.run(until=2.0)
        assert excinfo.value.invariant == "worker-exclusivity"

    def test_completed_request_still_on_worker_is_caught(self):
        loop, server, _ = make_server(CentralizedFCFS(), n_workers=1)
        feed(loop, server, [Request(0, 0, 0.0, 100.0)])
        loop.run(until=1.0)
        server.workers[0].current.finish_time = 0.5
        loop.call_at(1.5, lambda: None)
        with pytest.raises(SanitizerViolation) as excinfo:
            loop.run(until=2.0)
        assert excinfo.value.invariant == "worker-exclusivity"


class TestWorkerCounters:
    def test_desynced_busy_counter_is_caught(self):
        loop, server, _ = make_server(CentralizedFCFS(), n_workers=2)
        feed(loop, server, [Request(0, 0, 0.0, 100.0)])
        loop.run(until=1.0)
        assert server.in_flight == 1
        server.counts.busy += 1  # the bug: a counter bumped off-transition
        loop.call_at(1.5, lambda: None)
        with pytest.raises(SanitizerViolation) as excinfo:
            loop.run(until=2.0)
        assert excinfo.value.invariant == "worker-counters"
        assert excinfo.value.context["busy"] == 2
        assert excinfo.value.context["busy_scan"] == 1

    def test_desynced_failed_counter_is_caught(self):
        loop, server, _ = make_server(CentralizedFCFS(), n_workers=2)
        server.counts.failed += 1
        loop.call_at(1.0, lambda: None)
        with pytest.raises(SanitizerViolation) as excinfo:
            loop.run()
        assert excinfo.value.invariant == "worker-counters"

    def test_desynced_free_mask_is_caught(self):
        loop, server, _ = make_server(CentralizedFCFS(), n_workers=2)
        feed(loop, server, [Request(0, 0, 0.0, 100.0)])
        loop.run(until=1.0)
        busy = server.workers[0]
        assert busy.current is not None
        server.counts.free |= busy.bit  # the bug: a busy core marked free
        loop.call_at(1.5, lambda: None)
        with pytest.raises(SanitizerViolation) as excinfo:
            loop.run(until=2.0)
        assert excinfo.value.invariant == "worker-counters"
        assert excinfo.value.context["free"] == "0b11"
        assert excinfo.value.context["free_scan"] == "0b10"

    def test_desync_at_drain_is_not_misread_as_lost_requests(self):
        # The drain-form conservation check reads server.in_flight; a
        # stale counter must surface as itself, not as a lost request.
        loop, server, _ = make_server(CentralizedFCFS(), n_workers=1)
        feed(loop, server, requests(3, service=1.0))
        loop.run()
        server.counts.busy += 1
        with pytest.raises(SanitizerViolation) as excinfo:
            loop.run()
        assert excinfo.value.invariant == "worker-counters"


class TestQueueDepth:
    def test_negative_pending_count_is_caught(self):
        scheduler = CentralizedFCFS()
        loop, server, _ = make_server(scheduler, n_workers=1)
        scheduler.pending_count = lambda: -1
        feed(loop, server, [Request(0, 0, 0.0, 1.0)])
        with pytest.raises(SanitizerViolation) as excinfo:
            loop.run()
        assert excinfo.value.invariant == "queue-depth"

    def test_desynced_darc_pending_counter_is_caught(self):
        specs = [
            RequestTypeSpec(0, "short", 1.0, 0.5),
            RequestTypeSpec(1, "long", 100.0, 0.5),
        ]
        scheduler = DarcScheduler(profile=False, type_specs=specs)
        loop, server, _ = make_server(scheduler, n_workers=2)
        feed(loop, server, requests(6, service=100.0, type_id=1))
        loop.run(until=10.0)
        assert scheduler.pending_count() == scheduler.pending_scan() > 0
        scheduler.queued += 1  # the bug: a counter bumped off-queue
        loop.call_at(10.5, lambda: None)
        with pytest.raises(SanitizerViolation) as excinfo:
            loop.run(until=11.0)
        assert excinfo.value.invariant == "queue-depth"
        context = excinfo.value.context
        assert context["pending"] == context["pending_scan"] + 1

    def test_darc_startup_queue_is_part_of_the_scan(self):
        # Profiled DARC queues in c-FCFS until its first window closes.
        scheduler = DarcScheduler()
        loop, server, _ = make_server(scheduler, n_workers=1)
        feed(loop, server, requests(3, service=100.0))
        loop.run(until=5.0)
        assert scheduler.reservation is None
        assert scheduler.pending_count() == scheduler.pending_scan() == 2
        scheduler._startup_queue.pop()  # the bug: dequeued behind the counter
        loop.call_at(5.5, lambda: None)
        with pytest.raises(SanitizerViolation) as excinfo:
            loop.run(until=6.0)
        assert excinfo.value.invariant == "queue-depth"
        assert excinfo.value.context == {"pending": 2, "pending_scan": 1}


    @pytest.mark.parametrize("mode", ["single", "multi"])
    def test_desynced_timesharing_pending_counter_is_caught(self, mode):
        specs = [
            RequestTypeSpec(0, "short", 1.0, 0.5),
            RequestTypeSpec(1, "long", 100.0, 0.5),
        ]
        scheduler = TimeSharing(mode=mode, type_specs=specs)
        loop, server, _ = make_server(scheduler, n_workers=1)
        feed(loop, server, requests(4, service=100.0, type_id=1))
        loop.run(until=10.0)
        assert scheduler.pending_count() == scheduler.pending_scan() > 0
        scheduler.queued -= 1  # the bug: a dequeue the counter missed
        loop.call_at(10.5, lambda: None)
        with pytest.raises(SanitizerViolation) as excinfo:
            loop.run(until=11.0)
        assert excinfo.value.invariant == "queue-depth"
        context = excinfo.value.context
        assert context["pending"] == context["pending_scan"] - 1

    @pytest.mark.parametrize("policy", sorted(COUNTING_POLICIES))
    def test_desynced_policy_pending_counter_is_caught(self, policy):
        scheduler = COUNTING_POLICIES[policy]()
        loop, server, _ = make_server(scheduler, n_workers=2)
        feed(loop, server, requests(6, service=100.0, type_id=1))
        loop.run(until=10.0)
        assert scheduler.queued == scheduler.pending_scan() > 0
        scheduler.queued += 1  # the bug: a counter bumped off-queue
        loop.call_at(10.5, lambda: None)
        with pytest.raises(SanitizerViolation) as excinfo:
            loop.run(until=11.0)
        assert excinfo.value.invariant == "queue-depth"
        context = excinfo.value.context
        assert context["pending"] == context["pending_scan"] + 1

    def test_rack_replica_desync_is_caught(self):
        # A rack's loop-only sanitizer checks every replica's counter.
        loop = EventLoop()
        servers = [
            Server(loop, CentralizedFCFS(), config=ServerConfig(n_workers=1))
            for _ in range(2)
        ]
        SimSanitizer(replicas=servers).attach(loop)
        feed(loop, servers[1], requests(3, service=100.0))
        loop.run(until=10.0)
        assert servers[1].scheduler.queued == servers[1].scheduler.pending_scan() == 2
        servers[1].scheduler.queued += 1  # the bug: a counter bumped off-queue
        loop.call_at(10.5, lambda: None)
        with pytest.raises(SanitizerViolation) as excinfo:
            loop.run(until=11.0)
        assert excinfo.value.invariant == "queue-depth"
        assert excinfo.value.context == {"pending": 3, "pending_scan": 2}

    def test_rack_view_error_without_a_mark_is_caught(self):
        # A request queued behind the scheduler's back: counter and queue
        # agree, so queue-depth passes, but no load mark reached the
        # views, whose stored error is now stale.
        from repro.rack.views import QueueViews

        loop = EventLoop()
        servers = [
            Server(loop, CentralizedFCFS(), config=ServerConfig(n_workers=1))
            for _ in range(2)
        ]
        views = QueueViews(loop, servers, staleness_us=50.0)
        SimSanitizer(replicas=servers, views=views).attach(loop)
        feed(loop, servers[1], requests(3, service=100.0))
        loop.call_at(5.0, views.least, [0, 1])  # wires the marks
        loop.run(until=10.0)
        scheduler = servers[1].scheduler
        scheduler.queue.append(Request(99, 0, 10.0, 5.0))
        scheduler.queued += 1  # the bug: no mark
        loop.call_at(10.5, lambda: None)
        with pytest.raises(SanitizerViolation) as excinfo:
            loop.run(until=11.0)
        assert excinfo.value.invariant == "view-error"
        assert excinfo.value.context == {
            "replica": 1, "stored": (3, 0), "actual": (4, 1),
        }

    def test_policy_overriding_pending_count_is_refused_at_bind(self):
        class LegacyFCFS(CentralizedFCFS):
            """Written to the old contract: counts by override, never
            bumps ``queued``, so rack views would see it empty."""

            def pending_count(self):
                return len(self.queue)

        with pytest.raises(SchedulingError, match="overrides pending_count"):
            make_server(LegacyFCFS())


class TestRequestConservation:
    def test_more_completions_than_arrivals_is_caught(self):
        loop, server, _ = make_server(CentralizedFCFS(), n_workers=1)
        feed(loop, server, requests(3, service=1.0))
        loop.run()
        server.received = 0  # cook the books
        loop.call_at(loop.now + 1.0, lambda: None)
        with pytest.raises(SanitizerViolation) as excinfo:
            loop.run()
        assert excinfo.value.invariant == "request-conservation"

    def test_silently_lost_request_caught_at_drain(self):
        class LossyFCFS(CentralizedFCFS):
            """Swallows every other request without recording a drop."""

            def __init__(self):
                super().__init__()
                self._seen = 0

            def on_request(self, request):
                self._seen += 1
                if self._seen % 2 == 0:
                    return  # the bug: neither queued, dropped, nor served
                super().on_request(request)

        loop, server, _ = make_server(LossyFCFS(), n_workers=1)
        feed(loop, server, requests(4, service=1.0))
        with pytest.raises(SanitizerViolation) as excinfo:
            loop.run()
        assert excinfo.value.invariant == "request-conservation"
        assert "lost at drain" in str(excinfo.value)


class TestDarcInvariants:
    def _darc_server(self, n_workers=4):
        specs = [
            RequestTypeSpec(0, "short", 1.0, 0.5),
            RequestTypeSpec(1, "long", 100.0, 0.5),
        ]
        scheduler = DarcScheduler(profile=False, type_specs=specs)
        loop, server, sanitizer = make_server(scheduler, n_workers=n_workers)
        return loop, server, scheduler, sanitizer

    def test_dispatch_to_ineligible_worker_is_caught(self):
        loop, server, scheduler, _ = self._darc_server()
        assert scheduler.reservation is not None
        ineligible = [
            w.worker_id for w in server.workers
            if not scheduler.worker_may_serve(w.worker_id, 1)
        ]
        assert ineligible, "expected a worker the long type may not use"
        victim = server.workers[ineligible[0]]
        rogue = Request(99, 1, 0.0, 50.0)

        loop.call_at(1.0, scheduler.begin_service, victim, rogue)
        with pytest.raises(SanitizerViolation) as excinfo:
            loop.run(until=2.0)
        assert excinfo.value.invariant == "darc-reservation"

    def test_reservation_naming_foreign_worker_is_caught(self):
        loop, server, scheduler, _ = self._darc_server()
        scheduler.reservation.allocations[0].reserved.append(99)
        loop.call_at(1.0, lambda: None)
        with pytest.raises(SanitizerViolation) as excinfo:
            loop.run(until=2.0)
        assert excinfo.value.invariant == "darc-reservation"

    def test_worker_may_serve_contract(self):
        _, server, scheduler, _ = self._darc_server()
        n = len(server.workers)
        # Every type is servable somewhere; shorts can go everywhere they
        # reserve or steal, longs are fenced off shorts' reserved cores.
        assert any(scheduler.worker_may_serve(w, 0) for w in range(n))
        assert any(scheduler.worker_may_serve(w, 1) for w in range(n))
        assert not all(scheduler.worker_may_serve(w, 1) for w in range(n))


class TestViolationStructure:
    def test_violation_carries_context(self):
        violation = SanitizerViolation(
            "request-conservation",
            "requests lost",
            time=12.5,
            context={"received": 4, "completed": 2},
        )
        assert violation.invariant == "request-conservation"
        assert violation.time == 12.5
        assert violation.context["received"] == 4
        message = str(violation)
        assert "[request-conservation]" in message
        assert "t=12.500us" in message
        assert "received=4" in message
