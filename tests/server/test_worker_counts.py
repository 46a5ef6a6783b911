"""Busy/failed worker counters and the free-core mask: every transition
keeps them equal to a scan of the workers, and liveness listeners fire
only on a flip."""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.errors import SchedulingError
from repro.policies.fcfs import CentralizedFCFS
from repro.server.config import ServerConfig
from repro.server.server import Server
from repro.server.worker import Worker, WorkerCounts, shared_counts
from repro.sim.engine import EventLoop
from repro.workload.request import Request


def req(rid=0, service=5.0):
    return Request(rid, 0, 0.0, service)


def make_server(n_workers=3):
    loop = EventLoop()
    return Server(loop, CentralizedFCFS(), config=ServerConfig(n_workers=n_workers))


def scanned(server):
    busy = sum(1 for w in server.workers if w.current is not None)
    failed = sum(1 for w in server.workers if w.failed)
    return busy, failed


class TestStandaloneWorker:
    def test_keeps_a_private_tally(self):
        w = Worker(4)
        assert w.counts.size == 1
        assert (w.counts.busy, w.counts.failed) == (0, 0)
        w.begin(req(), 0.0)
        assert w.counts.busy == 1
        w.end(1.0)
        assert w.counts.busy == 0

    def test_standalone_workers_do_not_share(self):
        a, b = Worker(0), Worker(1)
        a.begin(req(), 0.0)
        assert a.counts is not b.counts
        assert b.counts.busy == 0

    def test_failed_begin_and_end_leave_counters_alone(self):
        w = Worker(0)
        with pytest.raises(SchedulingError):
            w.end(1.0)
        assert w.counts.busy == 0
        w.begin(req(0), 0.0)
        with pytest.raises(SchedulingError):
            w.begin(req(1), 1.0)
        assert w.counts.busy == 1


class TestServerCounters:
    def test_workers_share_the_server_tally(self):
        server = make_server(3)
        assert all(w.counts is server.counts for w in server.workers)
        assert server.counts.size == 3

    def test_begin_end(self):
        server = make_server(3)
        a, b = server.workers[0], server.workers[1]
        a.begin(req(0), 0.0)
        b.begin(req(1), 0.0)
        assert server.in_flight == 2 == scanned(server)[0]
        a.end(1.0)
        assert server.in_flight == 1 == scanned(server)[0]
        b.end(2.0)
        assert server.in_flight == 0

    def test_fail_and_recover_while_idle(self):
        server = make_server(3)
        worker = server.workers[2]
        worker.fail()
        assert server.failed_workers == 1 == scanned(server)[1]
        assert server.in_flight == 0
        worker.recover()
        assert server.failed_workers == 0 == scanned(server)[1]

    def test_fail_and_recover_while_busy(self):
        # fail() does not evict; the busy count follows the request, not
        # the crash, until the scheduler's crash handler ends it.
        server = make_server(2)
        worker = server.workers[0]
        worker.begin(req(), 0.0)
        worker.fail()
        assert (server.in_flight, server.failed_workers) == (1, 1) == scanned(server)
        worker.recover()
        assert (server.in_flight, server.failed_workers) == (1, 0) == scanned(server)
        worker.end(3.0)
        assert (server.in_flight, server.failed_workers) == (0, 0)

    def test_double_fail_and_recover_are_counter_no_ops(self):
        server = make_server(2)
        worker = server.workers[0]
        worker.fail()
        worker.fail()
        assert server.failed_workers == 1
        assert worker.crash_count == 2  # every crash is still counted
        worker.recover()
        worker.recover()
        assert server.failed_workers == 0
        assert server.alive

    def test_crash_handler_keeps_counters_exact(self):
        server = make_server(2)
        server.ingress(req(0, service=100.0))
        server.ingress(req(1, service=100.0))
        assert server.in_flight == 2
        server.scheduler.on_worker_crash(server.workers[0], requeue=False)
        assert (server.in_flight, server.failed_workers) == (1, 1) == scanned(server)
        server.scheduler.on_worker_recover(server.workers[0])
        assert (server.in_flight, server.failed_workers) == (1, 0) == scanned(server)


def bind(workers):
    scheduler = CentralizedFCFS()
    scheduler.bind(EventLoop(), workers, lambda request: None)
    return scheduler


class TestSchedulerTally:
    def test_standalone_workers_adopt_one_shared_tally(self):
        workers = [Worker(i) for i in range(3)]
        scheduler = bind(workers)
        assert scheduler.counts.size == 3
        assert all(w.counts is scheduler.counts for w in workers)
        workers[2].begin(req(), 0.0)
        assert scheduler.counts.busy == 1

    def test_server_tally_is_reused_and_listeners_survive(self):
        server = make_server(2)
        assert server.scheduler.counts is server.counts
        flips = []
        server.watch_alive(lambda: flips.append(server.alive))
        for worker in server.workers:
            server.scheduler.on_worker_crash(worker)
        assert flips == [False]
        server.scheduler.on_worker_recover(server.workers[1])
        assert flips == [False, True]

    def test_busy_and_failed_workers_are_counted_at_bind(self):
        workers = [Worker(i) for i in range(4)]
        workers[0].begin(req(0), 0.0)
        workers[1].fail()
        workers[2].begin(req(1), 0.0)
        workers[2].end(1.0)  # busy once, idle now
        scheduler = bind(workers)
        counts = scheduler.counts
        assert (counts.busy, counts.failed, counts.size) == (1, 1, 4)
        workers[0].end(2.0)
        workers[1].recover()
        assert (counts.busy, counts.failed) == (0, 0)

    def test_a_single_worker_keeps_its_own_tally(self):
        worker = Worker(0)
        private = worker.counts
        assert bind([worker]).counts is private

    def test_a_slice_of_a_server_is_refused(self):
        server = make_server(3)
        with pytest.raises(SchedulingError, match="tally"):
            shared_counts(server.workers[:2])
        assert all(w.counts is server.counts for w in server.workers)

    def test_first_free_worker_is_none_exactly_when_the_tally_is_full(self):
        workers = [Worker(i) for i in range(3)]
        scheduler = bind(workers)
        counts = scheduler.counts

        def full():
            return counts.busy + counts.failed >= counts.size

        workers[0].fail()
        workers[1].begin(req(0), 0.0)
        assert not full() and scheduler.first_free_worker() is workers[2]
        workers[2].begin(req(1), 0.0)
        assert full() and scheduler.first_free_worker() is None
        workers[1].end(1.0)
        assert not full() and scheduler.first_free_worker() is workers[1]
        workers[1].fail()
        assert full() and scheduler.first_free_worker() is None
        workers[0].recover()
        assert not full() and scheduler.first_free_worker() is workers[0]


class TestLivenessListeners:
    def test_fires_only_when_alive_flips(self):
        server = make_server(2)
        flips = []
        server.watch_alive(lambda: flips.append(server.alive))
        first, second = server.workers
        first.fail()  # partial crash: still alive
        assert flips == [] and server.alive
        second.fail()  # last live core: dead
        assert flips == [False]
        first.fail()  # already down: nothing changes
        assert flips == [False]
        second.recover()  # first core back: alive again
        assert flips == [False, True]
        first.recover()
        assert flips == [False, True]

    def test_single_core_server(self):
        counts = WorkerCounts(1)
        flips = []
        counts.listeners.append(lambda: flips.append(counts.failed))
        worker = Worker(0, counts)
        worker.fail()
        worker.recover()
        assert flips == [1, 0]


def free_scan(workers):
    mask = 0
    for worker in workers:
        if worker.is_free:
            mask |= 1 << worker.worker_id
    return mask


class FreeMaskMachine(RuleBasedStateMachine):
    """Random begin/end/lap/fail/recover sequences over standalone workers
    that are merged onto one tally part-way: after every step each tally's
    ``free`` mask equals a scan of ``is_free`` over its workers, whatever
    the order (a crash of a busy core included)."""

    @initialize(n=st.integers(min_value=1, max_value=6))
    def create(self, n):
        self.workers = [Worker(i) for i in range(n)]
        self.merged = False
        self.rid = 0
        self.now = 0.0

    def pick(self, i):
        return self.workers[i % len(self.workers)]

    @rule(i=st.integers(0, 5))
    def begin(self, i):
        worker = self.pick(i)
        self.rid += 1
        if worker.current is None:
            worker.begin(req(self.rid), self.now)
        else:
            with pytest.raises(SchedulingError):
                worker.begin(req(self.rid), self.now)

    @rule(i=st.integers(0, 5))
    def end(self, i):
        worker = self.pick(i)
        self.now += 1.0
        if worker.current is None:
            with pytest.raises(SchedulingError):
                worker.end(self.now)
        else:
            worker.end(self.now)

    @rule(i=st.integers(0, 5))
    def lap(self, i):
        worker = self.pick(i)
        self.now += 1.0
        if worker.current is None:
            with pytest.raises(SchedulingError):
                worker.lap(self.now)
        else:
            worker.lap(self.now)

    @rule(i=st.integers(0, 5))
    def fail(self, i):
        self.pick(i).fail()

    @rule(i=st.integers(0, 5))
    def recover(self, i):
        self.pick(i).recover()

    @precondition(lambda self: not self.merged)
    @rule()
    def merge(self):
        counts = shared_counts(self.workers)
        assert all(w.counts is counts for w in self.workers)
        self.merged = True

    @invariant()
    def masks_match_a_scan(self):
        tallies = {}
        for worker in self.workers:
            tallies.setdefault(id(worker.counts), (worker.counts, []))[1].append(worker)
        for counts, workers in tallies.values():
            assert counts.free == free_scan(workers)
            assert counts.busy == sum(1 for w in workers if w.current is not None)
            assert counts.failed == sum(1 for w in workers if w.failed)


TestFreeMask = FreeMaskMachine.TestCase
TestFreeMask.settings = settings(max_examples=60, stateful_step_count=40, deadline=None)


class TestFreeMaskOnAServer:
    def test_a_new_server_has_every_core_free(self):
        server = make_server(3)
        assert server.counts.free == 0b111

    def test_crash_handler_keeps_the_mask_exact(self):
        server = make_server(3)
        scheduler = server.scheduler
        workers = server.workers
        workers[1].begin(req(0), 0.0)
        assert server.counts.free == 0b101
        scheduler.on_worker_crash(workers[1], requeue=False)
        assert server.counts.free == 0b101 == free_scan(workers)
        scheduler.on_worker_recover(workers[1])
        assert server.counts.free == 0b111 == free_scan(workers)
