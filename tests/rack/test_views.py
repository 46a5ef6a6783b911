"""QueueViews: oracle vs stale snapshots, and the error bookkeeping."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.metrics.recorder import Recorder
from repro.policies.fcfs import CentralizedFCFS
from repro.rack.views import QueueViews
from repro.server.config import ServerConfig
from repro.server.server import Server
from repro.sim.engine import EventLoop
from repro.workload.request import Request


def make_servers(loop, n=2, n_workers=1):
    recorder = Recorder()
    return [
        Server(loop, CentralizedFCFS(), config=ServerConfig(n_workers=n_workers),
               recorder=recorder)
        for _ in range(n)
    ]


def req(rid, service=100.0):
    return Request(rid, 0, 0.0, service)


class TestOracleMode:
    def test_zero_staleness_reads_actual_load(self):
        loop = EventLoop()
        servers = make_servers(loop, 2)
        views = QueueViews(loop, servers, staleness_us=0.0)
        assert views.load(0) == 0
        servers[0].ingress(req(0))
        servers[0].ingress(req(1))
        assert views.load(0) == 2
        assert views.load(1) == 0
        assert views.stale_reads == 0
        assert views.mean_error() == 0.0

    def test_validation(self):
        loop = EventLoop()
        with pytest.raises(ConfigurationError):
            QueueViews(loop, [])
        with pytest.raises(ConfigurationError):
            QueueViews(loop, make_servers(loop, 1), staleness_us=-1.0)

    def test_nan_staleness_is_refused(self):
        # `now - t >= nan` is never true: NaN views would never refresh.
        loop = EventLoop()
        with pytest.raises(ConfigurationError):
            QueueViews(loop, make_servers(loop, 1), staleness_us=float("nan"))


class TestStaleMode:
    def test_reads_within_window_return_snapshot(self):
        loop = EventLoop()
        servers = make_servers(loop, 1)
        views = QueueViews(loop, servers, staleness_us=50.0)
        assert views.load(0) == 0  # fresh snapshot at t=0
        servers[0].ingress(req(0))
        servers[0].ingress(req(1))
        # Still inside the window: the view has not caught up.
        assert views.load(0) == 0
        assert views.fresh_reads == 1
        assert views.stale_reads == 1
        # The stale read was off by exactly the two queued requests.
        assert views.mean_error() == pytest.approx(2.0)

    def test_snapshot_refreshes_after_window(self):
        loop = EventLoop()
        servers = make_servers(loop, 1)
        views = QueueViews(loop, servers, staleness_us=50.0)
        assert views.load(0) == 0
        servers[0].ingress(req(0))
        loop.call_at(60.0, lambda: None)
        loop.run(until=60.0)
        assert loop.now >= 50.0
        assert views.load(0) >= 1  # window elapsed: refreshed
        assert views.fresh_reads == 2

    def test_counters_dict(self):
        loop = EventLoop()
        views = QueueViews(loop, make_servers(loop, 1), staleness_us=10.0)
        views.load(0)
        counters = views.counters()
        assert counters["fresh_reads"] == 1
        assert counters["stale_reads"] == 0
        assert counters["mean_view_error"] == 0.0


class StubReplica:
    """A replica whose queued and busy counts a test sets directly.  Like
    a real :class:`Server` it pushes a load mark to its watchers through
    :meth:`watch_load` whenever :meth:`set_load` moves them."""

    def __init__(self):
        self.scheduler = SimpleNamespace(queued=0)
        self.counts = SimpleNamespace(busy=0)
        self.watchers = []

    def watch_load(self, listener):
        self.watchers.append(listener)
        return float("-inf")

    def set_load(self, queued=None, busy=None):
        if queued is not None:
            self.scheduler.queued = queued
        if busy is not None:
            self.counts.busy = busy
        for listener in self.watchers:
            listener()


def stub_rack(n):
    """``n`` stub replicas on a loop whose clock the test sets directly."""
    loop = SimpleNamespace(now=0.0)
    return loop, [StubReplica() for _ in range(n)]


def scalar_least(views, pool, start):
    """The reference: one ``load`` per replica from ``start``, wrapping;
    strict ``<`` keeps the first minimum met."""
    n = len(pool)
    best = pool[start]
    best_load = None
    for offset in range(n):
        i = pool[(start + offset) % n]
        value = views.load(i)
        if best_load is None or value < best_load:
            best_load = value
            best = i
    return best


def view_state(views):
    return (
        list(views._view),
        list(views._refreshed_at),
        views.fresh_reads,
        views.stale_reads,
        views.error_sum,
    )


class TestLeast:
    def test_ties_go_to_the_first_minimum_from_start(self):
        loop, servers = stub_rack(4)
        views = QueueViews(loop, servers)
        for server, queued in zip(servers, [1, 0, 2, 0]):
            server.set_load(queued=queued)
        assert views.least([0, 1, 2, 3]) == 1
        assert views.least([0, 1, 2, 3], start=2) == 3
        assert views.least([0, 1, 2, 3], start=3) == 3
        assert views.least([2, 0], start=1) == 0
        assert views.least([3, 1], start=0) == 3

    def test_unexpired_pool_books_every_read_as_stale(self):
        loop, servers = stub_rack(3)
        views = QueueViews(loop, servers, staleness_us=10.0)
        assert views.least([0, 1, 2]) == 0  # first reads refresh all three
        assert views.fresh_reads == 3
        servers[0].set_load(queued=5)
        servers[2].set_load(busy=2)
        loop.now = 9.5
        assert views.least([0, 1, 2], start=1) == 1
        assert views.stale_reads == 3
        assert views.error_sum == 7.0
        loop.now = 10.0  # exactly one window later: every entry expires
        assert views.least([0, 1, 2]) == 1
        assert views.fresh_reads == 6

    def test_marks_are_wired_by_the_first_pool_read(self):
        loop, servers = stub_rack(3)
        views = QueueViews(loop, servers, staleness_us=10.0)
        for _ in range(3):
            for i in range(3):
                views.load(i)
            servers[1].set_load(queued=2)
        assert [len(server.watchers) for server in servers] == [0, 0, 0]
        views.least([0, 1, 2])
        assert [len(server.watchers) for server in servers] == [1, 1, 1]
        views.least([2, 0])
        views.loads([1])
        assert [len(server.watchers) for server in servers] == [1, 1, 1]

    def test_load_only_views_keep_no_marks(self):
        # pow2 on a large rack only ever calls load(): nothing to flush,
        # so nothing may be recorded either.
        loop, servers = stub_rack(4)
        views = QueueViews(loop, servers, staleness_us=5.0)
        for step in range(40):
            loop.now = step * 0.75
            servers[step % 4].set_load(queued=step % 3, busy=step % 2)
            views.load(step % 4)
        assert all(not server.watchers for server in servers)
        assert views.error_drift() == []

    def test_refresh_through_load_between_picks(self):
        # Staggered refreshes: a load() that rewrites one view between
        # two stale full-pool picks must reach the second one (its
        # stored error and the cached smallest view).
        loop, servers = stub_rack(3)
        views = QueueViews(loop, servers, staleness_us=10.0)
        scalar = QueueViews(loop, servers, staleness_us=10.0)
        everyone = [0, 1, 2]
        steps = [
            (0.0, "least", [0, 1], {0: 2, 1: 1}),
            (4.0, "least", [2], {2: 5}),
            (5.0, "least", everyone, {}),
            (10.0, "load", 0, {0: 0}),
            (10.0, "load", 1, {1: 3}),
            (12.0, "least", everyone, {}),
            (13.0, "least", everyone, {2: 0}),
            (14.5, "load", 2, {}),
            (14.6, "least", everyone, {}),
            (15.0, "least", everyone, {0: 6}),
        ]
        for now, read, arg, moves in steps:
            loop.now = now
            for index, queued in moves.items():
                servers[index].set_load(queued=queued)
            if read == "load":
                assert views.load(arg) == scalar.load(arg)
            else:
                assert views.least(arg, 1 % len(arg)) == scalar_least(
                    scalar, arg, 1 % len(arg)
                )
            assert view_state(views) == view_state(scalar)
            assert views.error_drift() == []
        assert views.stale_reads > 0 and views.fresh_reads == 6

    def test_duplicate_and_partial_pools(self):
        loop, servers = stub_rack(4)
        views = QueueViews(loop, servers, staleness_us=10.0)
        scalar = QueueViews(loop, servers, staleness_us=10.0)
        for pool, start in (([2, 2, 0], 1), ([3, 1, 3, 1], 2), ([1], 0), ([0, 1, 2, 3], 3)):
            loop.now += 4.0
            for i, server in enumerate(servers):
                server.set_load(queued=(i * 7 + int(loop.now)) % 5)
            assert views.least(pool, start) == scalar_least(scalar, pool, start)
            assert views.loads(pool) == [scalar.load(i) for i in pool]
            assert view_state(views) == view_state(scalar)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_the_scalar_load_loop(self, data):
        n = data.draw(st.integers(1, 6), label="n")
        staleness = data.draw(st.sampled_from([0.0, 0.25, 1.0, 2.5, 50.0]))
        loop, servers = stub_rack(n)
        batched = QueueViews(loop, servers, staleness_us=staleness)
        scalar = QueueViews(loop, servers, staleness_us=staleness)
        everyone = list(range(n))
        steps = data.draw(st.integers(1, 25), label="steps")
        for _ in range(steps):
            # Steps of a whole window (or a multiple of its quarters) make
            # `now - refreshed == staleness` exact; 0.1 and 3.7 do not.
            loop.now += data.draw(
                st.sampled_from([0.0, 0.25, 0.5, staleness, 2 * staleness, 0.1, 3.7])
            )
            for server in servers:
                if data.draw(st.booleans(), label="moves"):
                    server.set_load(
                        queued=data.draw(st.integers(0, 4)),
                        busy=data.draw(st.integers(0, 2)),
                    )
            if data.draw(st.booleans(), label="full pool"):
                pool = everyone
            else:
                pool = data.draw(
                    st.lists(st.integers(0, n - 1), min_size=1, max_size=n + 1),
                    label="subset pool",
                )
            read = data.draw(st.sampled_from(["least", "loads", "load"]), label="read")
            if read == "least":
                start = data.draw(st.integers(0, len(pool) - 1), label="start")
                expected = scalar_least(scalar, pool, start)
                assert batched.least(pool, start) == expected
            elif read == "loads":
                expected = [scalar.load(i) for i in pool]
                assert batched.loads(pool) == expected
            else:
                index = data.draw(st.integers(0, n - 1), label="index")
                assert batched.load(index) == scalar.load(index)
            assert view_state(batched) == view_state(scalar)
            assert batched.error_drift() == []


def delayed_servers(loop, n):
    """FCFS replicas whose requests reach the scheduler 2 us after
    ingress, behind a 0.5 us dispatcher."""
    config = ServerConfig(n_workers=1, net_worker_delay_us=2.0, dispatcher_service_us=0.5)
    return [
        Server(loop, CentralizedFCFS(), config=config, recorder=Recorder())
        for _ in range(n)
    ]


class TestPushedMarks:
    def test_delayed_hand_offs_routed_before_wiring_are_read(self):
        # Requests ingressed before the first pool read reach their
        # scheduler later with no mark: the views read those replicas on
        # every pool read until the hand-offs' horizon has passed.
        loop = EventLoop()
        servers = delayed_servers(loop, 3)
        views = QueueViews(loop, servers, staleness_us=50.0)
        scalar = QueueViews(loop, servers, staleness_us=50.0)
        for rid in range(4):
            servers[rid % 2].ingress(req(rid, service=30.0))
        assert views.least([0, 1, 2]) == scalar_least(scalar, [0, 1, 2], 0) == 0
        for t in (1.0, 2.25, 2.5, 3.0, 20.0, 40.0):
            loop.call_at(t, lambda: None)
            loop.run(until=t)
            assert views.least([0, 1, 2], 1) == scalar_least(scalar, [0, 1, 2], 1)
            assert view_state(views) == view_state(scalar)
            assert views.error_drift() == []
        assert views.stale_reads > 0 and views.error_sum > 0

    def test_delayed_hand_offs_mark_when_they_reach_the_scheduler(self):
        # A request routed now reaches its scheduler later, behind the
        # dispatcher and the network delay: the mark comes with it.
        loop = EventLoop()
        servers = delayed_servers(loop, 3)
        views = QueueViews(loop, servers, staleness_us=50.0)
        scalar = QueueViews(loop, servers, staleness_us=50.0)
        assert views.least([0, 1, 2]) == scalar_least(scalar, [0, 1, 2], 0) == 0
        for rid in range(4):
            servers[rid % 2].ingress(req(rid, service=30.0))
        for t in (1.0, 2.25, 2.5, 3.0, 20.0, 40.0):
            loop.call_at(t, lambda: None)
            loop.run(until=t)
            assert views.least([0, 1, 2], 1) == scalar_least(scalar, [0, 1, 2], 1)
            assert view_state(views) == view_state(scalar)
            assert views.error_drift() == []
        assert views.stale_reads > 0 and views.error_sum > 0

    def test_error_drift_reports_an_unmarked_move(self):
        loop, servers = stub_rack(2)
        views = QueueViews(loop, servers, staleness_us=10.0)
        views.least([0, 1])
        servers[1].scheduler.queued = 3  # moved without a mark
        assert views.error_drift() == [(1, (0, 0), (3, 3))]
        servers[1].set_load()  # the mark
        assert views.error_drift() == []
