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


def stub_rack(n):
    """``n`` replicas whose queued and busy counts a test sets directly,
    on a loop whose clock it sets directly."""
    loop = SimpleNamespace(now=0.0)
    servers = [
        SimpleNamespace(
            scheduler=SimpleNamespace(queued=0), counts=SimpleNamespace(busy=0)
        )
        for _ in range(n)
    ]
    return loop, servers


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
            server.scheduler.queued = queued
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
        servers[0].scheduler.queued = 5
        servers[2].counts.busy = 2
        loop.now = 9.5
        assert views.least([0, 1, 2], start=1) == 1
        assert views.stale_reads == 3
        assert views.error_sum == 7.0
        loop.now = 10.0  # exactly one window later: every entry expires
        assert views.least([0, 1, 2]) == 1
        assert views.fresh_reads == 6

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
                server.scheduler.queued = data.draw(st.integers(0, 4))
                server.counts.busy = data.draw(st.integers(0, 2))
            if data.draw(st.booleans(), label="full pool"):
                pool = everyone
            else:
                pool = data.draw(
                    st.lists(st.integers(0, n - 1), min_size=1, max_size=n + 1),
                    label="subset pool",
                )
            start = data.draw(st.integers(0, len(pool) - 1), label="start")
            expected = scalar_least(scalar, pool, start)
            assert batched.least(pool, start) == expected
            assert view_state(batched) == view_state(scalar)
