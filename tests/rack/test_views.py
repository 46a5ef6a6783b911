"""QueueViews: oracle vs stale snapshots, and the error bookkeeping."""

import pytest

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
