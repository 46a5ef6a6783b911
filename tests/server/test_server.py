"""Tests for the server pipeline and its configuration."""

import pytest

from repro.errors import ConfigurationError
from repro.metrics.recorder import Recorder
from repro.policies.fcfs import CentralizedFCFS
from repro.server.config import CHANNEL_OP_US, ServerConfig
from repro.server.server import Server
from repro.sim.engine import EventLoop
from repro.sim.units import cycles_to_us
from repro.workload.request import Request


def build(config=None):
    loop = EventLoop()
    recorder = Recorder()
    server = Server(loop, CentralizedFCFS(), config=config, recorder=recorder)
    return loop, server, recorder


class TestServerConfig:
    def test_defaults(self):
        cfg = ServerConfig()
        assert cfg.n_workers == 14
        assert cfg.ingress_delay_us == 0.0

    def test_prototype_costs(self):
        cfg = ServerConfig.prototype()
        # net worker 50ns + classifier 100ns + channel ~34ns.
        assert cfg.ingress_delay_us == pytest.approx(0.1838, abs=0.001)
        assert cfg.channel_delay_us == CHANNEL_OP_US == cycles_to_us(88)

    def test_ideal(self):
        cfg = ServerConfig.ideal()
        assert cfg.n_workers == 16
        assert cfg.ingress_delay_us == 0.0

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            ServerConfig(n_workers=0)
        with pytest.raises(ConfigurationError):
            ServerConfig(net_worker_delay_us=-1.0)


class TestServer:
    def test_ingress_reaches_scheduler(self):
        loop, server, recorder = build()
        server.ingress(Request(0, 0, 0.0, 2.0))
        loop.run()
        assert recorder.completed == 1
        assert server.received == 1

    def test_ingress_delay_applied(self):
        cfg = ServerConfig(n_workers=2, classifier_delay_us=0.5)
        loop, server, recorder = build(cfg)
        server.ingress(Request(0, 0, 0.0, 2.0))
        loop.run()
        cols = recorder.columns()
        assert cols.finishes[0] == pytest.approx(2.5)

    def test_worker_count_from_config(self):
        _, server, _ = build(ServerConfig(n_workers=5))
        assert len(server.workers) == 5

    def test_in_flight_and_pending(self):
        loop, server, _ = build(ServerConfig(n_workers=1))
        server.ingress(Request(0, 0, 0.0, 10.0))
        server.ingress(Request(1, 0, 0.0, 10.0))
        assert server.in_flight == 1
        assert server.pending == 1

    def test_utilization_report(self):
        loop, server, _ = build(ServerConfig(n_workers=2))
        server.ingress(Request(0, 0, 0.0, 5.0))
        loop.run()
        report = server.utilization()
        assert report.busy_cores == pytest.approx(1.0)
        assert report.idle_cores == pytest.approx(1.0)

    def test_utilization_before_time_elapses_raises(self):
        _, server, _ = build()
        with pytest.raises(ConfigurationError):
            server.utilization()
