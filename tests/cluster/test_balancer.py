"""The load-blind and oracle-view rack balancers that replaced the
cluster layer: round-robin, random, JSQ and type-aware reservation."""

import sys

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.metrics.recorder import Recorder
from repro.policies.fcfs import CentralizedFCFS
from repro.rack.balancers import (
    RandomBalancer,
    RoundRobinBalancer,
    StaleJSQ,
    TypeAffinity,
)
from repro.rack.views import QueueViews
from repro.server.config import ServerConfig
from repro.server.server import Server
from repro.sim.engine import EventLoop
from repro.workload.request import Request


def make_servers(loop, n=3, n_workers=1):
    recorder = Recorder()
    return [
        Server(loop, CentralizedFCFS(), config=ServerConfig(n_workers=n_workers),
               recorder=recorder)
        for _ in range(n)
    ]


def req(rid, type_id=0, service=1.0):
    return Request(rid, type_id, 0.0, service)


def oracle(loop, servers):
    return QueueViews(loop, servers, staleness_us=0.0)


def type_aware(loop, servers, assignment, default=None):
    """Type reservation with JSQ inside each set and no spilling."""
    return TypeAffinity(
        servers, oracle(loop, servers), assignment, default,
        spill_threshold=sys.maxsize,
    )


class TestRoundRobin:
    def test_rotates(self):
        loop = EventLoop()
        servers = make_servers(loop, 3)
        balancer = RoundRobinBalancer(servers, oracle(loop, servers))
        for i in range(6):
            balancer.ingress(req(i))
        assert [s.received for s in servers] == [2, 2, 2]
        assert balancer.routed == 6

    def test_empty_servers_rejected(self):
        loop = EventLoop()
        views = oracle(loop, make_servers(loop, 1))
        with pytest.raises(ConfigurationError):
            RoundRobinBalancer([], views)


class TestRandom:
    def test_roughly_uniform(self):
        loop = EventLoop()
        servers = make_servers(loop, 4, n_workers=64)
        balancer = RandomBalancer(
            servers, oracle(loop, servers), np.random.default_rng(0)
        )
        for i in range(4000):
            balancer.ingress(req(i, service=0.001))
        loads = [s.received for s in servers]
        for load in loads:
            assert load == pytest.approx(1000, abs=150)


class TestJoinShortestQueue:
    def test_prefers_idle_server(self):
        loop = EventLoop()
        servers = make_servers(loop, 2)
        balancer = StaleJSQ(servers, oracle(loop, servers))
        balancer.ingress(req(0, service=100.0))  # server 0 busy
        balancer.ingress(req(1, service=1.0))
        assert servers[1].received == 1

    def test_spreads_backlog_evenly(self):
        loop = EventLoop()
        servers = make_servers(loop, 3)
        balancer = StaleJSQ(servers, oracle(loop, servers))
        for i in range(9):
            balancer.ingress(req(i, service=50.0))
        assert [s.received for s in servers] == [3, 3, 3]


class TestTypeAware:
    def test_types_routed_to_assigned_replicas(self):
        loop = EventLoop()
        servers = make_servers(loop, 3)
        balancer = type_aware(loop, servers, assignment={0: [0], 1: [1, 2]})
        balancer.ingress(req(0, type_id=0))
        balancer.ingress(req(1, type_id=1))
        balancer.ingress(req(2, type_id=1))
        assert servers[0].received == 1
        assert servers[1].received + servers[2].received == 2

    def test_unmapped_type_uses_default(self):
        loop = EventLoop()
        servers = make_servers(loop, 2)
        balancer = type_aware(loop, servers, assignment={0: [0]}, default=[1])
        balancer.ingress(req(0, type_id=9))
        assert servers[1].received == 1

    def test_jsq_within_replica_set(self):
        loop = EventLoop()
        servers = make_servers(loop, 2)
        balancer = type_aware(loop, servers, assignment={0: [0, 1]})
        balancer.ingress(req(0, type_id=0, service=100.0))
        balancer.ingress(req(1, type_id=0, service=1.0))
        assert servers[0].received == 1
        assert servers[1].received == 1

    def test_invalid_assignments(self):
        loop = EventLoop()
        servers = make_servers(loop, 2)
        with pytest.raises(ConfigurationError):
            type_aware(loop, servers, assignment={0: []})
        with pytest.raises(ConfigurationError):
            type_aware(loop, servers, assignment={0: [5]})
        with pytest.raises(ConfigurationError):
            type_aware(loop, servers, assignment={0: [0]}, default=[])
