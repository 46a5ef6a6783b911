"""Balancer edge cases on oracle views: tie-breaking determinism,
single-replica racks, and routing around dead replicas (all cores
crashed)."""

import numpy as np

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


def kill(server):
    for worker in server.workers:
        worker.fail()


def oracle(loop, servers):
    return QueueViews(loop, servers, staleness_us=0.0)


class TestJSQTieBreaking:
    def test_all_idle_ties_rotate_deterministically(self):
        loop = EventLoop()
        servers = make_servers(loop, 3, n_workers=8)
        balancer = StaleJSQ(servers, oracle(loop, servers))
        # With every replica equally loaded the rotating scan start must
        # pick 0, 1, 2, 0, 1, 2 — never pile ties onto index 0.
        picks = [balancer.pick(req(i, service=0.0)) for i in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_same_stream_same_routing(self):
        loop = EventLoop()
        routings = []
        for _ in range(2):
            servers = make_servers(loop, 4)
            balancer = StaleJSQ(servers, oracle(loop, servers))
            for i in range(12):
                balancer.ingress(req(i, service=50.0))
            routings.append([s.received for s in servers])
        assert routings[0] == routings[1]


class TestSingleReplica:
    def test_every_policy_handles_one_replica(self):
        loop = EventLoop()
        for make in (
            lambda s, v: RoundRobinBalancer(s, v),
            lambda s, v: RandomBalancer(s, v, np.random.default_rng(0)),
            lambda s, v: StaleJSQ(s, v),
            lambda s, v: TypeAffinity(s, v, assignment={0: [0]}),
        ):
            servers = make_servers(loop, 1)
            balancer = make(servers, oracle(loop, servers))
            for i in range(3):
                balancer.ingress(req(i, type_id=0))
            assert servers[0].received == 3

    def test_single_dead_replica_still_accepts(self):
        # Nowhere else to go: the request must queue, not vanish.
        loop = EventLoop()
        servers = make_servers(loop, 1)
        kill(servers[0])
        balancer = RoundRobinBalancer(servers, oracle(loop, servers))
        balancer.ingress(req(0))
        assert servers[0].received == 1


class TestDeadReplicaExclusion:
    def test_round_robin_skips_dead(self):
        loop = EventLoop()
        servers = make_servers(loop, 3)
        kill(servers[1])
        balancer = RoundRobinBalancer(servers, oracle(loop, servers))
        for i in range(6):
            balancer.ingress(req(i))
        assert servers[1].received == 0
        assert servers[0].received + servers[2].received == 6

    def test_random_never_routes_to_dead(self):
        loop = EventLoop()
        servers = make_servers(loop, 4, n_workers=4)
        kill(servers[2])
        balancer = RandomBalancer(
            servers, oracle(loop, servers), np.random.default_rng(7)
        )
        for i in range(200):
            balancer.ingress(req(i, service=0.001))
        assert servers[2].received == 0
        assert sum(s.received for s in servers) == 200

    def test_jsq_avoids_dead_even_when_emptiest(self):
        loop = EventLoop()
        servers = make_servers(loop, 3)
        kill(servers[0])  # idle, so JSQ would otherwise prefer it
        balancer = StaleJSQ(servers, oracle(loop, servers))
        for i in range(4):
            balancer.ingress(req(i, service=50.0))
        assert servers[0].received == 0
        assert servers[1].received == 2
        assert servers[2].received == 2

    def test_type_aware_falls_back_within_live_set(self):
        loop = EventLoop()
        servers = make_servers(loop, 3)
        kill(servers[0])
        balancer = TypeAffinity(
            servers, oracle(loop, servers), assignment={0: [0, 1]}
        )
        balancer.ingress(req(0, type_id=0))
        assert servers[0].received == 0
        assert servers[1].received == 1

    def test_all_dead_falls_back_to_full_set(self):
        loop = EventLoop()
        servers = make_servers(loop, 2)
        for server in servers:
            kill(server)
        balancer = StaleJSQ(servers, oracle(loop, servers))
        for i in range(4):
            balancer.ingress(req(i))
        assert sum(s.received for s in servers) == 4

    def test_recovered_replica_rejoins_rotation(self):
        loop = EventLoop()
        servers = make_servers(loop, 2)
        kill(servers[0])
        balancer = RoundRobinBalancer(servers, oracle(loop, servers))
        balancer.ingress(req(0))
        assert servers[0].received == 0
        for worker in servers[0].workers:
            worker.recover()
        for i in range(1, 5):
            balancer.ingress(req(i))
        assert servers[0].received == 2


class TestTypeAwareUnmappedDefault:
    def test_unmapped_type_uses_implicit_full_default(self):
        loop = EventLoop()
        servers = make_servers(loop, 3)
        balancer = TypeAffinity(
            servers, oracle(loop, servers), assignment={0: [0]}, spill_threshold=100
        )
        # Unmapped type with no explicit default: JSQ over all replicas.
        balancer.ingress(req(0, type_id=5, service=100.0))
        balancer.ingress(req(1, type_id=5, service=100.0))
        balancer.ingress(req(2, type_id=5, service=100.0))
        assert [s.received for s in servers] == [1, 1, 1]
