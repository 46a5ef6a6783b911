"""Rack-tier chaos: server crash/recover expansion and partitions."""

import pytest

from repro.errors import ConfigurationError
from repro.metrics.recorder import Recorder
from repro.policies.fcfs import CentralizedFCFS
from repro.rack.balancers import StaleJSQ
from repro.rack.faults import (
    RackFaultInjector,
    RackFaultPlan,
    RackPartition,
    ServerCrash,
    ServerRecover,
)
from repro.rack.views import QueueViews
from repro.server.config import ServerConfig
from repro.server.server import Server
from repro.sim.engine import EventLoop


def make_rack(loop, n=3, n_workers=2):
    recorder = Recorder()
    servers = [
        Server(loop, CentralizedFCFS(), config=ServerConfig(n_workers=n_workers),
               recorder=recorder)
        for _ in range(n)
    ]
    views = QueueViews(loop, servers)
    return servers, StaleJSQ(servers, views)


class TestPlanConstruction:
    def test_events_sort_by_time(self):
        plan = RackFaultPlan([
            ServerRecover(200.0, 0),
            ServerCrash(100.0, 0),
        ])
        assert [e.at for e in plan.events] == [100.0, 200.0]
        assert plan.first_fault_time() == 100.0
        assert len(plan) == 2
        assert not plan.is_empty

    def test_crash_recover_helper(self):
        plan = RackFaultPlan.server_crash_recover([0, 2], 100.0, recover_at=500.0)
        kinds = [e.kind for e in plan.events]
        assert kinds.count("server-crash") == 2
        assert kinds.count("server-recover") == 2
        with pytest.raises(ConfigurationError):
            RackFaultPlan.server_crash_recover([0], 100.0, recover_at=50.0)

    def test_partition_validation(self):
        with pytest.raises(ConfigurationError):
            RackPartition(100.0, 50.0, [0])
        with pytest.raises(ConfigurationError):
            RackPartition(100.0, 200.0, [])

    def test_validate_against_rack_size(self):
        plan = RackFaultPlan.server_crash_recover([5], 100.0)
        with pytest.raises(ConfigurationError):
            plan.validate(n_servers=3)
        plan.validate(n_servers=6)

    def test_describe_names_events(self):
        plan = RackFaultPlan.partition([1, 2], 100.0, 300.0)
        assert "partition(s1,s2)@100.0..300.0us" in plan.describe()


class TestInjector:
    def test_server_crash_takes_every_core_down(self):
        loop = EventLoop()
        servers, balancer = make_rack(loop, n=3, n_workers=2)
        plan = RackFaultPlan.server_crash_recover([1], 100.0, recover_at=500.0)
        injector = RackFaultInjector(plan)
        injector.arm(loop, servers, balancer)
        loop.call_at(200.0, lambda: None)
        loop.run(until=200.0)
        assert not servers[1].alive
        assert servers[0].alive and servers[2].alive
        loop.call_at(600.0, lambda: None)
        loop.run(until=600.0)
        assert servers[1].alive
        counters = injector.counters()
        assert counters["server_crashes"] == 1
        assert counters["server_recoveries"] == 1
        assert counters["worker_crashes"] == 2
        assert counters["worker_recoveries"] == 2

    def test_partition_flips_reachability(self):
        loop = EventLoop()
        servers, balancer = make_rack(loop, n=3)
        plan = RackFaultPlan.partition([0, 1], 100.0, 300.0)
        injector = RackFaultInjector(plan)
        injector.arm(loop, servers, balancer)
        loop.call_at(150.0, lambda: None)
        loop.run(until=150.0)
        assert not balancer.available(0)
        assert not balancer.available(1)
        assert balancer.available(2)
        # Partitioned replicas are alive: they drain, just get no new work.
        assert servers[0].alive
        loop.call_at(400.0, lambda: None)
        loop.run(until=400.0)
        assert balancer.available(0) and balancer.available(1)
        assert injector.partitions == 2
        assert injector.partition_heals == 2
        assert [kind for _, kind, _ in injector.log] == [
            "partition", "partition", "partition-heal", "partition-heal",
        ]

    def test_arm_twice_raises(self):
        loop = EventLoop()
        servers, balancer = make_rack(loop)
        injector = RackFaultInjector(RackFaultPlan.partition([0], 1.0, 2.0))
        injector.arm(loop, servers, balancer)
        with pytest.raises(ConfigurationError):
            injector.arm(loop, servers, balancer)

    def test_arm_validates_ids(self):
        loop = EventLoop()
        servers, balancer = make_rack(loop, n=2)
        injector = RackFaultInjector(RackFaultPlan.server_crash_recover([3], 1.0))
        with pytest.raises(ConfigurationError):
            injector.arm(loop, servers, balancer)


class TestOverlappingPartitions:
    def test_replica_stays_dark_until_the_last_partition_ends(self):
        from repro.rack.balancers import make_balancer
        from repro.rack.rack import run_rack
        from repro.systems.persephone import PersephoneSystem
        from repro.workload.presets import high_bimodal

        decisions = []

        def factory(servers, views, rngs, spec):
            balancer = make_balancer("jsq-stale", servers, views, rngs, spec)
            balancer.attach_decision_sink(
                lambda request, index: decisions.append((views.loop.now, index))
            )
            return balancer

        plan = RackFaultPlan([
            RackPartition(1000.0, 3000.0, [1]),
            RackPartition(2000.0, 5000.0, [1, 2]),
        ])
        result = run_rack(
            PersephoneSystem(n_workers=4), high_bimodal(), balancer=factory,
            n_servers=4, n_requests=1500, seed=3, plan=plan,
        )
        dark = [t for t, index in decisions if index == 1 and 1000.0 <= t < 5000.0]
        assert dark == []
        # The replica is routed to on both sides of the blackout.
        assert any(index == 1 for t, index in decisions if t < 1000.0)
        assert any(index == 1 for t, index in decisions if t >= 5000.0)
        assert result.injector.partition_heals == 3

    @pytest.mark.parametrize("reverse", [False, True])
    def test_abutting_partitions_keep_the_replica_dark(self, reverse):
        # One partition ends at the instant the next begins: the start is
        # booked before the end, so the replica never reads reachable at
        # the seam, whichever order the plan lists them in.
        from repro.rack.balancers import make_balancer
        from repro.rack.rack import run_rack
        from repro.systems.persephone import PersephoneSystem
        from repro.workload.presets import high_bimodal

        decisions = []

        def factory(servers, views, rngs, spec):
            balancer = make_balancer("jsq-stale", servers, views, rngs, spec)
            balancer.attach_decision_sink(
                lambda request, index: decisions.append((views.loop.now, index))
            )
            return balancer

        partitions = [
            RackPartition(1000.0, 2000.0, [1]),
            RackPartition(2000.0, 3000.0, [1]),
        ]
        if reverse:
            partitions.reverse()
        result = run_rack(
            PersephoneSystem(n_workers=4), high_bimodal(), balancer=factory,
            n_servers=4, n_requests=1500, seed=3, plan=RackFaultPlan(partitions),
        )
        assert [i for t, i in decisions if i == 1 and 1000.0 <= t < 3000.0] == []
        assert any(i == 1 for t, i in decisions if t >= 3000.0)
        assert result.injector.partition_heals == 2
        assert [(t, kind) for t, kind, _ in result.injector.log] == [
            (1000.0, "partition"),
            (2000.0, "partition"),
            (2000.0, "partition-heal"),
            (3000.0, "partition-heal"),
        ]
