"""Rack balancer catalogue: policy behavior on controlled views."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.metrics.recorder import Recorder
from repro.policies.fcfs import CentralizedFCFS
from repro.rack.balancers import (
    BALANCER_NAMES,
    EXTRA_BALANCER_NAMES,
    PowerOfD,
    RandomBalancer,
    SessionAffinity,
    ShortestExpectedDelay,
    StaleJSQ,
    TypeAffinity,
    affinity_assignment,
    make_balancer,
)
from repro.rack.views import QueueViews
from repro.server.config import ServerConfig
from repro.server.server import Server
from repro.sim.engine import EventLoop
from repro.sim.randomness import RngRegistry
from repro.workload.presets import high_bimodal
from repro.workload.request import Request


def make_servers(loop, n=4, n_workers=1):
    recorder = Recorder()
    return [
        Server(loop, CentralizedFCFS(), config=ServerConfig(n_workers=n_workers),
               recorder=recorder)
        for _ in range(n)
    ]


def req(rid, type_id=0, service=100.0, session=None):
    request = Request(rid, type_id, 0.0, service)
    request.session = session
    return request


def kill(server):
    for worker in server.workers:
        worker.fail()


class TestPowerOfD:
    def test_picks_least_loaded_of_sample(self):
        loop = EventLoop()
        servers = make_servers(loop, 2)
        views = QueueViews(loop, servers)
        balancer = PowerOfD(servers, views, np.random.default_rng(0), d=2)
        servers[0].ingress(req(0))
        servers[0].ingress(req(1))
        # d == n: the sample is the whole rack, so the emptier replica wins.
        assert balancer.pick(req(2)) == 1

    def test_same_rng_same_routing(self):
        loop = EventLoop()
        routings = []
        for _ in range(2):
            servers = make_servers(loop, 6)
            views = QueueViews(loop, servers)
            balancer = PowerOfD(servers, views, np.random.default_rng(7), d=2)
            balancer_picks = [balancer.pick(req(i)) for i in range(30)]
            routings.append(balancer_picks)
        assert routings[0] == routings[1]

    def test_d_validation(self):
        loop = EventLoop()
        servers = make_servers(loop, 2)
        views = QueueViews(loop, servers)
        with pytest.raises(ConfigurationError):
            PowerOfD(servers, views, np.random.default_rng(0), d=0)


class TestStaleJSQ:
    def test_full_scan_finds_emptiest(self):
        loop = EventLoop()
        servers = make_servers(loop, 3)
        views = QueueViews(loop, servers)
        balancer = StaleJSQ(servers, views)
        servers[0].ingress(req(0))
        servers[1].ingress(req(1))
        assert balancer.pick(req(2)) == 2

    def test_ties_rotate(self):
        loop = EventLoop()
        servers = make_servers(loop, 3, n_workers=4)
        views = QueueViews(loop, servers)
        balancer = StaleJSQ(servers, views)
        picks = [balancer.pick(req(i, service=0.0)) for i in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_sampled_k_requires_rng(self):
        loop = EventLoop()
        servers = make_servers(loop, 4)
        views = QueueViews(loop, servers)
        with pytest.raises(ConfigurationError):
            StaleJSQ(servers, views, k=2)

    def test_stale_views_can_herd(self):
        # The defining failure mode: with a frozen view, every pick
        # lands on the same replica until the snapshot refreshes.
        loop = EventLoop()
        servers = make_servers(loop, 3)
        views = QueueViews(loop, servers, staleness_us=1e9)
        balancer = StaleJSQ(servers, views)
        for i in range(6):
            index = balancer.pick(req(i))
            servers[index].ingress(req(100 + i))
        # All six landed somewhere while the view said "everyone empty";
        # the rotating start spreads ties, but the view never saw the
        # queue build up.
        assert views.stale_reads > 0
        assert views.mean_error() > 0


class TestShortestExpectedDelay:
    def test_penalizes_lost_cores(self):
        loop = EventLoop()
        servers = make_servers(loop, 2, n_workers=2)
        views = QueueViews(loop, servers)
        balancer = ShortestExpectedDelay(servers, views, mean_service_us=10.0)
        # Replica 0 lost one of two cores: same queue depth now costs
        # twice the delay, so SED prefers replica 1.
        servers[0].workers[0].fail()
        servers[0].ingress(req(0))
        servers[1].ingress(req(1))
        assert balancer.pick(req(2)) == 1

    def test_mean_service_validation(self):
        loop = EventLoop()
        servers = make_servers(loop, 2)
        views = QueueViews(loop, servers)
        with pytest.raises(ConfigurationError):
            ShortestExpectedDelay(servers, views, mean_service_us=0.0)


class TestTypeAffinity:
    def test_types_route_to_home_sets(self):
        loop = EventLoop()
        servers = make_servers(loop, 4)
        views = QueueViews(loop, servers)
        balancer = TypeAffinity(
            servers, views, assignment={0: [0, 1], 1: [2, 3]}, spill_threshold=100
        )
        assert balancer.pick(req(0, type_id=0)) in (0, 1)
        assert balancer.pick(req(1, type_id=1)) in (2, 3)

    def test_overloaded_home_spills_and_counts(self):
        loop = EventLoop()
        servers = make_servers(loop, 3)
        views = QueueViews(loop, servers)
        balancer = TypeAffinity(
            servers, views, assignment={0: [0]}, spill_threshold=1
        )
        for i in range(3):
            servers[0].ingress(req(100 + i))
        index = balancer.pick(req(0, type_id=0))
        assert index != 0
        assert balancer.spills == 1

    def test_dead_home_falls_back_to_live_home(self):
        loop = EventLoop()
        servers = make_servers(loop, 3)
        views = QueueViews(loop, servers)
        balancer = TypeAffinity(
            servers, views, assignment={0: [0, 1]}, spill_threshold=100
        )
        kill(servers[0])
        assert balancer.pick(req(0, type_id=0)) == 1

    def test_validation(self):
        loop = EventLoop()
        servers = make_servers(loop, 2)
        views = QueueViews(loop, servers)
        with pytest.raises(ConfigurationError):
            TypeAffinity(servers, views, assignment={0: []})
        with pytest.raises(ConfigurationError):
            TypeAffinity(servers, views, assignment={0: [5]})
        with pytest.raises(ConfigurationError):
            TypeAffinity(servers, views, assignment={}, spill_threshold=0)


class TestSessionAffinity:
    def test_sessions_pin_to_home(self):
        loop = EventLoop()
        servers = make_servers(loop, 4)
        views = QueueViews(loop, servers)
        balancer = SessionAffinity(servers, views, spill_threshold=100)
        assert balancer.pick(req(0, session=6)) == 2
        assert balancer.pick(req(1, session=6)) == 2
        assert balancer.pick(req(2, session=7)) == 3

    def test_no_session_hashes_rid(self):
        loop = EventLoop()
        servers = make_servers(loop, 4)
        views = QueueViews(loop, servers)
        balancer = SessionAffinity(servers, views, spill_threshold=100)
        assert balancer.pick(req(5)) == 1

    def test_overloaded_home_spills(self):
        loop = EventLoop()
        servers = make_servers(loop, 2)
        views = QueueViews(loop, servers)
        balancer = SessionAffinity(servers, views, spill_threshold=1)
        for i in range(3):
            servers[0].ingress(req(100 + i))
        assert balancer.pick(req(0, session=0)) == 1
        assert balancer.spills == 1

    def test_dead_home_spills(self):
        loop = EventLoop()
        servers = make_servers(loop, 2)
        views = QueueViews(loop, servers)
        balancer = SessionAffinity(servers, views, spill_threshold=100)
        kill(servers[0])
        assert balancer.pick(req(0, session=0)) == 1
        assert balancer.spills == 1


class TestAffinityAssignment:
    def test_longest_type_gets_tail_slice(self):
        spec = high_bimodal()  # 0.5/0.5 mix of 1us and 100us types
        assignment, short_set = affinity_assignment(spec, 16)
        types = spec.type_specs()
        longest = max(types, key=lambda t: t.mean_service_time)
        long_set = assignment[longest.type_id]
        # Demand share of the 100us type is ~99%: it owns almost the
        # whole rack, but at least one replica stays reserved for shorts.
        assert len(long_set) == 15
        assert short_set == [0]
        assert set(long_set) & set(short_set) == set()
        for t in types:
            if t.type_id != longest.type_id:
                assert assignment[t.type_id] == short_set

    def test_degenerate_racks_get_empty_assignment(self):
        spec = high_bimodal()
        assignment, default = affinity_assignment(spec, 1)
        assert assignment == {}
        assert default == [0]


class TestMakeBalancer:
    def test_every_catalogue_name_builds(self):
        loop = EventLoop()
        spec = high_bimodal()
        for name in BALANCER_NAMES + EXTRA_BALANCER_NAMES:
            servers = make_servers(loop, 8, n_workers=2)
            views = QueueViews(loop, servers)
            balancer = make_balancer(name, servers, views, RngRegistry(seed=1), spec)
            assert balancer.pick(req(0)) in range(8)

    def test_extra_names_stay_out_of_the_catalogue(self):
        # The rack experiment iterates BALANCER_NAMES; sampled JSQ and
        # the load-blind baselines must not widen its grid.
        assert set(EXTRA_BALANCER_NAMES).isdisjoint(BALANCER_NAMES)
        assert {"random", "round-robin"} <= set(EXTRA_BALANCER_NAMES)

    def test_random_draws_from_its_own_stream(self):
        loop = EventLoop()
        servers = make_servers(loop, 8)
        views = QueueViews(loop, servers)
        built = make_balancer("random", servers, views, RngRegistry(seed=4), high_bimodal())
        direct = RandomBalancer(servers, views, RngRegistry(seed=4).stream("rack.random"))
        picks = [[b.pick(req(i)) for i in range(32)] for b in (built, direct)]
        assert picks[0] == picks[1]
        assert len(set(picks[0])) > 1

    def test_unknown_name_raises(self):
        loop = EventLoop()
        servers = make_servers(loop, 2)
        views = QueueViews(loop, servers)
        with pytest.raises(ConfigurationError):
            make_balancer("nope", servers, views, RngRegistry(seed=1), high_bimodal())

    def test_views_server_mismatch_raises(self):
        loop = EventLoop()
        servers = make_servers(loop, 3)
        views = QueueViews(loop, servers[:2])
        with pytest.raises(ConfigurationError):
            StaleJSQ(servers, views)


class TestLiveSetCache:
    """The balancer's cached live set follows every liveness flip and
    reachability change, and nothing else."""

    def _rack(self, n=4, n_workers=2):
        loop = EventLoop()
        servers = make_servers(loop, n, n_workers=n_workers)
        return servers, StaleJSQ(servers, QueueViews(loop, servers))

    def test_partial_crash_keeps_server_in_pool(self):
        servers, balancer = self._rack()
        pool = balancer.live_pool()
        servers[1].workers[0].fail()
        assert balancer.live_pool() is pool  # not even invalidated
        assert pool == [0, 1, 2, 3]

    def test_whole_server_crash_removes_it(self):
        servers, balancer = self._rack()
        balancer.live_pool()
        kill(servers[1])
        assert balancer.live_pool() == [0, 2, 3]
        assert not balancer.available(1)

    def test_recovery_restores_it(self):
        servers, balancer = self._rack()
        kill(servers[1])
        assert balancer.live_pool() == [0, 2, 3]
        servers[1].workers[1].recover()
        assert balancer.live_pool() == [0, 1, 2, 3]

    def test_set_reachable_invalidates(self):
        servers, balancer = self._rack()
        balancer.live_pool()
        balancer.set_reachable(2, False)
        assert balancer.live_pool() == [0, 1, 3]
        balancer.set_reachable(2, True)
        assert balancer.live_pool() == [0, 1, 2, 3]

    def test_overlapping_partitions_heal_with_the_last(self):
        servers, balancer = self._rack()
        balancer.set_reachable(2, False)
        balancer.set_reachable(2, False)
        balancer.set_reachable(2, True)
        assert not balancer.available(2)
        assert balancer.live_pool() == [0, 1, 3]
        balancer.set_reachable(2, True)
        assert balancer.available(2)
        assert balancer.unreachable == set()
        # Closing a partition that is not open changes nothing.
        balancer.set_reachable(2, True)
        balancer.set_reachable(2, False)
        assert not balancer.available(2)

    def test_no_catalogue_balancer_picks_a_dead_replica(self):
        loop = EventLoop()
        spec = high_bimodal()
        for name in BALANCER_NAMES + EXTRA_BALANCER_NAMES:
            servers = make_servers(loop, 8, n_workers=2)
            views = QueueViews(loop, servers)
            balancer = make_balancer(name, servers, views, RngRegistry(seed=1), spec)
            balancer.pick(req(0))  # fill the cache before the crash
            kill(servers[3])
            balancer.set_reachable(5, False)
            picks = {balancer.pick(req(i, session=i)) for i in range(64)}
            assert picks.isdisjoint({3, 5}), name

    def test_all_down_rack_reaches_dead_fallback(self):
        servers, balancer = self._rack(n=3)
        for server in servers:
            kill(server)
        servers[0].ingress(req(100))  # queues at the dead replica

        def no_pick(request):
            raise AssertionError("pick() called on an all-down rack")

        balancer.pick = no_pick
        assert balancer.live_pool() == [0, 1, 2]
        balancer.ingress(req(0))
        assert balancer.route_counts == [0, 1, 0]  # least-loaded dead replica
