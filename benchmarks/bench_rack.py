"""Rack-scale simulation throughput and balancer overhead.

Two questions: how fast does a 32-server rack (256 simulated cores,
two-level scheduling, per-replica recorders) simulate, and what does
each balancer's pick() cost per routing decision?  Throughput is
printed as simulator events/sec (the gated rack throughput is the
benchmark suite's ``rack-pow2`` and ``rack-jsq-stale`` workloads); the
microbench isolates the balancer from the servers by routing against an
idle rack and keeps a floor on picks/sec.
"""

import time

import pytest

from repro.metrics.recorder import Recorder
from repro.policies.fcfs import CentralizedFCFS
from repro.rack.balancers import make_balancer
from repro.rack.rack import run_rack
from repro.rack.views import QueueViews
from repro.server.config import ServerConfig
from repro.server.server import Server
from repro.sim.engine import EventLoop
from repro.sim.randomness import RngRegistry
from repro.systems.persephone import PersephoneSystem
from repro.workload.presets import high_bimodal
from repro.workload.request import Request

N_SERVERS = 32
N_WORKERS = 8
UTILIZATION = 0.70
STALENESS_US = 50.0
BALANCERS = ("pow2", "jsq-stale", "sed", "type-affinity", "session")


def test_rack_throughput(bench_n_requests):
    """One full 32-server rack run: every request accounted for."""

    def run():
        start = time.perf_counter()
        result = run_rack(
            PersephoneSystem(n_workers=N_WORKERS, oracle=False),
            high_bimodal(),
            balancer="pow2",
            n_servers=N_SERVERS,
            utilization=UTILIZATION,
            n_requests=bench_n_requests,
            seed=1,
            staleness_us=STALENESS_US,
        )
        wall = time.perf_counter() - start
        return result, wall

    result, wall = run()
    events = result.loop.events_processed
    print()
    print(f"rack ({N_SERVERS} servers x {N_WORKERS} cores, pow2) "
          f"@ {UTILIZATION:.0%}:")
    print(f"  {events} events in {wall:.2f}s = {events / wall:,.0f} events/s")
    print(f"  p99.9 slowdown = {result.summary.overall_tail_slowdown:.1f}x  "
          f"imbalance = {result.load_imbalance():.2f}")

    assert result.recorder.completed + result.recorder.dropped == bench_n_requests
    assert result.load_imbalance() < 1.0


def test_balancer_pick_overhead(bench_n_requests):
    """Routing decisions per second for every catalogue balancer,
    measured against an idle 32-server rack (pure pick() cost)."""
    n_picks = max(10_000, bench_n_requests)

    def run():
        out = {}
        loop = EventLoop()
        recorder = Recorder()
        spec = high_bimodal()
        servers = [
            Server(loop, CentralizedFCFS(),
                   config=ServerConfig(n_workers=N_WORKERS), recorder=recorder)
            for _ in range(N_SERVERS)
        ]
        requests = [Request(i, i % 2, 0.0, 1.0) for i in range(n_picks)]
        for i, request in enumerate(requests):
            request.session = i * 7919  # spread sessions across homes
        for name in BALANCERS:
            views = QueueViews(loop, servers, staleness_us=STALENESS_US)
            balancer = make_balancer(
                name, servers, views, RngRegistry(seed=1), spec
            )
            start = time.perf_counter()
            for request in requests:
                balancer.pick(request)
            out[name] = n_picks / (time.perf_counter() - start)
        return out

    rates = run()
    print()
    for name, rate in rates.items():
        print(f"  {name:>14}: {rate:12,.0f} picks/s")

    # View reads and liveness are O(1) (server counters, cached live
    # set), so even the full-scan policies (SED reads every replica per
    # pick) clear ~29k picks/s on a 2-core x86 VM; the floor keeps ~3x
    # headroom for slower CI hosts.
    assert min(rates.values()) > 8_000
