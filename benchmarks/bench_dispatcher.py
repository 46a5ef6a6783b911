"""Extension: the dispatcher as the bottleneck (§4.2, §6).

"A non-optimized request classifier will impact the dispatcher's
performance ... our dispatcher can process up to 7 millions packets per
second" and "maximize our dispatcher's performance — the main bottleneck
in Perséphone".

With 0.5 µs requests, 14 workers can absorb 28 Mrps — far beyond the
dispatcher's ~7 Mpps ceiling.  This benchmark sweeps offered load across
that ceiling and shows latency diverging at the dispatcher, not the
workers; it then shows how a slower (heavier) classifier drags the
ceiling down proportionally.
"""

import pytest

from repro.experiments.common import run_once
from repro.server.config import ServerConfig
from repro.systems.persephone import PersephoneSystem
from repro.workload.spec import TypedClass, WorkloadSpec
from repro.workload.distributions import Fixed

N_WORKERS = 14
TINY = WorkloadSpec("tiny", [TypedClass("RPC", 1.0, Fixed(0.5))])


class PrototypeCostSystem(PersephoneSystem):
    """Oracle DARC with the measured prototype path costs."""

    def __init__(self, dispatcher_service_us, name):
        super().__init__(n_workers=N_WORKERS, oracle=True, name=name)
        self.dispatcher_service_us = dispatcher_service_us

    def make_config(self):
        return ServerConfig(
            n_workers=N_WORKERS,
            dispatcher_service_us=self.dispatcher_service_us,
        )


def test_dispatcher_ceiling(bench_n_requests):
    dispatcher_us = 1.0 / 7.0  # the prototype's ~7 Mpps

    def sweep():
        out = {}
        for mrps in (3.0, 5.0, 6.5, 8.0):
            utilization = mrps / TINY.peak_load(N_WORKERS)
            result = run_once(
                PrototypeCostSystem(dispatcher_us, f"proto@{mrps}"),
                TINY,
                utilization,
                n_requests=min(bench_n_requests, 40_000),
                seed=1,
            )
            out[mrps] = result.summary
        return out

    summaries = sweep()
    print()
    for mrps, summary in summaries.items():
        print(f"offered {mrps:>4.1f} Mrps: p99.9 latency = "
              f"{summary.overall_tail_latency:10.1f}us  "
              f"mean = {summary.overall_mean_latency:8.2f}us")

    # Below the 7 Mpps ceiling: microsecond latencies.  Above: the
    # dispatcher queue diverges even though workers are half idle.
    assert summaries[5.0].overall_tail_latency < 10.0
    assert summaries[8.0].overall_tail_latency > 100.0


def test_heavy_classifier_drags_the_ceiling(bench_n_requests):
    """A 0.5us classifier caps the dispatcher at 2 Mpps — the 'bump in
    the wire' trade-off of §4.2, quantified."""

    def run_both():
        utilization = 3.0 / TINY.peak_load(N_WORKERS)  # 3 Mrps offered
        fast = run_once(
            PrototypeCostSystem(1.0 / 7.0, "fast-classifier"),
            TINY, utilization, n_requests=min(bench_n_requests, 30_000), seed=1,
        )
        slow = run_once(
            PrototypeCostSystem(0.5, "slow-classifier"),
            TINY, utilization, n_requests=min(bench_n_requests, 30_000), seed=1,
        )
        return fast.summary, slow.summary

    fast, slow = run_both()
    print()
    print(f"fast classifier (7 Mpps ceiling): p99.9 = {fast.overall_tail_latency:.1f}us")
    print(f"slow classifier (2 Mpps ceiling): p99.9 = {slow.overall_tail_latency:.1f}us")
    # 3 Mrps offered: fine for the fast dispatcher, diverging for the slow.
    assert fast.overall_tail_latency < 10.0
    assert slow.overall_tail_latency > 50.0
