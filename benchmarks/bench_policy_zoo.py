"""Extension: the full Table 5 policy zoo measured on one workload.

The paper's Table 5 compares DARC qualitatively against the classic
scheduling policies; this benchmark makes the comparison quantitative:
every implemented policy runs High Bimodal at 80% load on 14 workers,
reporting overall p99.9 slowdown and per-type tails — including the
clairvoyant preemptive SRPT upper bound the networking line of work
approximates.
"""

import numpy as np
import pytest
from conftest import run_single

from repro.experiments.tables import render_table
from repro.core.darc import DarcScheduler
from repro.core.static import DarcStatic
from repro.metrics.recorder import Recorder
from repro.metrics.summary import RunSummary
from repro.policies.fcfs import CentralizedFCFS, DecentralizedFCFS, WorkStealingFCFS
from repro.policies.srpt import ShortestRemainingProcessingTime
from repro.policies.timesharing import TimeSharing
from repro.policies.typed import (
    CSCQ,
    DeficitRoundRobin,
    EarliestDeadlineFirst,
    FixedPriority,
    ShortestJobFirst,
    StaticPartitioning,
)
from repro.server.config import ServerConfig
from repro.server.server import Server
from repro.sim.engine import EventLoop
from repro.sim.randomness import RngRegistry
from repro.workload.arrivals import PoissonArrivals
from repro.workload.generator import OpenLoopGenerator
from repro.workload.presets import high_bimodal

N_WORKERS = 14
UTILIZATION = 0.80


def make_policies(rngs: RngRegistry, spec):
    type_specs = spec.type_specs()
    return {
        "d-FCFS": DecentralizedFCFS(steering="random", rng=rngs.stream("rss")),
        "c-FCFS": CentralizedFCFS(),
        "ws-FCFS": WorkStealingFCFS(
            steering="random", rng=rngs.stream("rss2"), steal_cost_us=0.05
        ),
        "TS": TimeSharing(
            quantum_us=5.0, preempt_overhead_us=1.0, mode="multi",
            type_specs=type_specs,
        ),
        "SRPT": ShortestRemainingProcessingTime(),
        "FP": FixedPriority(type_specs),
        "SJF": ShortestJobFirst(),
        "EDF": EarliestDeadlineFirst(type_specs),
        "DRR": DeficitRoundRobin(type_specs, quantum_us=10.0),
        "SP": StaticPartitioning(type_specs),
        "CSCQ": CSCQ(type_specs, threshold_us=10.0, n_short_workers=1),
        "DARC-static(1)": DarcStatic(type_specs, n_reserved=1),
        "DARC": DarcScheduler(profile=False, type_specs=type_specs),
    }


def run_policy(name, scheduler, spec, n_requests, seed):
    rngs = RngRegistry(seed=seed)
    loop = EventLoop()
    recorder = Recorder()
    Server(loop, scheduler, config=ServerConfig(n_workers=N_WORKERS), recorder=recorder)
    rate = UTILIZATION * spec.peak_load(N_WORKERS)
    generator = OpenLoopGenerator(
        loop, spec, PoissonArrivals(rate), scheduler.on_request,
        type_rng=rngs.stream("t"), service_rng=rngs.stream("s"),
        arrival_rng=rngs.stream("a"), limit=n_requests,
    )
    generator.start()
    loop.run()
    return RunSummary(recorder, duration_us=loop.now, type_specs=spec.type_specs())


def test_policy_zoo(benchmark, bench_n_requests):
    spec = high_bimodal()

    def run_all():
        rngs = RngRegistry(seed=1)
        out = {}
        for name, scheduler in make_policies(rngs, spec).items():
            out[name] = run_policy(name, scheduler, spec, bench_n_requests, seed=1)
        return out

    summaries = run_single(benchmark, run_all)

    rows = []
    for name, summary in summaries.items():
        short = summary.per_type.get(0)
        long = summary.per_type.get(1)
        rows.append([
            name,
            summary.overall_tail_slowdown,
            short.tail_latency if short else float("nan"),
            long.tail_latency if long else float("nan"),
        ])
    print()
    print(render_table(
        ["policy", "p99.9 slowdown (x)", "short p99.9 (us)", "long p99.9 (us)"],
        rows, precision=1,
        title=f"Policy zoo: High Bimodal @ {UTILIZATION:.0%}, {N_WORKERS} workers",
    ))

    s = {name: summary.overall_tail_slowdown for name, summary in summaries.items()}
    benchmark.extra_info.update({k: round(v, 2) for k, v in s.items()})

    # The orderings Table 5's qualitative bits predict:
    assert s["c-FCFS"] < s["d-FCFS"]                # centralization helps
    assert s["DARC"] < s["c-FCFS"]                  # type-aware reservation helps
    assert s["SRPT"] <= s["DARC"] * 1.5             # oracle bound is (near-)best
    assert s["DARC"] < s["SP"]                      # stealing beats hard partitions
    short_fp = summaries["FP"].per_type[0].tail_latency
    short_darc = summaries["DARC"].per_type[0].tail_latency
    assert short_darc < short_fp                    # reservation beats pure priority
