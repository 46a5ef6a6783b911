"""Sensitivity studies beyond the paper's fixed-service Poisson setup.

The paper's synthetic workloads use deterministic per-type service times
and Poisson arrivals.  Real services see variance within a type and
bursty traffic; DARC's reservation math only uses per-type *means*
(Eq. 1 — "average demand [is] a provable indicator of stability"), so it
should be robust to both.  These benchmarks check that:

1. exponential/lognormal within-type service variance does not break
   DARC's short-request protection;
2. MMPP-bursty arrivals are absorbed by cycle stealing (§3's stated
   purpose for stealable workers);
3. seed-to-seed variance of the headline comparison is small relative to
   the effect size (error bars on "DARC beats c-FCFS").
"""

import numpy as np
import pytest

from repro.experiments import figure3
from repro.experiments.common import overall_slowdown_metric, run_once
from repro.experiments.results import load_name_parts, run_serial
from repro.metrics.recorder import Recorder
from repro.metrics.summary import RunSummary
from repro.server.config import ServerConfig
from repro.server.server import Server
from repro.sim.engine import EventLoop
from repro.sim.randomness import RngRegistry
from repro.sweep.stats import mean_ci
from repro.systems.persephone import PersephoneCfcfsSystem, PersephoneSystem
from repro.workload.arrivals import BurstyArrivals, PoissonArrivals
from repro.workload.distributions import Exponential, Fixed, LogNormal
from repro.workload.generator import OpenLoopGenerator
from repro.workload.presets import high_bimodal
from repro.workload.spec import TypedClass, WorkloadSpec

N_WORKERS = 14
UTILIZATION = 0.80


def variant_spec(kind: str) -> WorkloadSpec:
    """High Bimodal with the chosen within-type service distribution."""
    if kind == "fixed":
        dists = (Fixed(1.0), Fixed(100.0))
    elif kind == "exponential":
        dists = (Exponential(1.0), Exponential(100.0))
    elif kind == "lognormal":
        dists = (LogNormal(1.0, sigma=0.8), LogNormal(100.0, sigma=0.8))
    else:
        raise ValueError(kind)
    return WorkloadSpec(
        f"high_bimodal_{kind}",
        [TypedClass("SHORT", 0.5, dists[0]), TypedClass("LONG", 0.5, dists[1])],
    )


def test_service_time_variance(bench_n_requests):
    def run_all():
        out = {}
        for kind in ("fixed", "exponential", "lognormal"):
            spec = variant_spec(kind)
            darc = run_once(
                PersephoneSystem(n_workers=N_WORKERS, oracle=False),
                spec, UTILIZATION, n_requests=bench_n_requests, seed=2,
            )
            cfcfs = run_once(
                PersephoneCfcfsSystem(n_workers=N_WORKERS),
                spec, UTILIZATION, n_requests=bench_n_requests, seed=2,
            )
            out[kind] = (
                darc.summary.per_type[0].tail_latency,
                cfcfs.summary.per_type[0].tail_latency,
                darc.scheduler.reserved_count(0),
            )
        return out

    by_kind = run_all()
    print()
    for kind, (darc_short, cfcfs_short, reserved) in by_kind.items():
        print(f"{kind:>12}: short p99.9 darc={darc_short:8.1f}us "
              f"cfcfs={cfcfs_short:8.1f}us  reserved={reserved}")
    for kind, (darc_short, cfcfs_short, reserved) in by_kind.items():
        # DARC's learned reservation still lands on ~1 core and still
        # protects shorts by a wide margin under within-type variance.
        assert reserved >= 1
        assert darc_short < cfcfs_short / 3


def test_bursty_arrivals(bench_n_requests):
    """MMPP bursts: stealing absorbs them (§3)."""
    spec = high_bimodal()

    def run_bursty(system):
        rngs = RngRegistry(seed=3)
        loop = EventLoop()
        recorder = Recorder()
        scheduler = system.make_scheduler(spec, rngs)
        server = Server(
            loop, scheduler, config=ServerConfig(n_workers=N_WORKERS),
            recorder=recorder,
        )
        rate = UTILIZATION * spec.peak_load(N_WORKERS)
        generator = OpenLoopGenerator(
            loop, spec,
            BurstyArrivals(rate, burst_factor=1.3, burst_len_us=2000.0, calm_len_us=4000.0),
            server.ingress,
            type_rng=rngs.stream("t"), service_rng=rngs.stream("s"),
            arrival_rng=rngs.stream("a"), limit=bench_n_requests,
        )
        generator.start()
        loop.run()
        return RunSummary(recorder, duration_us=loop.now, type_specs=spec.type_specs())

    def run_both():
        darc = run_bursty(PersephoneSystem(n_workers=N_WORKERS, oracle=True))
        cfcfs = run_bursty(PersephoneCfcfsSystem(n_workers=N_WORKERS))
        return darc, cfcfs

    darc, cfcfs = run_both()
    print()
    print(f"bursty arrivals: darc short p99.9={darc.per_type[0].tail_latency:.1f}us "
          f"cfcfs={cfcfs.per_type[0].tail_latency:.1f}us")
    assert darc.per_type[0].tail_latency < cfcfs.per_type[0].tail_latency / 3
    # Stealing keeps shorts near service time even through bursts.
    assert darc.per_type[0].tail_latency < 30.0


def test_seed_variance():
    """Error bars on the headline: the DARC-vs-c-FCFS gap dwarfs seed noise.

    Five replicates per system, each under its derived per-cell seed, with
    a Student-t 95% interval over them (t4 = 2.776, not the normal 1.96).
    """

    def replicated_slowdown(system):
        # High Bimodal cells of a "sensitivity" grid holding one system.
        spec = figure3.SPEC._replace(
            name="sensitivity", systems_for=lambda workload: [system]
        )
        runs = run_serial(
            spec, 1, (1, 2, 3, 4, 5), load_name_parts, 20_000, [UTILIZATION]
        )
        return mean_ci([overall_slowdown_metric(result) for _, result, _ in runs])

    def run_reps():
        darc = replicated_slowdown(PersephoneSystem(n_workers=N_WORKERS, oracle=True))
        cfcfs = replicated_slowdown(PersephoneCfcfsSystem(n_workers=N_WORKERS))
        return darc, cfcfs

    darc, cfcfs = run_reps()
    print()
    for label, stat in (("DARC", darc), ("c-FCFS", cfcfs)):
        print(
            f"{label} p99.9 slowdown: mean={stat.mean:.2f} "
            f"ci95=[{stat.low:.2f}, {stat.high:.2f}] over {stat.n} seeds"
        )
    darc_high = darc.high
    cfcfs_low = cfcfs.low
    assert darc_high < cfcfs_low  # non-overlapping CIs
