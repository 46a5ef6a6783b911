"""Figure 7 (§5.5): reacting to sudden workload changes.

Two request types A and B, four phases at a constant 80% server
utilization:

1. B is short (1 µs), A is long (100 µs), 50/50 — DARC gives B 1
   dedicated core (stealing the other 13) and A the other 13;
2. service times invert (A becomes short) — deliberate misclassification
   of the existing profile, forcing re-profiling and a reservation flip;
3. the mix shifts to 99.5% A / 0.5% B — A's CPU demand rises and DARC
   reserves it a second core;
4. only A requests remain — pending/straggler B requests fall back to
   the spillway core.

The paper runs 5 s phases; the simulation default is shorter but long
enough for the profiler to transition (~the paper's 500 ms adaptation).
Outputs per-type p99.9 latency over time windows plus the guaranteed-core
timeline, for DARC and a c-FCFS baseline.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..sweep.planner import ExperimentSpec
from ..sweep.stats import mean_ci
from ..metrics.recorder import Recorder
from ..metrics.sanitizer import SimSanitizer
from ..metrics.summary import RunSummary
from ..metrics.timeseries import AllocationTimeline, WindowedStats
from ..server.server import Server
from ..sim.engine import EventLoop
from ..sim.randomness import RngRegistry
from ..sim.units import US_PER_MS
from ..systems.base import SystemModel
from ..systems.persephone import PersephoneCfcfsSystem, PersephoneSystem
from ..workload.arrivals import PoissonArrivals
from ..workload.generator import OpenLoopGenerator
from ..workload.phases import Phase, PhaseSchedule
from ..workload.spec import TypedClass, WorkloadSpec
from ..workload.distributions import Fixed
from .common import collect_forensics
from .results import run_serial
from .tables import render_series

N_WORKERS = 14
UTILIZATION = 0.80
TYPE_A = 0
TYPE_B = 1
DEFAULT_PHASE_US = 150.0 * US_PER_MS
SHORT_US = 1.0
LONG_US = 100.0


def _spec(name: str, a_us: float, b_us: float, a_ratio: float) -> WorkloadSpec:
    classes = [TypedClass("A", a_ratio, Fixed(a_us))]
    if a_ratio < 1.0:
        classes.append(TypedClass("B", 1.0 - a_ratio, Fixed(b_us)))
    return WorkloadSpec(name, classes)


def default_phases(phase_us: float = DEFAULT_PHASE_US) -> List[Phase]:
    return [
        Phase(_spec("phase1", LONG_US, SHORT_US, 0.5), phase_us, UTILIZATION),
        Phase(_spec("phase2", SHORT_US, LONG_US, 0.5), phase_us, UTILIZATION),
        Phase(_spec("phase3", SHORT_US, LONG_US, 0.995), phase_us, UTILIZATION),
        Phase(_spec("phase4", SHORT_US, LONG_US, 1.0), phase_us, UTILIZATION),
    ]


class Figure7Result:
    """Time series per system: latency per type + core allocation.

    Multi-seed runs keep the first replicate's time series (the plot)
    and collect per-replicate scalar samples (overall tail latency,
    reservation updates) so :meth:`render` can report them as
    ``mean±CI`` across seeds.
    """

    def __init__(self, window_us: float, phase_boundaries: List[float]):
        self.window_us = window_us
        self.phase_boundaries = phase_boundaries
        #: system -> type_id -> (times, p99.9 latency per window)
        self.latency_series: Dict[str, Dict[int, Tuple[np.ndarray, np.ndarray]]] = {}
        #: system -> type_id -> (times, guaranteed cores)
        self.alloc_series: Dict[str, Dict[int, Tuple[np.ndarray, np.ndarray]]] = {}
        self.summaries: Dict[str, RunSummary] = {}
        self.reservation_updates: Dict[str, int] = {}
        #: system -> overall p99.9 latency per replicate (multi-seed only)
        self.tail_latency_samples: Dict[str, List[float]] = {}
        #: system -> reservation updates per replicate (multi-seed only)
        self.update_samples: Dict[str, List[float]] = {}
        self.n_replicates = 1

    def render(self) -> str:
        parts = []
        for system, by_type in self.latency_series.items():
            for tid, (times, values) in sorted(by_type.items()):
                label = "A" if tid == TYPE_A else "B"
                series = {"p99.9 latency (us)": list(values)}
                alloc = self.alloc_series.get(system, {}).get(tid)
                if alloc is not None:
                    series["guaranteed cores"] = list(alloc[1])
                parts.append(
                    render_series(
                        "t(us)",
                        list(times),
                        series,
                        precision=1,
                        title=f"Figure 7 [{system}] type {label}",
                    )
                )
        for system, updates in self.reservation_updates.items():
            parts.append(f"{system}: {updates} reservation updates")
        if self.n_replicates > 1:
            lines = [f"Figure 7: replicate stats ({self.n_replicates} seeds)"]
            for system, samples in self.tail_latency_samples.items():
                stat = mean_ci(samples)
                lines.append(
                    f"  overall p99.9 latency [{system}] = {stat.format(1)} us"
                )
            for system, samples in self.update_samples.items():
                stat = mean_ci(samples)
                lines.append(
                    f"  reservation updates [{system}] = {stat.format(1)}"
                )
            parts.append("\n".join(lines))
        return "\n\n".join(parts)


def _run_system(
    system: SystemModel,
    phases: List[Phase],
    seed: int,
    sanitize: bool = False,
    trace_path: Optional[str] = None,
    metrics_path: Optional[str] = None,
) -> Tuple[Recorder, object, EventLoop]:
    rngs = RngRegistry(seed=seed)
    loop = EventLoop()
    scheduler = system.make_scheduler(phases[0].spec, rngs)
    recorder = Recorder()
    server = Server(loop, scheduler, config=system.make_config(), recorder=recorder)
    if sanitize:
        SimSanitizer().attach(loop, server)
    tracer = None
    if trace_path is not None:
        from ..trace.tracer import Tracer

        tracer = Tracer()
        tracer.install(loop, server)
    telemetry = None
    if metrics_path is not None:
        from ..telemetry.probe import TelemetryProbe

        telemetry = TelemetryProbe()
        telemetry.install(loop, server)
    rate = UTILIZATION * phases[0].spec.peak_load(N_WORKERS)
    generator = OpenLoopGenerator(
        loop,
        phases[0].spec,
        PoissonArrivals(rate),
        server.ingress,
        type_rng=rngs.stream("types"),
        service_rng=rngs.stream("service"),
        arrival_rng=rngs.stream("arrivals"),
        limit=None,
    )
    schedule = PhaseSchedule(loop, generator, phases, N_WORKERS)
    total = schedule.total_duration_us
    generator.start()
    schedule.start()
    loop.call_at(total, generator.stop)
    loop.run()
    if tracer is not None and trace_path is not None:
        from ..trace.export import write_trace

        write_trace(
            trace_path,
            tracer,
            recorder=recorder,
            meta={"experiment": "figure7", "system": system.name, "seed": seed},
        )
    if telemetry is not None:
        from ..telemetry.export import write_metrics

        write_metrics(
            metrics_path,
            telemetry,
            recorder=recorder,
            meta={"experiment": "figure7", "system": system.name, "seed": seed},
        )
    return recorder, scheduler, loop


def default_systems() -> List[SystemModel]:
    return [
        PersephoneCfcfsSystem(n_workers=N_WORKERS, name="c-FCFS"),
        PersephoneSystem(
            n_workers=N_WORKERS,
            oracle=False,
            min_samples=500,
            ema_alpha=0.1,
            name="DARC",
        ),
    ]


SPEC = ExperimentSpec(
    name="figure7",
    kind="phased",
    workloads=("phased",),
    spec_for=lambda workload: default_phases(),
    systems_for=lambda workload: default_systems(),
    utilizations=(),
    n_requests=0,
    table_metrics=("overall_tail_slowdown", "overall_tail_latency"),
)


def run(
    phases: Optional[List[Phase]] = None,
    seed: int = 1,
    window_us: float = 10.0 * US_PER_MS,
    systems: Optional[List[SystemModel]] = None,
    sanitize: bool = False,
    trace_dir: Optional[str] = None,
    metrics_dir: Optional[str] = None,
    seeds: Optional[Sequence[int]] = None,
    forensics_dir: Optional[str] = None,
) -> Figure7Result:
    """Run the phased experiment; ``seeds`` replicates each system run.

    The time series come from the first replicate (derived seeds match
    the pooled ``repro-sweep`` figure7 cells); scalar stats across all
    replicates land in ``tail_latency_samples``/``update_samples``.
    """
    spec = SPEC
    if phases is not None:
        spec = spec._replace(spec_for=lambda workload: phases)
    if systems is not None:
        spec = spec._replace(systems_for=lambda workload: list(systems))
    phases = spec.spec_for("phased")
    runs = run_serial(
        spec, seed, seeds,
        lambda params, tag: ["figure7", params["system"], tag],
        sanitize=sanitize, trace_dir=trace_dir, metrics_dir=metrics_dir,
    )
    boundaries = list(np.cumsum([p.duration_us for p in phases]))
    result = Figure7Result(window_us, boundaries)
    result.n_replicates = len(seeds) if seeds else 1
    first = seeds[0] if seeds else seed
    stats = WindowedStats(window_us)
    for cell, (recorder, scheduler, loop), metrics in runs:
        name = cell.params_dict["system"]
        if result.n_replicates > 1:
            result.tail_latency_samples.setdefault(name, []).append(
                metrics["overall_tail_latency"]
            )
            result.update_samples.setdefault(name, []).append(
                metrics["reservation_updates"]
            )
        if cell.replicate != first:
            continue
        cols = recorder.columns()
        result.latency_series[name] = {
            tid: stats.series(cols, type_id=tid) for tid in (TYPE_A, TYPE_B)
        }
        result.summaries[name] = RunSummary(
            recorder, duration_us=loop.now, warmup_frac=0.0
        )
        log = getattr(scheduler, "reservation_log", None)
        if log is not None:
            timeline = AllocationTimeline(log)
            times = result.latency_series[name][TYPE_A][0]
            result.alloc_series[name] = {
                tid: (times, timeline.sample(times, tid)) for tid in (TYPE_A, TYPE_B)
            }
            result.reservation_updates[name] = getattr(
                scheduler, "reservation_updates", 0
            )
    collect_forensics(forensics_dir, trace_dir, "figure7")
    return result


def render(result: Figure7Result) -> str:
    return result.render()
