"""Shared experiment machinery.

:func:`run_once` assembles loop + server + generator for one (system,
workload, load) point, runs it to completion, and returns a
:class:`RunResult` bundling the summary, utilization and the scheduler
(for policy-specific introspection like DARC's reservation log).

Loads are expressed as *utilization* — a fraction of the workload's peak
rate ``W / E[S]`` — which is how the paper's x-axes are scaled.  The
metric functions (:func:`overall_slowdown_metric` and kin) read off a
:class:`RunResult` the scalar an SLO is judged on.
"""

from __future__ import annotations

import os
import re
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..errors import ConfigurationError
from ..metrics.recorder import Recorder
from ..metrics.summary import RunSummary
from ..metrics.utilization import UtilizationReport
from ..server.server import Server
from ..sim.engine import EventLoop
from ..sim.randomness import RngRegistry
from ..systems.base import SystemModel
from ..workload.arrivals import PoissonArrivals
from ..workload.generator import OpenLoopGenerator
from ..workload.spec import WorkloadSpec

#: Default request count per load point — large enough for a stable
#: p99.9 on the common types while keeping pure-Python runtimes sane.
DEFAULT_N_REQUESTS = 40_000

#: §5.1: "we discard the first 10% of samples to remove warm-up effects".
DEFAULT_WARMUP_FRAC = 0.10


class RunResult:
    """Everything one simulated run produced."""

    def __init__(
        self,
        system_name: str,
        spec: WorkloadSpec,
        utilization: float,
        offered_rate: float,
        summary: RunSummary,
        util_report: UtilizationReport,
        scheduler,
        server: Server,
        tracer=None,
        trace_path: Optional[str] = None,
        sanitizer=None,
        telemetry=None,
        metrics_path: Optional[str] = None,
    ):
        self.system_name = system_name
        self.spec = spec
        #: Offered load as a fraction of peak.
        self.utilization = utilization
        #: Offered arrival rate in req/us (== Mrps).
        self.offered_rate = offered_rate
        self.summary = summary
        self.util_report = util_report
        self.scheduler = scheduler
        self.server = server
        #: The run's :class:`~repro.trace.tracer.Tracer`, when traced.
        self.tracer = tracer
        #: Where the trace document was written, when requested.
        self.trace_path = trace_path
        #: The run's :class:`~repro.metrics.sanitizer.SimSanitizer`, when
        #: sanitized — carries ``tiebreak_hazards`` in shadow mode.
        self.sanitizer = sanitizer
        #: The run's :class:`~repro.telemetry.probe.TelemetryProbe`,
        #: when metrics were collected.
        self.telemetry = telemetry
        #: Extensionless base path the metrics exports were written to
        #: (``.prom``/``.jsonl``/``.html`` siblings), when requested.
        self.metrics_path = metrics_path

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RunResult({self.system_name!r}, rho={self.utilization:.2f}, "
            f"p{self.summary.pct} slowdown={self.summary.overall_tail_slowdown:.1f})"
        )


#: A scalar read off one run, e.g. a tail slowdown; NaN when undefined.
MetricFn = Callable[[RunResult], float]


def overall_slowdown_metric(result: RunResult) -> float:
    """View (i): tail slowdown across all requests."""
    return result.summary.overall_tail_slowdown


def max_typed_slowdown_metric(result: RunResult) -> float:
    """Fig. 1's SLO: tail slowdown of the *worst* type."""
    return result.summary.max_typed_slowdown()


def typed_latency_metric(type_id: int) -> MetricFn:
    """Tail latency of one type (e.g. the 20 µs short-request SLO)."""

    def metric(result: RunResult) -> float:
        ts = result.summary.per_type.get(type_id)
        return ts.tail_latency if ts else float("nan")

    return metric


def run_once(
    system: SystemModel,
    spec: WorkloadSpec,
    utilization: float,
    n_requests: int = DEFAULT_N_REQUESTS,
    seed: int = 1,
    warmup_frac: float = DEFAULT_WARMUP_FRAC,
    pct: float = 99.9,
    max_sim_time_us: Optional[float] = None,
    sanitize: "bool | str" = False,
    tracer=None,
    trace_path: Optional[str] = None,
    trace_meta: Optional[Dict[str, Any]] = None,
    telemetry=None,
    metrics_path: Optional[str] = None,
    metrics_meta: Optional[Dict[str, Any]] = None,
) -> RunResult:
    """Simulate one load point and summarize it.

    The run generates exactly ``n_requests`` arrivals, then drains the
    server (every generated request completes unless dropped by flow
    control).  ``max_sim_time_us`` optionally caps the drain for badly
    overloaded configurations.

    ``sanitize=True`` attaches a
    :class:`~repro.metrics.sanitizer.SimSanitizer` that asserts simulation
    invariants (time monotonicity, request conservation, worker
    exclusivity, DARC reservation rules) after every event, raising
    :class:`~repro.errors.SanitizerViolation` on the first breakage.
    ``sanitize="shadow"`` additionally turns on the tie-break shadow
    check: same-timestamp sibling events are detected and their
    handlers' observable write sets compared, recording (never raising)
    hazards in ``result.sanitizer.tiebreak_hazards``.

    ``trace_path`` (or an explicit ``tracer``) turns on per-request span
    tracing (:mod:`repro.trace`).  The tracer observes the run without
    scheduling events or drawing randomness, so a traced run's measured
    results are bit-identical to an untraced one; with ``trace_path``
    the full trace document (Perfetto-loadable JSON) is written there,
    with ``trace_meta`` merged into its metadata.

    ``metrics_path`` (or an explicit ``telemetry`` probe) turns on the
    virtual-time metrics plane (:mod:`repro.telemetry`); like the
    tracer, the probe observes without perturbing, and with
    ``metrics_path`` (extensionless base) the Prometheus text, JSONL
    timeline and HTML dashboard are written as ``.prom``/``.jsonl``/
    ``.html`` siblings.

    The simulator's own wall-clock cost is not measured here; the
    benchmark suite (``benchmarks/suite/run.py``) times ``run_once``
    from outside, per workload and per layer.
    """
    if utilization <= 0:
        raise ConfigurationError(f"utilization must be > 0, got {utilization}")
    if n_requests < 1:
        raise ConfigurationError(f"n_requests must be >= 1, got {n_requests}")
    if trace_path is not None and tracer is None:
        from ..trace.tracer import Tracer

        tracer = Tracer()
    if metrics_path is not None and telemetry is None:
        from ..telemetry.probe import TelemetryProbe

        telemetry = TelemetryProbe()

    rngs = RngRegistry(seed=seed)
    loop = EventLoop()
    scheduler = system.make_scheduler(spec, rngs)
    config = system.make_config()
    recorder = Recorder()
    server = Server(loop, scheduler, config=config, recorder=recorder)
    sanitizer = None
    if sanitize:
        from ..metrics.sanitizer import SimSanitizer

        sanitizer = SimSanitizer(shadow_tiebreaks=(sanitize == "shadow"))
        sanitizer.attach(loop, server)
    if tracer is not None:
        tracer.install(loop, server)
    if telemetry is not None:
        telemetry.install(loop, server)

    rate = utilization * spec.peak_load(config.n_workers)
    generator = OpenLoopGenerator(
        loop,
        spec,
        PoissonArrivals(rate),
        server.ingress,
        type_rng=rngs.stream("types"),
        service_rng=rngs.stream("service"),
        arrival_rng=rngs.stream("arrivals"),
        limit=n_requests,
    )
    generator.start()
    loop.run(until=max_sim_time_us)
    scheduler.settle()

    summary = RunSummary(
        recorder,
        duration_us=loop.now,
        type_specs=spec.type_specs(),
        warmup_frac=warmup_frac,
        pct=pct,
    )
    util_report = server.utilization()
    if tracer is not None and trace_path is not None:
        from ..trace.export import write_trace

        meta: Dict[str, Any] = {
            "system": system.name,
            "workload": spec.name,
            "utilization": utilization,
            "n_requests": n_requests,
            "seed": seed,
        }
        if trace_meta:
            meta.update(trace_meta)
        write_trace(trace_path, tracer, recorder=recorder, meta=meta)
    if telemetry is not None and metrics_path is not None:
        from ..telemetry.export import write_metrics

        meta = {
            "system": system.name,
            "workload": spec.name,
            "utilization": utilization,
            "n_requests": n_requests,
            "seed": seed,
        }
        if metrics_meta:
            meta.update(metrics_meta)
        write_metrics(metrics_path, telemetry, recorder=recorder, meta=meta)
    elif telemetry is not None:
        telemetry.finalize()
    return RunResult(
        system.name,
        spec,
        utilization,
        rate,
        summary,
        util_report,
        scheduler,
        server,
        tracer=tracer,
        trace_path=trace_path,
        sanitizer=sanitizer,
        telemetry=telemetry,
        metrics_path=metrics_path,
    )


def run_trace(
    system: SystemModel,
    spec: WorkloadSpec,
    trace,
    warmup_frac: float = DEFAULT_WARMUP_FRAC,
    pct: float = 99.9,
    seed: int = 1,
) -> RunResult:
    """Replay a recorded arrival trace through ``system``.

    Comparing systems on the *same* trace removes arrival-sampling noise
    from the comparison (common random numbers): any difference in the
    summaries is purely scheduling.  ``spec`` supplies type names and
    the peak-load normalization; the trace supplies every arrival.
    """
    from ..workload.trace import TraceReplayer

    rngs = RngRegistry(seed=seed)
    loop = EventLoop()
    scheduler = system.make_scheduler(spec, rngs)
    config = system.make_config()
    recorder = Recorder()
    server = Server(loop, scheduler, config=config, recorder=recorder)
    replayer = TraceReplayer(loop, trace, server.ingress)
    replayer.start()
    loop.run()
    offered_rate = trace.offered_rate()
    utilization = offered_rate / spec.peak_load(config.n_workers)
    summary = RunSummary(
        recorder,
        duration_us=loop.now,
        type_specs=spec.type_specs(),
        warmup_frac=warmup_frac,
        pct=pct,
    )
    return RunResult(
        system.name,
        spec,
        utilization,
        offered_rate,
        summary,
        server.utilization(),
        scheduler,
        server,
    )


def _slug(text: str) -> str:
    """A filesystem-safe token for trace filenames."""
    return re.sub(r"[^A-Za-z0-9.-]+", "-", text).strip("-")


def trace_target(trace_dir: Optional[str], *parts: Any) -> Optional[str]:
    """Deterministic trace path inside ``trace_dir`` (created on demand)
    built from the given name parts, or None when tracing is off."""
    if trace_dir is None:
        return None
    os.makedirs(trace_dir, exist_ok=True)
    slug = "_".join(s for s in (_slug(str(p)) for p in parts) if s)
    return os.path.join(trace_dir, f"{slug}.trace.json")


def metrics_target(metrics_dir: Optional[str], *parts: Any) -> Optional[str]:
    """Deterministic *extensionless* metrics base path inside
    ``metrics_dir`` (created on demand), or None when metrics are off.
    :func:`repro.telemetry.export.write_metrics` appends the
    ``.prom``/``.jsonl``/``.html`` suffixes."""
    if metrics_dir is None:
        return None
    os.makedirs(metrics_dir, exist_ok=True)
    slug = "_".join(s for s in (_slug(str(p)) for p in parts) if s)
    return os.path.join(metrics_dir, f"{slug}.metrics")


def collect_forensics(
    forensics_dir: Optional[str],
    trace_dir: Optional[str],
    experiment: str,
) -> List[str]:
    """Fold a driver's trace exports into its forensics store.

    Drivers call this once, after their last simulated event — forensics
    is post-hoc, so it cannot perturb results.  No-op when
    ``forensics_dir`` is None; raises
    :class:`~repro.errors.UsageError` when forensics was requested
    without tracing.  Returns the registered run ids.
    """
    from ..forensics.collect import collect_directory

    return collect_directory(forensics_dir, trace_dir, experiment=experiment)


def run_sweep(
    system: SystemModel,
    spec: WorkloadSpec,
    utilizations: Sequence[float],
    n_requests: int = DEFAULT_N_REQUESTS,
    seed: int = 1,
    warmup_frac: float = DEFAULT_WARMUP_FRAC,
    pct: float = 99.9,
    sanitize: "bool | str" = False,
    trace_dir: Optional[str] = None,
    metrics_dir: Optional[str] = None,
) -> List[RunResult]:
    """One :func:`run_once` per load point, all under ``seed``.

    Systems compared at the same points with the same seed stay paired
    (common random numbers).  Replicating over seeds is the sweep
    planner's job: each cell derives its own seed.

    ``trace_dir`` traces every point, writing one
    ``<system>_<workload>_rho<load>.trace.json`` per point;
    ``metrics_dir`` likewise collects telemetry per point.
    """
    results: List[RunResult] = []
    for rho in utilizations:
        name_parts = [system.name, spec.name, f"rho{round(rho * 100):03d}"]
        results.append(
            run_once(
                system,
                spec,
                rho,
                n_requests=n_requests,
                seed=seed,
                warmup_frac=warmup_frac,
                pct=pct,
                sanitize=sanitize,
                trace_path=trace_target(trace_dir, *name_parts),
                metrics_path=metrics_target(metrics_dir, *name_parts),
            )
        )
    return results
