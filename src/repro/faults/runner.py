"""Chaos run assembly: one (system, workload, plan) episode end to end.

:func:`run_chaos` mirrors :func:`repro.experiments.common.run_once` but
threads the full resilience stack into the request path::

    generator -> [ResilientClient.send] -> FaultInjector.ingress -> Server
    Server completions/drops -> [ResilientClient] -> Recorder

With an empty plan and no retry policy the chain degenerates to exactly
the ``run_once`` wiring (the injector is a passthrough that draws no
randomness), so results are bit-identical to an un-instrumented run —
fault instrumentation costs nothing when disabled.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..errors import ConfigurationError
from ..metrics.degradation import DegradationReport
from ..metrics.recorder import Recorder
from ..metrics.sanitizer import SimSanitizer
from ..metrics.summary import RunSummary
from ..server.server import Server
from ..sim.engine import EventLoop
from ..sim.randomness import RngRegistry
from ..systems.base import SystemModel
from ..workload.arrivals import PoissonArrivals
from ..workload.generator import OpenLoopGenerator
from ..workload.resilience import ResilientClient, RetryPolicy
from ..workload.spec import WorkloadSpec
from .injector import FaultInjector
from .plan import FaultPlan

#: Default SLO multiple: a request meets its SLO within this many times
#: the workload's longest mean service time.
DEFAULT_SLO_MULTIPLE = 10.0


class ChaosResult:
    """Everything one chaos episode produced."""

    def __init__(
        self,
        system_name: str,
        spec: WorkloadSpec,
        utilization: float,
        offered_rate: float,
        plan: FaultPlan,
        summary: RunSummary,
        degradation: DegradationReport,
        recorder: Recorder,
        injector: FaultInjector,
        client: Optional[ResilientClient],
        scheduler,
        server: Server,
        duration_us: float,
        tracer=None,
        trace_path: Optional[str] = None,
        sanitizer=None,
        telemetry=None,
        metrics_path: Optional[str] = None,
    ):
        self.system_name = system_name
        self.spec = spec
        self.utilization = utilization
        self.offered_rate = offered_rate
        self.plan = plan
        self.summary = summary
        self.degradation = degradation
        self.recorder = recorder
        self.injector = injector
        self.client = client
        self.scheduler = scheduler
        self.server = server
        self.duration_us = duration_us
        #: The episode's :class:`~repro.trace.tracer.Tracer`, when traced.
        self.tracer = tracer
        self.trace_path = trace_path
        #: The episode's :class:`~repro.metrics.sanitizer.SimSanitizer`,
        #: when sanitized — carries ``tiebreak_hazards`` in shadow mode.
        self.sanitizer = sanitizer
        #: The episode's :class:`~repro.telemetry.probe.TelemetryProbe`,
        #: when metrics were collected.
        self.telemetry = telemetry
        #: Extensionless base path the metrics exports were written to.
        self.metrics_path = metrics_path

    def time_to_recover(self, sustain: int = 3) -> Optional[float]:
        """TTR from the plan's first fault; None for an empty plan or a
        run that never recovered."""
        fault_at = self.plan.first_fault_time()
        if fault_at is None:
            return None
        return self.degradation.time_to_recover(fault_at, sustain=sustain)

    def report_dict(self) -> dict:
        """JSON-friendly digest (benchmarks, CI artifacts)."""
        out = {
            "system": self.system_name,
            "utilization": self.utilization,
            "plan": self.plan.describe(),
            "duration_us": self.duration_us,
            "received": self.server.received,
            "injected": self.injector.counters(),
            "orphans": self.recorder.orphan_counters(),
        }
        out.update(self.degradation.summary_dict(self.plan.first_fault_time()))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        ttr = self.time_to_recover()
        return (
            f"ChaosResult({self.system_name!r}, rho={self.utilization:.2f}, "
            f"ttr={'never' if ttr is None else f'{ttr:.0f}us'})"
        )


def run_chaos(
    system: SystemModel,
    spec: WorkloadSpec,
    utilization: float,
    plan: FaultPlan,
    n_requests: int = 20_000,
    seed: int = 1,
    retry: Optional[RetryPolicy] = None,
    window_us: float = 500.0,
    slo_latency_us: Optional[float] = None,
    pct: float = 99.0,
    warmup_frac: float = 0.0,
    sanitize: "bool | str" = False,
    max_sim_time_us: Optional[float] = None,
    tracer=None,
    trace_path: Optional[str] = None,
    trace_meta: Optional[Dict[str, Any]] = None,
    telemetry=None,
    metrics_path: Optional[str] = None,
    metrics_meta: Optional[Dict[str, Any]] = None,
) -> ChaosResult:
    """Run one chaos episode and summarize its degradation.

    ``slo_latency_us`` defaults to ``DEFAULT_SLO_MULTIPLE`` times the
    longest mean service time in the workload — generous enough that a
    healthy run stays under it and a crash episode shows as violation.
    ``warmup_frac`` defaults to 0 because the pre-fault windows *are* the
    baseline a chaos analysis compares against.

    ``trace_path`` (or an explicit ``tracer``) traces the episode: spans
    for every delivered request (injector-level packet drops never reach
    the server, so they produce no span), fault events in the decision
    log, and the usual queue/worker samples.

    ``metrics_path`` (or an explicit ``telemetry`` probe) collects the
    virtual-time metrics plane over the episode — including the
    injector's ``repro_fault_injector_total{kind}`` counters — and
    writes the ``.prom``/``.jsonl``/``.html`` exports next to the trace.
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
    if slo_latency_us is None:
        slo_latency_us = DEFAULT_SLO_MULTIPLE * max(
            ts.mean_service_time for ts in spec.type_specs()
        )

    rngs = RngRegistry(seed=seed)
    loop = EventLoop()
    scheduler = system.make_scheduler(spec, rngs)
    config = system.make_config()
    recorder = Recorder()

    client: Optional[ResilientClient] = None
    if retry is not None:
        client = ResilientClient(
            loop,
            retry,
            recorder,
            rng=rngs.stream("faults.retry") if retry.jitter_frac > 0 else None,
        )
    server = Server(
        loop,
        scheduler,
        config=config,
        recorder=recorder,
        completion_sink=client.on_complete if client is not None else None,
        drop_sink=client.on_drop if client is not None else None,
    )
    sanitizer = None
    if sanitize:
        sanitizer = SimSanitizer(shadow_tiebreaks=(sanitize == "shadow"))
        sanitizer.attach(loop, server)

    injector = FaultInjector(
        plan, rng=rngs.stream("faults.net") if plan.needs_rng else None
    )
    injector.arm(loop, server)
    if tracer is not None:
        tracer.install(loop, server, injector=injector)
    if telemetry is not None:
        telemetry.install(loop, server, injector=injector)

    if client is not None:
        client.bind(injector.ingress)
        sink = client.send
    else:
        sink = injector.ingress

    rate = utilization * spec.peak_load(config.n_workers)
    generator = OpenLoopGenerator(
        loop,
        spec,
        PoissonArrivals(rate),
        sink,
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
    degradation = DegradationReport(
        recorder.columns(),
        window_us=window_us,
        slo_latency_us=slo_latency_us,
        pct=pct,
        recorder=recorder,
    )
    if tracer is not None and trace_path is not None:
        from ..trace.export import write_trace

        meta: Dict[str, Any] = {
            "system": system.name,
            "workload": spec.name,
            "utilization": utilization,
            "n_requests": n_requests,
            "seed": seed,
            "plan": plan.describe(),
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
            "plan": plan.describe(),
        }
        if metrics_meta:
            meta.update(metrics_meta)
        write_metrics(metrics_path, telemetry, recorder=recorder, meta=meta)
    elif telemetry is not None:
        telemetry.finalize()
    return ChaosResult(
        system.name,
        spec,
        utilization,
        rate,
        plan,
        summary,
        degradation,
        recorder,
        injector,
        client,
        scheduler,
        server,
        loop.now,
        tracer=tracer,
        trace_path=trace_path,
        sanitizer=sanitizer,
        telemetry=telemetry,
        metrics_path=metrics_path,
    )
