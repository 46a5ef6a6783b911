"""The two-level rack: N full servers behind one rack balancer.

:func:`run_rack` is the rack-scale counterpart of
:func:`repro.experiments.common.run_once`: it assembles ``n_servers``
identical replicas (each running its *own* complete SystemModel — a
Perséphone/DARC, Shenango or Shinjuku server with its own scheduler
state and per-replica RNG fork), a :class:`~repro.rack.views.QueueViews`
information model, one balancer from the catalogue, and a load source —
open-loop Poisson, a phased schedule (a list of
:class:`~repro.workload.phases.Phase`), or a recorded trace — then runs
to completion and wraps everything in a :class:`RackResult`.

Determinism contract: all randomness flows through the run's
:class:`~repro.sim.randomness.RngRegistry` (``rack.*`` streams for the
balancer and session keys, the standard workload streams for arrivals,
per-replica forks for schedulers), so one ``(seed, config)`` pair is one
exact outcome; :meth:`RackResult.digest` fingerprints it with the same
:func:`~repro.metrics.digest.digest_outcome` the single-server
determinism suite and the sweep executor use.

Sessions: every arriving request is stamped with a session key drawn
from ``rack.sessions`` over ``n_users`` (default one million) *before*
routing — including for balancers that ignore it — so all balancers at
one seed see byte-identical request streams (paired comparisons).  Keys
are drawn a block at a time; numpy's block and scalar ``integers``
return the same values in the same order.
"""

from __future__ import annotations

from numbers import Integral
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence, Union

from ..errors import ConfigurationError
from ..metrics.digest import digest_outcome
from ..metrics.recorder import Recorder
from ..metrics.summary import RunSummary
from ..server.server import Server
from ..sim.engine import EventLoop
from ..sim.randomness import RngRegistry
from ..systems.base import SystemModel
from ..workload.arrivals import PoissonArrivals
from ..workload.generator import OpenLoopGenerator, draw_block
from ..workload.phases import Phase, PhaseSchedule
from ..workload.request import Request
from ..workload.spec import WorkloadSpec
from .balancers import RackBalancer, make_balancer
from .views import QueueViews

if TYPE_CHECKING:
    from .faults import RackFaultInjector, RackFaultPlan

#: Default user-population size for session keys — the "millions of
#: users" scale the rack is meant to absorb.
DEFAULT_N_USERS = 1_000_000

#: Largest ``n_users``: numpy draws int64 session keys below it.
MAX_N_USERS = 2**63 - 1


def _tee(rack_sink: Callable, replica_sink: Callable) -> Callable:
    """Sink forwarding each request to the rack-level recorder first
    (so rack digests match a single shared recorder) and then to the
    replica's own recorder."""

    def sink(request) -> None:
        rack_sink(request)
        replica_sink(request)

    return sink


class Rack:
    """The assembled rack: servers + views + balancer + session stamping.

    ``limit`` is how many requests the run will route, when the load
    source knows it (a steady run's ``n_requests``, a replay's trace
    length): session-key blocks are capped at the keys still needed, so
    a run to its limit leaves ``rack.sessions`` exactly where one draw
    per request leaves it.
    """

    def __init__(
        self,
        loop: EventLoop,
        servers: Sequence[Server],
        views: QueueViews,
        balancer: RackBalancer,
        session_rng,
        n_users: int = DEFAULT_N_USERS,
        limit: Optional[int] = None,
    ):
        if isinstance(n_users, bool) or not isinstance(n_users, Integral):
            raise ConfigurationError(f"n_users must be an int, got {n_users!r}")
        if not 1 <= n_users <= MAX_N_USERS:
            raise ConfigurationError(
                f"n_users must be in [1, {MAX_N_USERS}], got {n_users}"
            )
        self.loop = loop
        self.servers = list(servers)
        self.views = views
        self.balancer = balancer
        self._session_rng = session_rng
        self._n_users = int(n_users)
        #: Keys not yet drawn into a block (None = unbounded).
        self._keys_left = limit
        self._keys: Iterator[int] = iter(())

    @property
    def n_servers(self) -> int:
        return len(self.servers)

    def ingress(self, request: Request) -> None:
        """The rack's front door (the load source's sink).

        Stamps the session key unconditionally — even for balancers
        that never read it — so the RNG draw sequence, and therefore
        the request stream, is identical across balancer choices.
        """
        key = next(self._keys, None)
        if key is None:
            key = self._draw_keys()
        request.session = key
        self.balancer.ingress(request)

    def _draw_keys(self) -> int:
        """Draw the next block of session keys and return its first.
        Past its limit (more arrivals than announced) the rack keeps
        drawing full blocks: the keys stay exact, only the stream's
        final state moves."""
        rng = self._session_rng
        n_users = self._n_users
        left = self._keys_left or None
        block = draw_block(lambda n: rng.integers(0, n_users, size=n), left)
        if left is not None:
            self._keys_left = left - len(block)
        self._keys = iter(block)
        return next(self._keys)


class RackResult:
    """Everything one rack run produced, per tier."""

    def __init__(
        self,
        summary: RunSummary,
        recorder: Recorder,
        loop: EventLoop,
        rack: Rack,
        replica_recorders: List[Recorder],
        spec: WorkloadSpec,
        utilization: float,
        balancer_name: str,
        injector: Optional[RackFaultInjector] = None,
        telemetry=None,
        metrics_path: Optional[str] = None,
        tracer=None,
        trace_path: Optional[str] = None,
    ):
        self.summary = summary
        self.recorder = recorder
        self.loop = loop
        self.rack = rack
        self.replica_recorders = replica_recorders
        self.spec = spec
        self.utilization = utilization
        self.balancer_name = balancer_name
        self.injector = injector
        self.telemetry = telemetry
        self.metrics_path = metrics_path
        #: The run's :class:`~repro.rack.tracing.RackTracer`, when traced.
        self.tracer = tracer
        #: Where the merged rack trace was written, when requested.
        self.trace_path = trace_path

    # -- convenience views ---------------------------------------------
    @property
    def servers(self) -> List[Server]:
        return self.rack.servers

    @property
    def balancer(self) -> RackBalancer:
        return self.rack.balancer

    @property
    def views(self) -> QueueViews:
        return self.rack.views

    @property
    def n_servers(self) -> int:
        return self.rack.n_servers

    def replica_loads(self) -> List[int]:
        """Requests each replica received."""
        return [server.received for server in self.servers]

    def load_imbalance(self) -> float:
        """(max - min) / mean of per-replica request counts."""
        loads = self.replica_loads()
        mean = sum(loads) / len(loads)
        if mean == 0:
            return 0.0
        return (max(loads) - min(loads)) / mean

    def replica_summaries(
        self, warmup_frac: float = 0.10, pct: float = 99.9
    ) -> List[RunSummary]:
        """Per-replica :class:`RunSummary` views (one per server)."""
        type_specs = self.spec.type_specs()
        return [
            RunSummary(
                recorder,
                duration_us=self.loop.now,
                type_specs=type_specs,
                warmup_frac=warmup_frac,
                pct=pct,
            )
            for recorder in self.replica_recorders
        ]

    def digest(self) -> str:
        """The run's determinism fingerprint (same scheme as the
        single-server suite and the sweep executor)."""
        return digest_outcome(self.recorder, self.loop)

    def degradation(
        self,
        window_us: float,
        slo_latency_us: float,
        pct: float = 99.0,
    ) -> Dict[str, object]:
        """Windowed :class:`DegradationReport` per tier.

        ``"balancer"`` is the client-visible view (the rack-level
        recorder — what the whole rack delivered); ``"servers"`` is one
        report per replica, so a chaos episode shows both the blast
        radius (which replicas blacked out) and how well the balancer
        hid it.
        """
        from ..metrics.degradation import DegradationReport

        balancer_tier = DegradationReport(
            self.recorder.columns(),
            window_us=window_us,
            slo_latency_us=slo_latency_us,
            pct=pct,
            recorder=self.recorder,
        )
        server_tier = [
            DegradationReport(
                recorder.columns(),
                window_us=window_us,
                slo_latency_us=slo_latency_us,
                pct=pct,
                recorder=recorder,
            )
            for recorder in self.replica_recorders
        ]
        return {"balancer": balancer_tier, "servers": server_tier}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RackResult({self.n_servers} servers, {self.balancer_name!r}, "
            f"rho={self.utilization:.2f}, "
            f"p{self.summary.pct} slowdown={self.summary.overall_tail_slowdown:.1f})"
        )


#: A custom balancer constructor: (servers, views, rngs, spec) -> balancer.
RackBalancerFactory = Callable[
    [Sequence[Server], QueueViews, RngRegistry, WorkloadSpec], RackBalancer
]


def run_rack(
    system: SystemModel,
    spec: WorkloadSpec,
    balancer: Union[str, RackBalancerFactory] = "pow2",
    n_servers: int = 16,
    utilization: float = 0.7,
    n_requests: int = 40_000,
    seed: int = 1,
    warmup_frac: float = 0.10,
    pct: float = 99.9,
    staleness_us: float = 50.0,
    n_users: int = DEFAULT_N_USERS,
    plan: Optional[RackFaultPlan] = None,
    phases: Optional[Sequence[Phase]] = None,
    trace=None,
    sanitize: "bool | str" = False,
    tracer=None,
    trace_path: Optional[str] = None,
    trace_meta: Optional[Dict[str, object]] = None,
    telemetry=None,
    metrics_path: Optional[str] = None,
    max_sim_time_us: Optional[float] = None,
) -> RackResult:
    """Simulate one rack configuration and summarize it.

    ``balancer`` is a catalogue name (see
    :data:`~repro.rack.balancers.BALANCER_NAMES`) or a factory callable.
    Exactly one load source applies: a recorded ``trace`` (replayed as
    is; ``n_requests``/``utilization`` ignored), ``phases`` (a list of
    :class:`~repro.workload.phases.Phase`, as figure 7 uses, whose
    per-core utilizations are scaled by the whole rack's core count;
    the open-loop generator stops when the last phase ends), or the
    default steady open-loop Poisson stream at ``utilization`` of the
    rack-wide peak, for ``n_requests`` arrivals.

    ``plan`` arms a :class:`~repro.rack.faults.RackFaultPlan` (whole
    -server crashes, partitions).  ``sanitize`` attaches the runtime
    invariant sanitizer in loop-only mode (monotonic-time and shadow
    checks, each replica's queued counter against a scan of its queues,
    and the views' pushed loads and errors against fresh reads; the
    other server-specific invariants need a single server).
    ``trace_path`` (or an explicit ``tracer``, a
    :class:`~repro.rack.tracing.RackTracer`) turns on rack-scale span
    tracing: one per-replica tracer tee plus the balancer decision log,
    exported as a single merged trace document with globally unique
    worker ids.  Like the single-server tracer it observes without
    perturbing, so traced runs are bit-identical to untraced ones.
    ``metrics_path`` (or an explicit ``telemetry`` probe) turns on the
    virtual-time metrics plane with the rack pull source registered.
    """
    if n_servers < 1:
        raise ConfigurationError(f"n_servers must be >= 1, got {n_servers}")
    if utilization <= 0:
        raise ConfigurationError(f"utilization must be > 0, got {utilization}")
    if n_requests < 1:
        raise ConfigurationError(f"n_requests must be >= 1, got {n_requests}")
    if trace is not None and phases is not None:
        raise ConfigurationError("pass either trace or phases, not both")
    if metrics_path is not None and telemetry is None:
        from ..telemetry.probe import TelemetryProbe

        telemetry = TelemetryProbe()

    rngs = RngRegistry(seed=seed)
    loop = EventLoop()
    recorder = Recorder()
    config = system.make_config()
    servers: List[Server] = []
    replica_recorders: List[Recorder] = []
    for i in range(n_servers):
        replica_rec = Recorder()
        replica_recorders.append(replica_rec)
        scheduler = system.make_scheduler(spec, rngs.fork(i))
        servers.append(
            Server(
                loop,
                scheduler,
                config=system.make_config(),
                recorder=recorder,
                completion_sink=_tee(recorder.on_complete, replica_rec.on_complete),
                drop_sink=_tee(recorder.on_drop, replica_rec.on_drop),
            )
        )
    views = QueueViews(loop, servers, staleness_us=staleness_us)
    if callable(balancer):
        rack_balancer = balancer(servers, views, rngs, spec)
        balancer_name = type(rack_balancer).__name__
    else:
        rack_balancer = make_balancer(balancer, servers, views, rngs, spec)
        balancer_name = balancer
    if trace is not None:
        arrivals: Optional[int] = len(trace)
    else:
        arrivals = None if phases is not None else n_requests
    rack = Rack(
        loop,
        servers,
        views,
        rack_balancer,
        session_rng=rngs.stream("rack.sessions"),
        n_users=n_users,
        limit=arrivals,
    )

    rack_tracer = tracer
    if trace_path is not None and rack_tracer is None:
        from .tracing import RackTracer

        rack_tracer = RackTracer()
    if rack_tracer is not None:
        rack_tracer.install(loop, servers, views, rack_balancer)

    injector = None
    if plan is not None and not plan.is_empty:
        from .faults import RackFaultInjector

        injector = RackFaultInjector(plan)
        injector.arm(loop, servers, rack_balancer)
    if sanitize:
        from ..metrics.sanitizer import SimSanitizer

        # Loop-only attachment: per-server invariants (worker
        # exclusivity, reservation rules) assume a single server, but
        # time monotonicity, the shadow tie-break check, every
        # replica's queued counter and the views' pushed state apply.
        SimSanitizer(
            shadow_tiebreaks=(sanitize == "shadow"), replicas=servers, views=views
        ).attach(loop)
    if telemetry is not None:
        telemetry.install(loop)
        for server in servers:
            server.attach_observer(telemetry)
        telemetry.register_rack(rack)

    per_server_peak = spec.peak_load(config.n_workers)
    rack_workers = n_servers * config.n_workers
    if trace is not None:
        from ..workload.trace import TraceReplayer

        replayer = TraceReplayer(loop, trace, rack.ingress)
        replayer.start()
        offered = trace.offered_rate()
        utilization = offered / (per_server_peak * n_servers)
    else:
        rate = utilization * per_server_peak * n_servers
        generator = OpenLoopGenerator(
            loop,
            spec,
            PoissonArrivals(rate),
            rack.ingress,
            type_rng=rngs.stream("types"),
            service_rng=rngs.stream("service"),
            arrival_rng=rngs.stream("arrivals"),
            limit=None if phases is not None else n_requests,
        )
        if phases is not None:
            schedule = PhaseSchedule(loop, generator, list(phases), rack_workers)
            generator.start()
            schedule.start()
            loop.call_at(schedule.total_duration_us, generator.stop)
        else:
            generator.start()
    loop.run(until=max_sim_time_us)
    for server in servers:
        server.scheduler.settle()

    summary = RunSummary(
        recorder,
        duration_us=loop.now,
        type_specs=spec.type_specs(),
        warmup_frac=warmup_frac,
        pct=pct,
    )
    if rack_tracer is not None and trace_path is not None:
        from .tracing import write_rack_trace

        meta: Dict[str, object] = {
            "system": system.name,
            "workload": spec.name,
            "balancer": balancer_name,
            "n_servers": n_servers,
            "utilization": utilization,
            "staleness_us": staleness_us,
            "seed": seed,
        }
        if trace_meta:
            meta.update(trace_meta)
        write_rack_trace(trace_path, rack_tracer, recorder=recorder, meta=meta)
    if telemetry is not None and metrics_path is not None:
        from ..telemetry.export import write_metrics

        meta = {
            "system": system.name,
            "workload": spec.name,
            "balancer": balancer_name,
            "n_servers": n_servers,
            "utilization": utilization,
            "seed": seed,
        }
        write_metrics(metrics_path, telemetry, recorder=recorder, meta=meta)
    elif telemetry is not None:
        telemetry.finalize()
    return RackResult(
        summary,
        recorder,
        loop,
        rack,
        replica_recorders,
        spec,
        utilization,
        balancer_name,
        injector=injector,
        telemetry=telemetry,
        metrics_path=metrics_path,
        tracer=rack_tracer,
        trace_path=trace_path,
    )
