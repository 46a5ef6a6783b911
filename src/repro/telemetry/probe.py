"""The :class:`TelemetryProbe` — one run's metrics plane, end to end.

A probe owns a :class:`~repro.telemetry.registry.MetricsRegistry` and a
:class:`~repro.telemetry.timeline.MetricsTimeline` and wires them into a
run via :meth:`install`, after which two kinds of instrumentation feed
it:

* **push hooks** — the scheduler base, time sharing, work stealing and
  DARC call the probe's ``on_*`` methods at the same hook sites that
  feed the tracer (completion, drop, eviction, preemption, steal,
  reservation install); :meth:`install` binds them with the server's
  ``attach_observer``;
* **pull sources** — at every scrape the probe reads engine counters,
  dispatcher state, worker occupancy, per-type queue depths, recorder
  totals, fault-injector counters and the streaming tail monitor.

Scraping is piggybacked on executed events exactly like the tracer: the
loop calls the probe after the first event at or past its next scrape
time, which ``on_loop_event`` returns, so a scrape lands once at least
``scrape_interval_us`` of *virtual* time has passed.  The probe
never schedules events, draws randomness, or reads a wall clock, so an
armed probe leaves the simulated outcome bit-identical
(``tests/telemetry/test_determinism.py``).

One monitor per server: when the server already carries a
:class:`~repro.trace.tracer.Tracer` whose tail monitor has the probe's
percentile and no samples yet, :meth:`install` adopts that monitor
instead of feeding a second one (the first such tracer, when several
are attached).  Both hooks fire at the same completion sites with the
same ``(type, latency)``, so the shared estimates are the ones two
monitors would hold, at half the P² updates per completion.

Conservation: :meth:`reconcile` checks the final push counters against
the :class:`~repro.metrics.recorder.Recorder` ledger the same way
trace↔recorder reconciliation works —

    completions_total == recorder.completed + recorder.late_completions
    drops_total + dispatcher drops == recorder.dropped
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..errors import TelemetryError
from ..sim.engine import due_time
from ..trace.monitor import TailMonitor
from ..trace.tracer import Tracer
from .registry import MetricsRegistry
from .timeline import MetricsTimeline

#: Default simulated-time distance between scrapes (us) — matches the
#: tracer's sampling cadence.
DEFAULT_SCRAPE_INTERVAL_US = 100.0


class TelemetryProbe:
    """Collects push metrics, runs the virtual-time scrape loop."""

    def __init__(
        self,
        scrape_interval_us: float = DEFAULT_SCRAPE_INTERVAL_US,
        tail_pct: float = 99.9,
        registry: Optional[MetricsRegistry] = None,
    ):
        # Negated so that NaN, from which no scrape time follows, is
        # refused along with values <= 0.
        if not scrape_interval_us > 0:
            raise TelemetryError(
                f"scrape_interval_us must be > 0, got {scrape_interval_us}"
            )
        self.scrape_interval_us = scrape_interval_us
        self.registry = registry if registry is not None else MetricsRegistry()
        self.timeline = MetricsTimeline()
        #: Streaming per-type tail estimates, published as gauges; the
        #: server's tracer's monitor when :meth:`install` adopts it.
        self.tail_monitor = TailMonitor(pct=tail_pct)
        #: Whether ``on_complete`` feeds ``tail_monitor`` (False when the
        #: monitor is the tracer's, which its own hook feeds).
        self._feeds_monitor = True
        self._loop = None
        self._server = None
        self._injector = None
        self._rack = None
        #: Virtual time of the next scrape (set at install).
        self._next_scrape_at = 0.0
        self._finalized = False
        self.scrapes = 0
        # Aggregate push counters (cheap reconciliation without walking
        # the registry), mirroring Tracer's.
        self.completions = 0
        self.drops = 0
        self.preemptions = 0
        self.evictions = 0
        self.steals = 0
        self.reservation_updates = 0
        # Push-hook series, bound on first use so that series creation
        # order (and with it export order) is the unbound order.
        #: type id -> (completed counter, latency histogram)
        self._completion_series: Dict[Any, Tuple[Any, Any]] = {}
        #: type id -> dropped counter
        self._drop_series: Dict[Any, Any] = {}
        #: requeued flag -> eviction counter
        self._evict_series: Dict[bool, Any] = {}
        self._preempt_series: Optional[Tuple[Any, Any]] = None
        self._steal_series: Optional[Tuple[Any, Any]] = None
        # Pull-source series, bound on the first scrape for the same
        # reason.
        self._engine_series: Optional[Tuple[Any, Any]] = None
        #: (received, dispatcher drops, busy, free, failed, slowed)
        self._server_series: Optional[Tuple[Any, ...]] = None
        self._pending_series: Any = None
        #: (label key, label value) -> queue-depth gauge
        self._depth_series: Dict[Tuple[str, str], Any] = {}
        self._recorder_series: Optional[Tuple[Any, Any]] = None
        #: orphan kind -> orphan counter
        self._orphan_series: Dict[str, Any] = {}
        #: injector counter kind -> injector counter
        self._injector_series: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def install(self, loop, server=None, injector=None) -> None:
        """Attach this probe to a loop + server (+ optional injector).

        One probe observes exactly one run.  ``server=None`` supports
        multi-server (rack) runs: attach the loop here, then forward the
        probe to each replica with ``server.attach_observer(probe)``
        and register the rack via :meth:`register_rack`; such a probe
        keeps its own tail monitor.

        If ``server``'s scheduler already has a :class:`Tracer` whose
        tail monitor has this probe's percentile and no samples yet, the
        probe adopts that monitor and feeds none of its own.
        """
        if self._loop is not None:
            raise TelemetryError("probe already installed; use one probe per run")
        self._loop = loop
        self._server = server
        self._injector = injector
        self._next_scrape_at = due_time(loop.now, self.scrape_interval_us)
        loop.attach_observer(self)
        if server is not None:
            for tracer in server.scheduler.observers:
                if not isinstance(tracer, Tracer):
                    continue
                monitor = tracer.tail_monitor
                if monitor.pct == self.tail_monitor.pct and monitor.count() == 0:
                    self.tail_monitor = monitor
                    self._feeds_monitor = False
                    break
            server.attach_observer(self)
        self.tail_monitor.register_gauges(self.registry)
        self.scrape(loop.now)

    def register_rack(self, rack) -> None:
        """Sample a ``repro.rack`` rack every scrape: per-replica queue
        depth / in-flight / routing counts, balancer spill and staleness
        counters, and the stale-view error gauge."""
        self._rack = rack

    # ------------------------------------------------------------------
    # push hooks (called from policies / DARC)
    # ------------------------------------------------------------------
    def on_complete(self, request, worker, now: float) -> None:
        """``request`` finished application processing on ``worker``."""
        tid = request.type_id
        series = self._completion_series.get(tid)
        if series is None:
            series = self._bind_completion(tid)
        completed, latencies = series
        completed.inc()
        latency = now - request.arrival_time
        latencies.observe(latency)
        if self._feeds_monitor:
            self.tail_monitor.observe(tid, latency)
        self.completions += 1

    def _bind_completion(self, tid) -> Tuple[Any, Any]:
        series = (
            self.registry.counter(
                "repro_requests_completed_total",
                "Requests completed by the server, by type.",
                type=tid,
            ),
            self.registry.histogram(
                "repro_request_latency_us",
                "End-to-end request latency (arrival to completion), by type.",
                type=tid,
            ),
        )
        self._completion_series[tid] = series
        return series

    def on_drop(self, request) -> None:
        """A scheduling policy's flow control rejected ``request``."""
        tid = request.type_id
        dropped = self._drop_series.get(tid)
        if dropped is None:
            dropped = self._drop_series[tid] = self.registry.counter(
                "repro_requests_dropped_total",
                "Requests rejected by policy flow control, by type.",
                type=tid,
            )
        dropped.inc()
        self.drops += 1

    def on_preempt(self, request, worker, overhead_us: float) -> None:
        """A preemptive policy sliced ``request`` off ``worker``."""
        series = self._preempt_series
        if series is None:
            registry = self.registry
            series = self._preempt_series = (
                registry.counter(
                    "repro_preemptions_total",
                    "Time-sharing quantum preemptions.",
                ),
                registry.counter(
                    "repro_preempt_overhead_us_total",
                    "Cumulative worker time burned on preemption costs (us).",
                ),
            )
        preemptions, overhead = series
        preemptions.inc()
        overhead.inc(overhead_us)
        self.preemptions += 1

    def on_evict(self, request, worker, requeued: bool) -> None:
        """``worker`` crashed under ``request``; progress was lost."""
        evictions = self._evict_series.get(requeued)
        if evictions is None:
            evictions = self._evict_series[requeued] = self.registry.counter(
                "repro_evictions_total",
                "In-flight requests evicted by worker crashes.",
                requeued="true" if requeued else "false",
            )
        evictions.inc()
        self.evictions += 1

    def on_steal(self, request, thief, victim_worker_id: int, cost_us: float) -> None:
        """An idle worker stole the head of a victim's queue."""
        series = self._steal_series
        if series is None:
            registry = self.registry
            series = self._steal_series = (
                registry.counter(
                    "repro_steals_total",
                    "Successful work-steal operations.",
                ),
                registry.counter(
                    "repro_steal_cost_us_total",
                    "Cumulative cross-core coordination time spent stealing (us).",
                ),
            )
        steals, cost = series
        steals.inc()
        cost.inc(cost_us)
        self.steals += 1

    def on_reservation(
        self, entries, reservation, reserved_counts: Dict[int, int], n_alive: int
    ) -> None:
        """DARC installed a new reservation (Algorithm 2 output) over
        ``n_alive`` live workers; the profile ``entries`` go unused.

        ``reserved`` gauges the workers a type's group owns outright;
        ``yielding`` gauges the owned workers that shorter groups may
        steal — the cores the group has conditionally given up, which is
        the non-work-conserving lever Fig. 7 visualizes.
        """
        stealable: set = set()
        for alloc in reservation.allocations:
            stealable.update(alloc.stealable)
        for alloc in reservation.allocations:
            yielding = sum(1 for widx in alloc.reserved if widx in stealable)
            for tid in sorted(alloc.type_ids):
                self.registry.gauge(
                    "repro_darc_reserved_cores",
                    "Workers currently guaranteed to the type's group.",
                    type=tid,
                ).set(len(alloc.reserved))
                self.registry.gauge(
                    "repro_darc_yielding_cores",
                    "Guaranteed workers the group currently yields to "
                    "shorter groups (stealable by them).",
                    type=tid,
                ).set(yielding)
        spillway = reservation.spillway_worker
        self.registry.gauge(
            "repro_darc_spillway_worker",
            "Worker id of the shared spillway core (-1 when none).",
        ).set(-1 if spillway is None else spillway)
        self.registry.gauge(
            "repro_darc_alive_workers",
            "Workers the reservation was computed over.",
        ).set(n_alive)
        self.registry.counter(
            "repro_darc_reservation_updates_total",
            "Algorithm 2 reservation recomputations installed.",
        ).inc()
        self.reservation_updates += 1

    # ------------------------------------------------------------------
    # the scrape loop (piggybacked on executed events)
    # ------------------------------------------------------------------
    def on_loop_event(self, loop) -> float:
        """Scrape when due; return the virtual time of the next scrape.

        A scrape is due once ``scrape_interval_us`` has passed since the
        last one (or since install).
        """
        now = loop.now
        if now >= self._next_scrape_at:
            self.scrape(now)
            self._next_scrape_at = due_time(now, self.scrape_interval_us)
        return self._next_scrape_at

    def scrape(self, now: float) -> None:
        """Sample every pull source and append to the timeline."""
        self._pull_engine(now)
        self._pull_server(now)
        self._pull_scheduler(now)
        self._pull_recorder(now)
        self._pull_faults(now)
        self._pull_rack(now)
        self.registry.collect(now)
        self.timeline.record(now, self.registry)
        self.scrapes += 1

    def finalize(self) -> None:
        """Take the closing scrape (idempotent; run end / export time)."""
        if self._finalized or self._loop is None:
            return
        self._finalized = True
        self.scrape(self._loop.now)

    # ------------------------------------------------------------------
    # pull sources
    # ------------------------------------------------------------------
    def _pull_engine(self, now: float) -> None:
        loop = self._loop
        if loop is None:
            return
        series = self._engine_series
        if series is None:
            registry = self.registry
            series = self._engine_series = (
                registry.counter(
                    "repro_sim_events_processed_total",
                    "Events executed by the discrete-event loop.",
                ),
                registry.gauge(
                    "repro_sim_pending_events",
                    "Events in the loop heap (including lazily cancelled ones).",
                ),
            )
        processed, pending = series
        processed.set_total(loop.events_processed)
        pending.set(loop.pending_count)

    def _pull_server(self, now: float) -> None:
        server = self._server
        if server is None:
            return
        series = self._server_series
        if series is None:
            series = self._server_series = self._bind_server()
        received, dispatcher_drops, busy_g, free_g, failed_g, slowed_g = series
        received.set_total(server.received)
        dispatcher_drops.set_total(server.dispatcher_drops)
        busy = free = failed = slowed = 0
        for w in server.workers:
            if w.failed:
                failed += 1
            elif w.current is not None:
                busy += 1
            else:
                free += 1
            if not w.failed and w.speed_factor != 1.0:
                slowed += 1
        busy_g.set(busy)
        free_g.set(free)
        failed_g.set(failed)
        slowed_g.set(slowed)

    def _bind_server(self) -> Tuple[Any, ...]:
        registry = self.registry
        return (
            registry.counter(
                "repro_server_received_total",
                "Requests that reached Server.ingress.",
            ),
            registry.counter(
                "repro_dispatcher_drops_total",
                "Requests dropped by the dispatcher's inbound queue (NIC ring).",
            ),
            registry.gauge("repro_workers_busy", "Workers currently serving a request."),
            registry.gauge("repro_workers_free", "Workers currently idle."),
            registry.gauge("repro_workers_failed", "Workers currently crashed."),
            registry.gauge(
                "repro_workers_slowed",
                "Live workers currently running degraded (speed_factor != 1).",
            ),
        )

    def _pull_scheduler(self, now: float) -> None:
        server = self._server
        if server is None:
            return
        scheduler = server.scheduler
        registry = self.registry
        pending = self._pending_series
        if pending is None:
            pending = self._pending_series = registry.gauge(
                "repro_scheduler_pending",
                "Requests queued at the scheduler (not being served).",
            )
        pending.set(scheduler.pending_count())
        depths = self._depth_series
        for label_key, label_value, depth in _queue_depths(scheduler):
            gauge = depths.get((label_key, label_value))
            if gauge is None:
                gauge = depths[label_key, label_value] = registry.gauge(
                    "repro_queue_depth",
                    "Scheduler queue depth, by typed queue / worker queue.",
                    # Once per queue, on its first scrape.
                    **{label_key: label_value},  # repro-analyze: disable=A401
                )
            gauge.set(depth)

    def _pull_recorder(self, now: float) -> None:
        server = self._server
        if server is None:
            return
        recorder = server.recorder
        series = self._recorder_series
        if series is None:
            registry = self.registry
            series = self._recorder_series = (
                registry.counter(
                    "repro_recorder_completions_total",
                    "Completion rows booked by the Recorder.",
                ),
                registry.counter(
                    "repro_recorder_drops_total",
                    "Drops booked by the Recorder (policy + dispatcher).",
                ),
            )
        completions, drops = series
        completions.set_total(recorder.completed)
        drops.set_total(recorder.dropped)
        orphans = self._orphan_series
        # Sorted once per scrape interval, not once per event.
        totals = sorted(recorder.orphan_counters().items())  # repro-analyze: disable=A401
        for key, value in totals:
            counter = orphans.get(key)
            if counter is None:
                counter = orphans[key] = self.registry.counter(
                    "repro_recorder_orphans_total",
                    "Orphan-request ledger (resilience layer), by kind.",
                    kind=key,
                )
            counter.set_total(value)

    def _pull_faults(self, now: float) -> None:
        injector = self._injector
        if injector is None:
            return
        bound = self._injector_series
        # Sorted once per scrape interval, not once per event.
        totals = sorted(injector.counters().items())  # repro-analyze: disable=A401
        for key, value in totals:
            counter = bound.get(key)
            if counter is None:
                counter = bound[key] = self.registry.counter(
                    "repro_fault_injector_total",
                    "Fault-injector lifetime counters, by kind.",
                    kind=key,
                )
            counter.set_total(value)

    def _pull_rack(self, now: float) -> None:
        rack = self._rack
        if rack is None:
            return
        registry = self.registry
        balancer = rack.balancer
        for index, server in enumerate(rack.servers):
            registry.gauge(
                "repro_rack_replica_pending",
                "Requests queued at the replica's scheduler, by server.",
                server=index,
            ).set(server.pending)
            registry.gauge(
                "repro_rack_replica_in_flight",
                "Requests being served on the replica, by server.",
                server=index,
            ).set(server.in_flight)
            registry.counter(
                "repro_rack_replica_received_total",
                "Requests the replica's ingress accepted, by server.",
                server=index,
            ).set_total(server.received)
            registry.counter(
                "repro_rack_routes_total",
                "Requests the balancer routed to the replica, by server.",
                server=index,
            ).set_total(balancer.route_counts[index])
        registry.counter(
            "repro_rack_routed_total",
            "Requests the rack balancer routed in total.",
        ).set_total(balancer.routed)
        registry.counter(
            "repro_rack_spills_total",
            "Requests routed outside their preferred replica set.",
        ).set_total(getattr(balancer, "spills", 0))
        registry.gauge(
            "repro_rack_unreachable_replicas",
            "Replicas currently partitioned away from the balancer.",
        ).set(len(balancer.unreachable))
        views = rack.views
        registry.counter(
            "repro_rack_view_stale_reads_total",
            "Balancer load reads served from a stale snapshot.",
        ).set_total(views.stale_reads)
        registry.gauge(
            "repro_rack_view_error",
            "Mean absolute error of stale load views vs. the true load.",
        ).set(views.mean_error())

    # ------------------------------------------------------------------
    # reconciliation
    # ------------------------------------------------------------------
    def counter_totals(self) -> Dict[str, int]:
        """The aggregate push counters as a plain dict."""
        return {
            "completions": self.completions,
            "drops": self.drops,
            "preemptions": self.preemptions,
            "evictions": self.evictions,
            "steals": self.steals,
            "reservation_updates": self.reservation_updates,
        }

    def reconcile(self, recorder) -> Dict[str, Any]:
        """Conservation check against a Recorder's ledger.

        Every server-side completion fires the push hook exactly once,
        and the recorder books it either as a row or (behind a
        resilience layer, for orphaned attempts) as a late completion::

            completions_total == recorder.completed + recorder.late_completions
            drops_total + dispatcher_drops == recorder.dropped

        The registry's per-type counter families must agree with the
        aggregate push counters (they are incremented at the same sites).
        """
        if self._server is not None:
            dispatcher_drops = self._server.dispatcher_drops
        elif self._rack is not None:
            dispatcher_drops = sum(s.dispatcher_drops for s in self._rack.servers)
        else:
            dispatcher_drops = 0
        expected_complete = recorder.completed + recorder.late_completions
        family_completions = self.registry.family_total(
            "repro_requests_completed_total"
        )
        family_drops = self.registry.family_total("repro_requests_dropped_total")
        ok = (
            self.completions == expected_complete
            and self.drops + dispatcher_drops == recorder.dropped
            and family_completions == self.completions
            and family_drops == self.drops
        )
        return {
            "ok": ok,
            "telemetry_completions": self.completions,
            "recorder_complete": recorder.completed,
            "recorder_late_completions": recorder.late_completions,
            "telemetry_drops": self.drops,
            "dispatcher_drops": dispatcher_drops,
            "recorder_dropped": recorder.dropped,
            "orphans": dict(sorted(recorder.orphan_counters().items())),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TelemetryProbe(series={len(self.registry)}, "
            f"scrapes={self.scrapes}, completions={self.completions})"
        )


def _queue_depths(scheduler) -> List[Tuple[str, str, int]]:
    """Queue-depth gauges for every queue shape a policy exposes.

    * ``queues`` dict  — typed queues (DARC, FixedPriority, DRR, ...):
      one gauge per type id;
    * ``queues`` list  — per-worker FIFOs (d-FCFS / work stealing): one
      gauge per worker index;
    * ``queue`` deque  — c-FCFS's single central queue;
    * ``central`` / ``typed`` — TimeSharing's two disciplines.
    """
    out: List[Tuple[str, str, int]] = []
    queues = getattr(scheduler, "queues", None)
    if isinstance(queues, dict):
        # Sorted once per scrape interval, not once per event.
        for tid in sorted(queues):  # repro-analyze: disable=A401
            out.append(("type", str(tid), len(queues[tid])))
    elif isinstance(queues, list):
        for index, queue in enumerate(queues):
            out.append(("worker", str(index), len(queue)))
    central = getattr(scheduler, "queue", None)
    if central is not None:
        out.append(("queue", "central", len(central)))
    ts_central = getattr(scheduler, "central", None)
    ts_typed = getattr(scheduler, "typed", None)
    if ts_central is not None and getattr(scheduler, "mode", None) == "single":
        out.append(("queue", "central", len(ts_central)))
    if isinstance(ts_typed, dict) and getattr(scheduler, "mode", None) == "multi":
        for tid in sorted(ts_typed):
            out.append(("type", str(tid), len(ts_typed[tid])))
    return out
