"""Rack-scale span tracing: one :class:`Tracer` per replica.

A rack run has N full servers behind one balancer, and a
:class:`~repro.trace.tracer.Tracer` samples exactly one server.
:class:`RackTracer` owns one plain tracer per replica, each wired to its
server's hooks and attached to the shared loop as an observer of its
own, so every replica keeps its periodic samples.

On top of the per-replica spans it records the **balancer decision
log**: one ``route`` entry per arriving request — replica chosen, the
view age and viewed load the balancer worked from (via the pure
:meth:`~repro.rack.views.QueueViews.peek`), and the replica's actual
load at that instant — the raw material for the forensics herding
detector (:mod:`repro.forensics.herding`).

Like the single-server tracer, everything here is a pure observer: no
events scheduled, no randomness drawn, no wall clock read, so a traced
rack run is bit-identical to an untraced one.

:meth:`RackTracer.merged` folds the replica tracers into one ordinary
:class:`Tracer` with globally unique worker ids (``replica * n_workers
+ local id``) so the standard exporter, ``repro-trace`` and the
forensics blame analyzer consume rack traces unchanged; the export meta
carries the ``rack`` geometry needed to map a global worker id back to
its replica.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..errors import TraceError
from ..trace.span import Span
from ..trace.tracer import DEFAULT_SAMPLE_INTERVAL_US, Decision, Tracer


class RackTracer:
    """One tracer per replica plus the balancer decision log."""

    def __init__(
        self,
        sample_interval_us: float = DEFAULT_SAMPLE_INTERVAL_US,
        tail_pct: float = 99.9,
    ):
        # Refused here rather than at install, where each replica's
        # Tracer would; negated so that NaN is refused too.
        if not sample_interval_us > 0:
            raise TraceError(
                f"sample_interval_us must be > 0, got {sample_interval_us}"
            )
        self.sample_interval_us = sample_interval_us
        self.tail_pct = tail_pct
        self.tracers: List[Tracer] = []
        #: ``route`` decisions in arrival order (the balancer log).
        self.routes: List[Decision] = []
        self._loop = None
        self._servers = None
        self._views = None
        self._n_workers = 0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def install(self, loop, servers, views, balancer) -> None:
        """Attach to a rack: per-replica tracers (each a loop observer)
        and the balancer's route sink."""
        if self._loop is not None:
            raise TraceError("rack tracer already installed; use one per run")
        if not servers:
            raise TraceError("rack tracer needs at least one server")
        self._loop = loop
        self._servers = list(servers)
        self._views = views
        self._n_workers = max(len(s.workers) for s in self._servers)
        for server in self._servers:
            tracer = Tracer(
                sample_interval_us=self.sample_interval_us,
                tail_pct=self.tail_pct,
            )
            tracer.install(loop, server)
            self.tracers.append(tracer)
        balancer.attach_decision_sink(self.on_route)

    @property
    def n_servers(self) -> int:
        return len(self.tracers)

    @property
    def n_workers(self) -> int:
        """Workers per replica (the worker-id remap stride)."""
        return self._n_workers

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    def on_route(self, request, index: int) -> None:
        """One balancer routing decision (the balancer's sink)."""
        viewed, age = self._views.peek(index)
        server = self._servers[index]
        self.routes.append(
            Decision(
                self._loop.now,
                "route",
                {
                    "rid": request.rid,
                    "replica": index,
                    "view_age_us": age,
                    "viewed_load": int(viewed),
                    "actual_load": int(server.pending + server.in_flight),
                    "stale": bool(age is None or age > 0.0),
                },
            )
        )

    # ------------------------------------------------------------------
    # merged view (export / forensics)
    # ------------------------------------------------------------------
    def _remap_span(self, span: Span, replica: int) -> Span:
        """A copy of ``span`` with globally unique worker ids."""
        data = span.to_dict()
        stride = self._n_workers
        for s in data["slices"]:
            s[0] = replica * stride + int(s[0])
        return Span.from_dict(data)

    def merged(self) -> Tracer:
        """Fold the replica tracers into one exporter-ready tracer.

        Spans are re-keyed in rid order (rids are assigned in global
        arrival order, so this is rack ingress order); worker ids are
        remapped to ``replica * n_workers + local``; decisions merge the
        balancer's ``route`` log with every replica's scheduler log,
        time-ordered with a stable replica tiebreak; counters sum.  The
        merge is a pure function of the recorded run, so it is as
        deterministic as the run itself.
        """
        if self._loop is None:
            raise TraceError("rack tracer not installed")
        merged = Tracer(
            sample_interval_us=self.sample_interval_us, tail_pct=self.tail_pct
        )
        merged._loop = self._loop
        for replica, tracer in enumerate(self.tracers):
            for rid in tracer._rid_order:
                merged.spans[rid] = self._remap_span(tracer.spans[rid], replica)
            merged.spans_opened += tracer.spans_opened
            merged.completions += tracer.completions
            merged.drops += tracer.drops
            merged.dispatcher_drops += tracer.dispatcher_drops
            merged.preempt_slices += tracer.preempt_slices
            merged.evictions += tracer.evictions
            merged.steal_attempts += tracer.steal_attempts
        merged._rid_order = sorted(merged.spans)
        decisions: List[Decision] = list(self.routes)
        for tracer in self.tracers:
            decisions.extend(tracer.decisions)
        merged.decisions = sorted(decisions, key=lambda d: d.time)
        samples = []
        for replica, tracer in enumerate(self.tracers):
            samples.extend((s, replica) for s in tracer.samples)
        merged.samples = [s for s, _ in sorted(samples, key=lambda p: p[0].time)]
        for rid in merged._rid_order:
            span = merged.spans[rid]
            if span.finished:
                merged.tail_monitor.observe(span.type_id, span.latency)
        return merged

    def rack_meta(self) -> Dict[str, Any]:
        """The ``rack`` geometry block merged into the export meta."""
        return {
            "n_servers": self.n_servers,
            "n_workers": self._n_workers,
            "n_routes": len(self.routes),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RackTracer({self.n_servers} replicas, "
            f"routes={len(self.routes)})"
        )


def write_rack_trace(
    path: str,
    rack_tracer: RackTracer,
    recorder=None,
    meta: Optional[Dict[str, Any]] = None,
) -> str:
    """Export one rack run's merged trace (standard trace document).

    The document is byte-compatible with single-server traces
    (``NATIVE_VERSION`` 1): ``repro-trace`` and the forensics analyzers
    read it unchanged, and ``meta["rack"]`` lets consumers decode a
    global worker id back to ``(replica, local worker)``.
    """
    from ..trace.export import write_trace

    merged_meta: Dict[str, Any] = dict(meta) if meta else {}
    merged_meta["rack"] = rack_tracer.rack_meta()
    return write_trace(path, rack_tracer.merged(), recorder=recorder, meta=merged_meta)
