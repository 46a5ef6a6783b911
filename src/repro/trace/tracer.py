"""The :class:`Tracer` — opt-in, zero-overhead-when-off observability.

One tracer instance observes one run: it is installed onto the event
loop, server, scheduler, classifier and (optionally) fault injector via
:meth:`Tracer.install`, which binds its ``on_*`` hooks to their sites
(``attach_observer``), after which every instrumentation site feeds it:

* **spans** — per-request lifecycle events (ingress, classification,
  dispatch, preemption slices, eviction, completion/drop);
* **decisions** — the scheduler decision log: DARC reservation
  recomputations (Algorithm 2 inputs and outputs), work-steal attempts,
  preemptions, and fault events from :mod:`repro.faults`;
* **samples** — periodic queue-depth / worker-state snapshots.

Sampling is piggybacked on executed events (the loop calls the tracer
after the first event at or past its next sample time, which
``on_loop_event`` returns) rather than scheduled as events of its own,
so an armed tracer adds *nothing* to the event heap:
the simulated event sequence — and therefore every recorded latency —
is bit-identical with tracing on or off.  With no observer attached
each hook site costs a single ``is None`` test.  The per-request hooks
(``on_ingress``, ``on_dispatch``, ``on_complete``) take the site's
``now``; the rarer ones read the loop's clock.

Determinism: the tracer reads only ``EventLoop.now`` and the objects it
observes; it never consults a wall clock, never draws randomness, and
never mutates simulation state.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..errors import TraceError
from ..sim.engine import due_time
from .monitor import TailMonitor
from .span import (
    COMPLETE,
    DISPATCHER_DROP,
    DROP,
    SLICE_COMPLETE,
    SLICE_EVICT,
    SLICE_PREEMPT,
    Span,
)

#: Default simulated-time distance between queue/worker samples (us).
DEFAULT_SAMPLE_INTERVAL_US = 100.0


class Decision:
    """One entry in the scheduler decision log."""

    __slots__ = ("time", "kind", "payload")

    def __init__(self, time: float, kind: str, payload: Dict[str, Any]):
        self.time = time
        self.kind = kind
        self.payload = payload

    def to_list(self) -> list:
        return [self.time, self.kind, self.payload]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Decision({self.time:.3f}us, {self.kind}, {self.payload})"


class WorkerSample:
    """One periodic snapshot of queue depths and worker states."""

    __slots__ = ("time", "pending", "busy", "free", "failed", "queue_depths")

    def __init__(
        self,
        time: float,
        pending: int,
        busy: int,
        free: int,
        failed: int,
        queue_depths: Optional[Dict[int, int]] = None,
    ):
        self.time = time
        #: Requests queued at the scheduler (not being served).
        self.pending = pending
        self.busy = busy
        self.free = free
        self.failed = failed
        #: Per-typed-queue depth for policies that expose typed queues.
        self.queue_depths = queue_depths

    def to_list(self) -> list:
        return [
            self.time,
            self.pending,
            self.busy,
            self.free,
            self.failed,
            self.queue_depths,
        ]


class Tracer:
    """Records spans, scheduler decisions and periodic samples for one run."""

    def __init__(
        self,
        sample_interval_us: float = DEFAULT_SAMPLE_INTERVAL_US,
        tail_pct: float = 99.9,
    ):
        # Negated so that NaN, from which no sample time follows, is
        # refused along with values <= 0.
        if not sample_interval_us > 0:
            raise TraceError(
                f"sample_interval_us must be > 0, got {sample_interval_us}"
            )
        self.sample_interval_us = sample_interval_us
        self.spans: Dict[int, Span] = {}
        #: Insertion-ordered rids, for deterministic export order.
        self._rid_order: List[int] = []
        self.decisions: List[Decision] = []
        self.samples: List[WorkerSample] = []
        #: Streaming per-type tail estimates over completed spans.
        self.tail_monitor = TailMonitor(pct=tail_pct)
        self._loop = None
        self._server = None
        #: Virtual time of the next sample (set at install).
        self._next_sample_at = 0.0
        # Aggregate counters (cheap reconciliation without walking spans).
        self.spans_opened = 0
        self.completions = 0
        self.drops = 0
        self.dispatcher_drops = 0
        self.preempt_slices = 0
        self.evictions = 0
        self.steal_attempts = 0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def install(self, loop, server, injector=None) -> None:
        """Attach this tracer to a loop + server (+ optional injector).

        Idempotent per run; a tracer observes exactly one run.  The
        tracer joins the loop's observers, so several tracers (one per
        rack replica) can share one loop.
        """
        if self._loop is not None:
            raise TraceError("tracer already installed; use one tracer per run")
        self._loop = loop
        self._server = server
        self._next_sample_at = due_time(loop.now, self.sample_interval_us)
        loop.attach_observer(self)
        server.attach_observer(self)
        if injector is not None:
            injector.attach_observer(self)

    @property
    def now(self) -> float:
        loop = self._loop
        if loop is None:
            raise TraceError("tracer not installed")
        return loop.now

    def _span(self, rid: int) -> Span:
        span = self.spans.get(rid)
        if span is None:
            raise TraceError(f"no span open for rid={rid}")
        return span

    # ------------------------------------------------------------------
    # span hooks (called from server / policies / classifier)
    # ------------------------------------------------------------------
    def on_ingress(self, request, sched_at: float, now: float) -> None:
        """``request`` reached ``Server.ingress`` at ``now``; the
        dispatcher will hand it to the scheduler at ``sched_at``."""
        rid = request.rid
        if rid in self.spans:
            raise TraceError(f"duplicate ingress for rid={rid}")
        span = Span(rid, request.type_id, now, sched_at)
        span.service_time = request.service_time
        span.attempt = request.attempt
        span.retry_of = request.retry_of
        self.spans[rid] = span
        self._rid_order.append(rid)
        self.spans_opened += 1

    def on_dispatcher_drop(self, request) -> None:
        """The dispatcher's inbound queue overflowed (NIC ring drop)."""
        now = self.now
        span = self._span(request.rid)
        span.sched_at = now  # it never reached the scheduler
        span.set_terminal(DISPATCHER_DROP, now)
        self.dispatcher_drops += 1

    def on_classified(self, request, type_id: int) -> None:
        """The request classifier assigned ``type_id`` on the dispatch path."""
        span = self.spans.get(request.rid)
        if span is not None:
            span.classified_type = type_id

    def on_dispatch(self, request, worker, now: float) -> None:
        """``request`` started (or resumed) service on ``worker``."""
        span = self.spans.get(request.rid)
        if span is None:
            raise TraceError(f"no span open for rid={request.rid}")
        span.open_slice(worker.worker_id, now)

    def on_preempt(self, request, worker, overhead_us: float) -> None:
        """A preemptive policy sliced ``request`` off ``worker``."""
        span = self._span(request.rid)
        span.close_slice(self.now, SLICE_PREEMPT)
        span.overhead_us += overhead_us
        self.preempt_slices += 1
        self.on_decision(
            "preempt", rid=request.rid, worker=worker.worker_id, overhead_us=overhead_us
        )

    def on_evict(self, request, worker, requeued: bool) -> None:
        """``worker`` crashed under ``request``; progress is lost."""
        span = self._span(request.rid)
        span.close_slice(self.now, SLICE_EVICT)
        if requeued:
            span.requeues += 1
        self.evictions += 1

    def on_complete(self, request, worker, now: float) -> None:
        """``request`` finished application processing on ``worker``."""
        span = self.spans.get(request.rid)
        if span is None:
            raise TraceError(f"no span open for rid={request.rid}")
        span.close_slice(now, SLICE_COMPLETE)
        span.overhead_us = request.overhead_time
        span.set_terminal(COMPLETE, now)
        self.completions += 1
        # ``span.latency``, without re-checking the terminal just set.
        self.tail_monitor.observe(span.type_id, now - span.arrival)

    def on_drop(self, request) -> None:
        """A scheduling policy's flow control rejected ``request``."""
        span = self.spans.get(request.rid)
        if span is None:
            # A policy may drop a request the server never ingressed
            # (unit-test harnesses feed schedulers directly); nothing to
            # close.
            return
        span.set_terminal(DROP, self.now)
        self.drops += 1

    # ------------------------------------------------------------------
    # scheduler decision log
    # ------------------------------------------------------------------
    def on_decision(self, kind: str, **payload: Any) -> None:
        """Append one scheduler/fault decision at the current sim time."""
        self.decisions.append(Decision(self.now, kind, payload))

    def on_steal(self, request, thief, victim_worker_id: int, cost_us: float) -> None:
        """An idle worker stole the head of a victim's queue."""
        self.on_decision(
            "steal", rid=request.rid, thief=thief.worker_id, victim=victim_worker_id, cost_us=cost_us
        )
        self.steal_attempts += 1

    def on_reservation(
        self,
        entries: List[Tuple[int, float, float]],
        reservation,
        reserved_counts: Dict[int, int],
        n_alive: int,
    ) -> None:
        """A DARC reservation recomputation: Algorithm 2's inputs (the
        profiled (type, mean service, ratio) entries) and outputs (the
        per-type reserved worker counts + spillway) over ``n_alive``
        live workers."""
        self.on_decision(
            "reservation",
            entries=[[int(t), float(s), float(r)] for (t, s, r) in entries],
            reserved={int(k): int(v) for k, v in reserved_counts.items()},
            spillway=reservation.spillway_worker,
            n_workers=n_alive,
        )

    def on_fault(self, kind: str, **payload: Any) -> None:
        """A fault-injection event (crash/recover/slowdown/packet fault)."""
        self.on_decision(f"fault.{kind}", **payload)

    # ------------------------------------------------------------------
    # periodic sampling (piggybacked on executed events)
    # ------------------------------------------------------------------
    def on_loop_event(self, loop) -> float:
        """Sample when due; return the virtual time of the next sample.

        A sample is due once ``sample_interval_us`` has passed since the
        last one (or since install).
        """
        now = loop.now
        if now >= self._next_sample_at:
            self._take_sample(now)
            self._next_sample_at = due_time(now, self.sample_interval_us)
        return self._next_sample_at

    def _take_sample(self, now: float) -> None:
        server = self._server
        if server is None:
            return
        busy = free = failed = 0
        for w in server.workers:
            if w.failed:
                failed += 1
            elif w.current is not None:
                busy += 1
            else:
                free += 1
        scheduler = server.scheduler
        depths: Optional[Dict[int, int]] = None
        queues = getattr(scheduler, "queues", None)
        if isinstance(queues, dict):
            # Built once per sample interval, not once per event.
            depths = {  # repro-analyze: disable=A401
                int(tid): len(queues[tid])
                for tid in sorted(queues)  # repro-analyze: disable=A401
                if queues[tid]
            }
        self.samples.append(
            WorkerSample(now, scheduler.pending_count(), busy, free, failed, depths)
        )

    # ------------------------------------------------------------------
    # reconciliation / views
    # ------------------------------------------------------------------
    def finished_spans(self) -> List[Span]:
        """Completed spans in ingress order."""
        return [
            self.spans[rid]
            for rid in self._rid_order
            if self.spans[rid].terminal == COMPLETE
        ]

    def open_spans(self) -> List[Span]:
        """Spans with no terminal state (in-flight at trace capture)."""
        return [
            self.spans[rid]
            for rid in self._rid_order
            if self.spans[rid].terminal is None
        ]

    def terminal_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {COMPLETE: 0, DROP: 0, DISPATCHER_DROP: 0, "open": 0}
        for rid in self._rid_order:
            counts[self.spans[rid].terminal or "open"] += 1
        return counts

    def reconcile(self, recorder) -> Dict[str, Any]:
        """Check span conservation against a Recorder's ledger.

        A span completes exactly when the server signals a completion; a
        Recorder behind a resilience layer books orphaned completions as
        ``late_completions`` instead of rows, so::

            spans(complete) == recorder.completed + recorder.late_completions
            spans(drop) + spans(dispatcher_drop) == recorder.dropped
        """
        counts = self.terminal_counts()
        expected_complete = recorder.completed + recorder.late_completions
        expected_dropped = recorder.dropped
        ok = (
            counts[COMPLETE] == expected_complete
            and counts[DROP] + counts[DISPATCHER_DROP] == expected_dropped
        )
        return {
            "ok": ok,
            "spans_complete": counts[COMPLETE],
            "recorder_complete": recorder.completed,
            "recorder_late_completions": recorder.late_completions,
            "spans_dropped": counts[DROP] + counts[DISPATCHER_DROP],
            "recorder_dropped": expected_dropped,
            "spans_open": counts["open"],
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Tracer(spans={len(self.spans)}, decisions={len(self.decisions)}, "
            f"samples={len(self.samples)})"
        )
