"""Runtime invariant sanitizer for the discrete-event simulation.

:class:`SimSanitizer` is the runtime twin of ``repro-analyze``: where the
static rules catch nondeterminism *patterns*, the sanitizer catches live
invariant breakage while a simulation runs.  It hooks into
:class:`~repro.sim.engine.EventLoop` (see
:meth:`~repro.sim.engine.EventLoop.attach_sanitizer`) and is called
around every executed event; when disabled (the default — no sanitizer
attached) the engine pays a single ``is None`` test per event.

Invariants checked after every event
------------------------------------
* **monotonic-time** — executed event times never decrease, and the loop
  clock equals the last executed event's time.
* **worker-exclusivity** — every busy worker serves exactly one request,
  that request points back at the worker, no request is on two workers,
  no completed request is still occupying a core, and no *crashed* core
  holds a request (the crash handler must evict in-flight work).
* **worker-counters** — the server's O(1) busy and crashed core
  counters and its free-core bitmask
  (:class:`~repro.server.worker.WorkerCounts`) equal a scan of its
  workers; the drain check below reads the counters and DARC dispatches
  from the mask, so a desync must fail here rather than as a wrong
  conservation verdict or a dispatch to a busy core.
* **queue-depth** — ``Scheduler.pending_count()`` (the policy's
  ``queued`` counter) is never negative and drop counters never
  decrease.  Every queueing policy exposes ``pending_scan()``, a walk of
  its queues (DARC: its typed queues plus its startup queue; time
  sharing: its central and typed queues; SRPT, SJF, EDF: their heaps),
  and the counter must equal that scan.  A rack's loop-only sanitizer
  (``replicas=``) runs this counter check on every replica.
* **view-error** — given a rack's :class:`~repro.rack.views.QueueViews`
  (``views=``): every replica with no pending load mark has the stored load and ``|view - actual|`` a fresh
  read gives, and the stored errors add up to their total.  A code path
  that moves ``queued + busy`` without a mark fails here instead of as
  a silently wrong ``error_sum``.  The check only reads.
* **request-conservation** (running form) — completions (including late
  completions of orphaned attempts) + drops never exceed arrivals.
* **darc-reservation** — with a :class:`~repro.core.darc.DarcScheduler`
  attached: reserved worker ids are in range, distinct reserved cores
  never exceed the machine, and every request *begins* service on a
  worker its type may use under the reservation in force at begin time
  (typed queues only drain to eligible workers).

Invariants checked when the heap drains
---------------------------------------
* **request-conservation** (drain form) — arrivals == completions (rows
  + late completions of orphaned/duplicated attempts) + drops, with zero
  requests in flight or still queued.  This is the lost-request
  detector: a scheduler that strands a request in a queue no worker may
  serve fails here rather than silently shifting the tail.  When cores
  are still *crashed* at drain time, queued work stranded behind them is
  expected and only the accounting equality is enforced.

Tie-break shadow check (opt-in)
-------------------------------
Constructed with ``shadow_tiebreaks=True``, the sanitizer additionally
watches for *same-timestamp sibling events* — the runtime twin of the
static A001/A002 race analysis in :mod:`repro.analyze.eventflow`.  Using
:meth:`~repro.sim.engine.EventLoop.peek_event` it detects when the event
about to execute ties with the next pending one, snapshots the
observable simulation state around each tied handler, and compares the
handlers' *write sets* (state keys whose values changed, digest-
compared).  Two tied handlers with different callbacks whose write sets
overlap do not observably commute: the run's outcome hangs on heap
insertion order.  Hazards are **recorded**, never raised — shadow mode
must not perturb results — in :attr:`SimSanitizer.tiebreak_hazards`.

Violations raise :class:`~repro.errors.SanitizerViolation` with the
invariant id, the simulation time, and structured context.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..errors import SanitizerViolation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..rack.views import QueueViews
    from ..server.server import Server
    from ..sim.engine import EventLoop
    from ..sim.events import Event


class SimSanitizer:
    """Opt-in runtime checker; attach one per :class:`EventLoop`.

    Example
    -------
    >>> from repro.sim.engine import EventLoop
    >>> loop = EventLoop()
    >>> sanitizer = SimSanitizer()
    >>> sanitizer.attach(loop)
    >>> _ = loop.call_at(1.0, lambda: None)
    >>> _ = loop.run()
    >>> sanitizer.events_checked
    1
    """

    def __init__(
        self,
        server: Optional["Server"] = None,
        shadow_tiebreaks: bool = False,
        replicas: Sequence["Server"] = (),
        views: Optional["QueueViews"] = None,
    ):
        self.server = server
        #: Servers of a rack whose queued counters are checked against
        #: their queues after every event (no other per-server check).
        self.replicas = list(replicas)
        #: The rack's queue views, whose pushed state is checked after
        #: every event (the ``view-error`` invariant).
        self.views = views
        self.loop: Optional["EventLoop"] = None
        #: Number of events the sanitizer has inspected.
        self.events_checked = 0
        #: Total individual invariant checks evaluated (for tests/reports).
        self.checks_run = 0
        self._last_event_time = float("-inf")
        self._last_drops = 0
        # (worker_id -> (rid, reservation identity)) pairs already
        # validated for DARC eligibility; re-validated only when a new
        # request lands on the worker.
        self._validated: Dict[int, Tuple[int, int]] = {}
        #: Whether the tie-break shadow check is on.
        self.shadow_tiebreaks = shadow_tiebreaks
        #: Same-timestamp events inspected by the shadow check.
        self.ties_checked = 0
        #: Recorded (not raised) tie-break hazards: dicts with the tied
        #: handlers, the overlapping state keys, and each side's effect
        #: digest.
        self.tiebreak_hazards: List[dict] = []
        # Current tie group: timestamp + (handler label, write set,
        # effect digest) per already-executed member.
        self._tie_time: Optional[float] = None
        self._tie_members: List[Tuple[str, frozenset, str]] = []
        self._tie_snapshot: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(self, loop: "EventLoop", server: Optional["Server"] = None) -> "SimSanitizer":
        """Hook into ``loop`` (and optionally observe ``server``)."""
        if server is not None:
            self.server = server
        self.loop = loop
        loop.attach_sanitizer(self)
        return self

    # ------------------------------------------------------------------
    # engine callbacks
    # ------------------------------------------------------------------
    def before_event(self, loop: "EventLoop", event: "Event") -> None:
        """Called by the engine just before an event executes."""
        self.checks_run += 1
        if event.time < self._last_event_time:
            self._violate(
                "monotonic-time",
                "event popped earlier than an already-executed event",
                loop,
                {"event_time": event.time, "last_time": self._last_event_time},
            )
        if event.time < loop.now:
            self._violate(
                "monotonic-time",
                "event scheduled in the past slipped into the heap",
                loop,
                {"event_time": event.time, "now": loop.now},
            )
        self._last_event_time = event.time
        if self.shadow_tiebreaks:
            self._shadow_before(loop, event)

    def after_event(self, loop: "EventLoop", event: "Event") -> None:
        """Called by the engine just after an event executes."""
        self.events_checked += 1
        if self.shadow_tiebreaks:
            self._shadow_after(loop, event)
        if self.server is not None:
            self._check_workers(loop)
            self._check_counters(loop)
            self._check_queues(loop)
            self._check_conservation(loop, at_drain=False)
            self._check_darc(loop)
        for replica in self.replicas:
            self._check_queued(loop, replica.scheduler)
        if self.views is not None:
            self._check_views(loop)

    def on_drain(self, loop: "EventLoop") -> None:
        """Called by the engine when the heap empties at the end of run()."""
        if self.server is not None:
            self._check_counters(loop)
            self._check_conservation(loop, at_drain=True)

    # ------------------------------------------------------------------
    # tie-break shadow check
    # ------------------------------------------------------------------
    @staticmethod
    def _handler_label(event: "Event") -> str:
        fn = event.fn
        return getattr(fn, "__qualname__", None) or repr(fn)

    def _observable_state(self, loop: "EventLoop") -> Dict[str, object]:
        """The simulation state a tied handler's effects are judged on.

        Deliberately the *observable* surface — worker occupancy and
        health, queue depth, the recorder's ledgers — not raw object
        identity, so two handlers that touch disjoint observables never
        conflict even if they share containers internally.
        """
        state: Dict[str, object] = {}
        server = self.server
        if server is None:
            return state
        for worker in server.workers:
            wid = worker.worker_id
            current = worker.current
            state[f"w{wid}.current"] = None if current is None else current.rid
            state[f"w{wid}.failed"] = worker.failed
            state[f"w{wid}.speed"] = worker.speed_factor
        state["sched.pending"] = server.scheduler.pending_count()
        recorder = server.recorder
        state["rec.completed"] = recorder.completed
        state["rec.dropped"] = recorder.dropped
        state["rec.late"] = recorder.late_completions
        state["srv.received"] = server.received
        return state

    def _shadow_before(self, loop: "EventLoop", event: "Event") -> None:
        if event.time != self._tie_time:
            # New timestamp: the previous tie group (if any) is closed.
            self._tie_time = event.time
            self._tie_members = []
        nxt = loop.peek_event()
        in_group = bool(self._tie_members) or (
            nxt is not None and nxt.time == event.time
        )
        self._tie_snapshot = self._observable_state(loop) if in_group else None

    def _shadow_after(self, loop: "EventLoop", event: "Event") -> None:
        before = self._tie_snapshot
        if before is None:
            return
        self._tie_snapshot = None
        self.ties_checked += 1
        after = self._observable_state(loop)
        changed = frozenset(
            key
            for key in before.keys() | after.keys()
            if before.get(key) != after.get(key)
        )
        digest = hashlib.sha256(
            "\n".join(
                f"{key}:{before.get(key)!r}->{after.get(key)!r}"
                for key in sorted(changed)
            ).encode("utf-8")
        ).hexdigest()[:16]
        label = self._handler_label(event)
        for other_label, other_writes, other_digest in self._tie_members:
            if other_label == label:
                continue  # order among identical handlers is benign
            overlap = changed & other_writes
            if overlap:
                self.tiebreak_hazards.append(
                    {
                        "time": event.time,
                        "handlers": (other_label, label),
                        "keys": sorted(overlap),
                        "digests": (other_digest, digest),
                    }
                )
        self._tie_members.append((label, changed, digest))

    # ------------------------------------------------------------------
    # the invariants
    # ------------------------------------------------------------------
    def _violate(self, invariant: str, message: str, loop: "EventLoop", context: dict) -> None:
        raise SanitizerViolation(invariant, message, time=loop.now, context=context)

    def _check_workers(self, loop: "EventLoop") -> None:
        self.checks_run += 1
        seen_rids: Dict[int, int] = {}
        for worker in self.server.workers:
            request = worker.current
            if request is None:
                continue
            if request.worker_id != worker.worker_id:
                self._violate(
                    "worker-exclusivity",
                    "in-flight request does not point back at its worker",
                    loop,
                    {"worker": worker.worker_id, "rid": request.rid,
                     "request_worker": request.worker_id},
                )
            if request.rid in seen_rids:
                self._violate(
                    "worker-exclusivity",
                    "one request is in flight on two workers",
                    loop,
                    {"rid": request.rid, "workers": (seen_rids[request.rid], worker.worker_id)},
                )
            seen_rids[request.rid] = worker.worker_id
            if request.finish_time is not None:
                self._violate(
                    "worker-exclusivity",
                    "completed request still occupies a worker",
                    loop,
                    {"rid": request.rid, "worker": worker.worker_id,
                     "finish_time": request.finish_time},
                )
            if worker.failed:
                self._violate(
                    "worker-exclusivity",
                    "crashed worker still holds an in-flight request",
                    loop,
                    {"rid": request.rid, "worker": worker.worker_id},
                )

    def _check_counters(self, loop: "EventLoop") -> None:
        counts = getattr(self.server, "counts", None)
        if counts is None:
            return  # a stub server without worker counters
        self.checks_run += 1
        workers = self.server.workers
        busy = sum(1 for w in workers if w.current is not None)
        failed = sum(1 for w in workers if w.failed)
        free = 0
        for w in workers:
            if w.is_free:
                free |= 1 << w.worker_id
        if counts.busy != busy or counts.failed != failed or counts.free != free:
            self._violate(
                "worker-counters",
                "busy/failed/free worker counters disagree with the workers",
                loop,
                {"busy": counts.busy, "busy_scan": busy,
                 "failed": counts.failed, "failed_scan": failed,
                 "free": bin(counts.free), "free_scan": bin(free)},
            )

    def _check_queues(self, loop: "EventLoop") -> None:
        self._check_queued(loop, self.server.scheduler)
        drops = self.server.recorder.dropped
        if drops < self._last_drops:
            self._violate(
                "queue-depth",
                "drop counter decreased",
                loop,
                {"drops": drops, "previous": self._last_drops},
            )
        self._last_drops = drops

    def _check_queued(self, loop: "EventLoop", scheduler) -> None:
        self.checks_run += 1
        pending = scheduler.pending_count()
        if pending < 0:
            self._violate(
                "queue-depth",
                "scheduler reports a negative queue depth",
                loop,
                {"pending": pending},
            )
        pending_scan = getattr(scheduler, "pending_scan", None)
        if pending_scan is not None:
            scanned = pending_scan()
            if pending != scanned:
                self._violate(
                    "queue-depth",
                    "pending counter disagrees with a scan of the queues",
                    loop,
                    {"pending": pending, "pending_scan": scanned},
                )

    def _check_views(self, loop: "EventLoop") -> None:
        self.checks_run += 1
        drift = self.views.error_drift()
        if drift:
            replica, stored, actual = drift[0]
            self._violate(
                "view-error",
                "a replica's load moved without a mark to its queue views",
                loop,
                {"replica": replica, "stored": stored, "actual": actual},
            )

    def _check_conservation(self, loop: "EventLoop", at_drain: bool) -> None:
        self.checks_run += 1
        server = self.server
        received = server.received
        # Late completions are server-side finishes of attempts the
        # resilience layer had already orphaned (timeout) or never sent
        # (network duplicates); they produce no completion row but are
        # part of the attempt ledger.
        completed = server.recorder.completed + server.recorder.late_completions
        dropped = server.recorder.dropped
        if completed + dropped > received:
            self._violate(
                "request-conservation",
                "more requests completed+dropped than ever arrived",
                loop,
                {"received": received, "completed": completed, "dropped": dropped},
            )
        if at_drain:
            in_flight = server.in_flight
            pending = server.pending
            if completed + dropped + in_flight + pending != received:
                self._violate(
                    "request-conservation",
                    "requests lost at drain: arrivals != completions + drops",
                    loop,
                    {"received": received, "completed": completed,
                     "dropped": dropped, "in_flight": in_flight, "pending": pending},
                )
            if (in_flight or pending) and server.failed_workers == 0:
                # With crashed cores still down, queued work stranded
                # behind them is accounted for above and expected here.
                self._violate(
                    "request-conservation",
                    "event heap drained with work still in the system",
                    loop,
                    {"in_flight": in_flight, "pending": pending},
                )

    def _check_darc(self, loop: "EventLoop") -> None:
        scheduler = self.server.scheduler
        if not hasattr(scheduler, "worker_may_serve"):
            return
        reservation = getattr(scheduler, "reservation", None)
        if reservation is None:
            # c-FCFS startup window: any worker may serve any type.
            # Record placements so a later reservation install does not
            # retroactively judge requests begun before it existed.
            for worker in self.server.workers:
                if worker.current is None:
                    self._validated.pop(worker.worker_id, None)
                else:
                    self._validated[worker.worker_id] = (worker.current.rid, 0)
            return
        self.checks_run += 1
        n_workers = len(self.server.workers)
        # During a total outage the stale reservation is inert (no core
        # is ever free), so only judge it while someone could dispatch.
        any_alive = any(not w.failed for w in self.server.workers)
        reserved_ids = set()
        for alloc in reservation.allocations:
            for widx in alloc.reserved:
                if not 0 <= widx < n_workers:
                    self._violate(
                        "darc-reservation",
                        "reservation names a worker outside the machine",
                        loop,
                        {"worker": widx, "n_workers": n_workers},
                    )
                if any_alive and self.server.workers[widx].failed:
                    self._violate(
                        "darc-reservation",
                        "reservation names a crashed worker (its typed "
                        "queues would strand)",
                        loop,
                        {"worker": widx},
                    )
                reserved_ids.add(widx)
        if len(reserved_ids) > n_workers:
            self._violate(
                "darc-reservation",
                "distinct reserved cores exceed total cores",
                loop,
                {"reserved": len(reserved_ids), "n_workers": n_workers},
            )
        reservation_key = id(reservation)
        for worker in self.server.workers:
            request = worker.current
            if request is None:
                self._validated.pop(worker.worker_id, None)
                continue
            mark = (request.rid, reservation_key)
            if self._validated.get(worker.worker_id) == mark:
                continue
            previous = self._validated.get(worker.worker_id)
            if previous is not None and previous[0] == request.rid:
                # Same request, reservation replaced mid-service: its
                # placement was legal when it began; do not re-judge.
                self._validated[worker.worker_id] = mark
                continue
            type_id = request.effective_type()
            if not scheduler.worker_may_serve(worker.worker_id, type_id):
                self._violate(
                    "darc-reservation",
                    "typed queue drained to a worker its type may not use",
                    loop,
                    {"worker": worker.worker_id, "rid": request.rid, "type": type_id},
                )
            self._validated[worker.worker_id] = mark

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SimSanitizer(events_checked={self.events_checked}, "
            f"checks_run={self.checks_run})"
        )
