"""Scheduler interface and policy metadata.

Every scheduling policy implements :class:`Scheduler`.  The server calls
``on_request`` when a request reaches the dispatcher and the base class
routes completions back through ``on_worker_free``.  Non-preemptive
policies only ever use :meth:`Scheduler.begin_service`; preemptive ones
(time sharing) manage their own slice events.

:class:`PolicyTraits` captures the taxonomy of Table 1 / Table 5 so the
table-reproduction benchmarks can generate those rows from code instead
of hand-writing them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import SchedulingError
from ..server.worker import Worker, WorkerCounts, shared_counts
from ..sim.engine import EventLoop, bind_hooks
from ..sim.events import Event
from ..workload.request import Request

CompletionCallback = Callable[[Request], None]
DropCallback = Callable[[Request], None]

#: The observer hooks a scheduler's sites call (see :func:`bind_hooks`).
SCHEDULER_HOOKS = (
    "on_dispatch", "on_complete", "on_drop", "on_evict",
    "on_preempt", "on_steal", "on_reservation",
)


@dataclass(frozen=True)
class PolicyTraits:
    """Taxonomy bits from the paper's Table 1 and Table 5."""

    name: str
    app_aware: bool
    typed_queues: bool
    work_conserving: bool
    preemptive: bool
    prevents_hol_blocking: bool
    ideal_workload: str = ""
    example_system: str = ""
    comments: str = ""


class Scheduler(ABC):
    """Base class for all scheduling policies.

    Lifecycle: construct, then :meth:`bind` to an event loop and worker
    set, then feed requests via :meth:`on_request`.  ``on_complete`` /
    ``on_drop`` callbacks go to the metrics recorder.
    """

    traits: PolicyTraits

    def __init__(self) -> None:
        self.loop: Optional[EventLoop] = None
        self.workers: List[Worker] = []
        #: Busy/crashed tally shared by the bound workers: the number of
        #: free cores is ``size - busy - failed``, an O(1) read.
        self.counts: Optional[WorkerCounts] = None
        #: Requests queued (not being served), bumped by the policy at
        #: every enqueue and dequeue.  Rack views read it as a plain
        #: attribute on every routing decision, DARC's CPU-waste
        #: accounting on every event.
        self.queued = 0
        self._on_complete: Optional[CompletionCallback] = None
        self._on_drop: Optional[DropCallback] = None
        self._bound = False
        #: Attached observers (a Tracer, a TelemetryProbe, ...), in
        #: attach order.
        self.observers: Tuple[Any, ...] = ()
        # One slot per hook in SCHEDULER_HOOKS: None while unobserved.
        self._dispatch_hooks = self._complete_hooks = self._drop_hooks = None
        self._evict_hooks = self._preempt_hooks = self._steal_hooks = None
        self._reservation_hooks = None
        #: worker_id -> the pending service event (completion, quantum
        #: boundary, ...) for the request currently on that core.  Fault
        #: injection cancels this event when the core crashes mid-service.
        self._service_events: Dict[int, Event] = {}

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def bind(
        self,
        loop: EventLoop,
        workers: List[Worker],
        on_complete: CompletionCallback,
        on_drop: Optional[DropCallback] = None,
    ) -> None:
        """Attach the policy to its execution environment."""
        if self._bound:
            raise SchedulingError(f"{type(self).__name__} already bound")
        if not workers:
            raise SchedulingError("need at least one worker")
        if type(self).pending_count is not Scheduler.pending_count:
            # Rack views read ``queued`` directly: a policy that only
            # overrides pending_count() would look empty to them.
            raise SchedulingError(
                f"{type(self).__name__} overrides pending_count(); "
                "keep Scheduler.queued instead"
            )
        if any(worker.bit != 1 << i for i, worker in enumerate(workers)):
            # first_free_worker indexes the list by free-mask bit.
            raise SchedulingError("worker i must have worker_id i")
        self.loop = loop
        self.workers = workers
        self.counts = shared_counts(workers)
        self._on_complete = on_complete
        self._on_drop = on_drop
        self._bound = True
        self.on_bound()

    def watch_sinks(self, listener) -> None:
        """Call ``listener()`` before each completion or drop is passed
        to its sink (a rack's load marks, :meth:`Server.watch_load`), so
        a sink that routes more work sees the mark already raised."""
        complete = self._on_complete
        drop = self._on_drop

        def on_complete(request: Request) -> None:
            listener()
            if complete is not None:
                complete(request)

        def on_drop(request: Request) -> None:
            listener()
            if drop is not None:
                drop(request)

        self._on_complete = on_complete
        self._on_drop = on_drop

    def on_bound(self) -> None:
        """Hook for subclasses to build per-worker state after binding."""

    def attach_observer(self, observer) -> None:
        """Bind each of ``observer``'s :data:`SCHEDULER_HOOKS` to its
        site; every attached observer defining a hook gets every call.

        Subclasses with additional observable components (DARC's
        classifier) override this to forward the observer to them.
        """
        self.observers += (observer,)
        bind_hooks(self, observer, SCHEDULER_HOOKS)

    # ------------------------------------------------------------------
    # the policy surface
    # ------------------------------------------------------------------
    @abstractmethod
    def on_request(self, request: Request) -> None:
        """A request reached the dispatcher; enqueue and/or dispatch it."""

    @abstractmethod
    def on_worker_free(self, worker: Worker) -> None:
        """``worker`` finished a request; give it more work if any."""

    def pending_count(self) -> int:
        """Number of requests currently queued (not being served): the
        :attr:`queued` counter.  Policies keep the counter rather than
        override this."""
        return self.queued

    # ------------------------------------------------------------------
    # service helpers for non-preemptive policies
    # ------------------------------------------------------------------
    def schedule_service_event(
        self, worker: Worker, delay: float, fn: Callable[..., Any], *args: Any
    ) -> Event:
        """Schedule a service-lifecycle event for ``worker`` and remember
        it so a crash can cancel it.  All policies must book the events
        that advance an in-flight request through this helper."""
        assert self.loop is not None
        event = self.loop.call_after(delay, fn, *args)
        self._service_events[worker.worker_id] = event
        return event

    def begin_service(self, worker: Worker, request: Request) -> None:
        """Run ``request`` to completion on ``worker`` (non-preemptive)."""
        assert self.loop is not None
        now = self.loop.now
        request.dispatch_time = now
        worker.begin(request, now)
        if self._dispatch_hooks is not None:
            for hook in self._dispatch_hooks:
                hook(request, worker, now)
        occupancy = request.remaining_time * worker.speed_factor
        if worker.speed_factor != 1.0:
            # A straggling core holds the request longer than its nominal
            # service time; the surplus is degradation, not useful work.
            request.overhead_time += occupancy - request.remaining_time
        self.schedule_service_event(worker, occupancy, self._complete, worker, request)

    def _complete(self, worker: Worker, request: Request, overhead: float = 0.0) -> None:
        """``request`` finished on ``worker``; ``overhead`` is the part of
        its occupancy that was scheduling cost (a steal's)."""
        assert self.loop is not None
        now = self.loop.now
        self._service_events.pop(worker.worker_id, None)
        worker.end(now, overhead)
        worker.completed += 1
        request.remaining_time = 0.0
        request.finish_time = now
        if self._complete_hooks is not None:
            for hook in self._complete_hooks:
                hook(request, worker, now)
        if self._on_complete is not None:
            self._on_complete(request)
        self.completion_hook(worker, request)
        self.on_worker_free(worker)

    def completion_hook(self, worker: Worker, request: Request) -> None:
        """Subclass hook invoked on completion before the worker is reused
        (DARC uses it for profiling)."""

    def drop(self, request: Request) -> None:
        """Flow control: reject ``request`` (bounded queue overflow)."""
        request.dropped = True
        if self._drop_hooks is not None:
            for hook in self._drop_hooks:
                hook(request)
        if self._on_drop is not None:
            self._on_drop(request)

    # ------------------------------------------------------------------
    # fault handling (repro.faults drives these)
    # ------------------------------------------------------------------
    def on_worker_crash(self, worker: Worker, requeue: bool = True) -> Optional[Request]:
        """``worker`` died.  Abort its in-flight request (progress is
        lost), then requeue the victim through the normal arrival path or
        drop it, per policy.  Returns the victim, if any.

        Subclasses with extra per-worker service state (e.g. overdue
        timers) must clear it before delegating here.
        """
        assert self.loop is not None
        victim: Optional[Request] = None
        if worker.current is not None:
            event = self._service_events.pop(worker.worker_id, None)
            if event is not None:
                event.cancel()
            victim = worker.end(self.loop.now)
            if self._evict_hooks is not None:
                for hook in self._evict_hooks:
                    hook(victim, worker, requeue)
            # The crashed attempt is wasted occupancy, not service.
            victim.worker_id = None
            victim.dispatch_time = None
            victim.remaining_time = victim.service_time
        worker.fail()
        self.on_capacity_change()
        if victim is not None:
            if requeue:
                self.on_request(victim)
            else:
                self.drop(victim)
        return victim

    def on_worker_recover(self, worker: Worker) -> None:
        """A crashed core came back (clean restart, full speed)."""
        if not worker.failed:
            return
        worker.recover()
        self.on_capacity_change()
        self.on_worker_free(worker)

    def on_worker_speed(self, worker: Worker) -> None:
        """Hook: fault injection just changed ``worker.speed_factor``.

        Policies read the factor when they book service, so the default
        reaction is nothing.  A policy that has computed service ahead of
        time at the old factor (time sharing's settled hand-backs)
        overrides this to stop doing so from now on.
        """

    def settle(self) -> None:
        """Bring any state the policy updates in bulk up to ``loop.now``.

        Runners call this when :meth:`EventLoop.run` returns, before
        anything reads worker or policy accounting.  The default policy
        keeps no deferred state.
        """

    def on_capacity_change(self) -> None:
        """Hook: the set of usable workers changed (crash/recover).

        The default policy reaction is nothing — dead cores are skipped
        because they are never free.  Capacity-aware policies (DARC)
        override this to re-partition the surviving cores.
        """

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------
    def first_free_worker(self) -> Optional[Worker]:
        """The free worker with the lowest id, read from the free mask
        (:meth:`bind` checks that worker ``i`` owns bit ``i``)."""
        free = self.counts.free
        if not free:
            return None
        return self.workers[(free & -free).bit_length() - 1]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(workers={len(self.workers)})"
