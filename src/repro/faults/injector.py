"""Fault injector — arms a :class:`~repro.faults.plan.FaultPlan` against
a live server.

Worker faults are scheduled as ordinary event-loop callbacks at their
plan times, so they interleave deterministically with the workload.
Packet faults interpose on the ingress path: the injector sits between
the generator (or resilience client) and ``server.ingress`` and consults
its active drop/duplicate windows for every arriving request, drawing
from a dedicated rng stream so packet chaos is seed-reproducible and
never perturbs the workload's own streams.

With an empty plan the injector schedules nothing and its ingress is a
pure passthrough — zero simulated side effects, zero rng draws, so runs
are bit-identical to un-instrumented ones.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..server.server import Server
from ..sim.engine import EventLoop, bind_hooks
from ..workload.request import Request
from .plan import (
    FaultPlan,
    PacketDrop,
    PacketDup,
    WorkerCrash,
    WorkerRecover,
    WorkerSlowdown,
)

#: Duplicate deliveries get rids far above any generator-assigned rid so
#: they never collide with real requests or retry attempts.
DUP_RID_BASE = 1 << 30


class FaultInjector:
    """Executes a fault plan against one server on one event loop."""

    def __init__(self, plan: FaultPlan, rng: Optional[np.random.Generator] = None):
        if plan.needs_rng and rng is None:
            raise ConfigurationError(
                "this plan has probabilistic packet faults and needs an rng "
                "stream (e.g. rngs.stream('faults.net'))"
            )
        self.plan = plan
        self.rng = rng
        self._drop_windows: List[PacketDrop] = [
            e for e in plan.events if isinstance(e, PacketDrop)
        ]
        self._dup_windows: List[PacketDup] = [
            e for e in plan.events if isinstance(e, PacketDup)
        ]
        self._loop: Optional[EventLoop] = None
        self._server: Optional[Server] = None
        self._sink = None
        self._armed = False
        self._dup_seq = 0
        #: ``on_fault`` hook slot, bound by :meth:`attach_observer`.
        self._fault_hooks = None

        #: Chronological record of injected faults: (time, kind, detail).
        self.log: List[Tuple[float, str, int]] = []
        self.crashes = 0
        self.recoveries = 0
        self.slowdowns = 0
        #: In-flight requests evicted by crashes, split by fate.
        self.requeued = 0
        self.dropped_in_flight = 0
        #: Ingress packets lost / duplicated by the network windows.
        self.packets_dropped = 0
        self.packets_duplicated = 0

    # ------------------------------------------------------------------
    # arming
    # ------------------------------------------------------------------
    def arm(self, loop: EventLoop, server: Server) -> None:
        """Schedule every worker fault and attach to ``server``'s ingress."""
        if self._armed:
            raise ConfigurationError("injector already armed")
        self.plan.validate(len(server.workers))
        self._loop = loop
        self._server = server
        self._sink = server.ingress
        self._armed = True
        for event in self.plan.events:
            if isinstance(event, WorkerCrash):
                loop.call_at(event.at, self._crash, event)
            elif isinstance(event, WorkerRecover):
                # Tie-break: every fault is booked here, before any load
                # is offered, so at one instant faults run in plan order
                # and ahead of every policy event booked later.  Against
                # a completion, the only shared write is the free-core
                # mask, and the two writes flip different cores' bits (a
                # crashed core holds no request), so they commute.
                loop.call_at(event.at, self._recover, event)  # repro-analyze: disable=A002
            elif isinstance(event, WorkerSlowdown):
                # Tie-break as above: faults run ahead of every policy
                # event at their instant.  A speed change is read by the
                # slices booked after it, and a policy that books ahead
                # (time sharing's lazy hand-backs) settles its laps as of
                # an event booked before any of them
                # (Scheduler.on_worker_speed).
                loop.call_at(event.at, self._slowdown_start, event)  # repro-analyze: disable=A002
                if event.until is not None:
                    loop.call_at(event.until, self._slowdown_end, event)  # repro-analyze: disable=A002
            # Packet windows are consulted per-arrival in ingress().

    def attach_observer(self, observer) -> None:
        """Feed fault events to ``observer``'s ``on_fault`` hook (a
        tracer books them in its decision log)."""
        bind_hooks(self, observer, ("on_fault",))

    def _book(self, now: float, kind: str, detail: int, **payload) -> None:
        """Log one injected fault and report it to the observers."""
        self.log.append((now, kind, detail))
        if self._fault_hooks is not None:
            for hook in self._fault_hooks:
                hook(kind, **payload)

    # ------------------------------------------------------------------
    # worker faults
    # ------------------------------------------------------------------
    def _crash(self, event: WorkerCrash) -> None:
        assert self._server is not None and self._loop is not None
        worker = self._server.workers[event.worker_id]
        if worker.failed:
            return  # already down; crashing a corpse is a no-op
        victim = self._server.scheduler.on_worker_crash(worker, requeue=event.requeue)
        self.crashes += 1
        if victim is not None:
            if event.requeue:
                self.requeued += 1
            else:
                self.dropped_in_flight += 1
        self._book(
            self._loop.now,
            "crash",
            event.worker_id,
            worker=event.worker_id,
            victim_rid=None if victim is None else victim.rid,
            requeue=event.requeue,
        )

    def _recover(self, event: WorkerRecover) -> None:
        assert self._server is not None and self._loop is not None
        worker = self._server.workers[event.worker_id]
        if not worker.failed:
            return
        self._server.scheduler.on_worker_recover(worker)
        self.recoveries += 1
        self._book(self._loop.now, "recover", event.worker_id, worker=event.worker_id)

    def _slowdown_start(self, event: WorkerSlowdown) -> None:
        assert self._server is not None and self._loop is not None
        worker = self._server.workers[event.worker_id]
        worker.set_speed(event.factor)
        self._server.scheduler.on_worker_speed(worker)
        self.slowdowns += 1
        self._book(
            self._loop.now, "slowdown", event.worker_id, worker=event.worker_id, factor=event.factor
        )

    def _slowdown_end(self, event: WorkerSlowdown) -> None:
        assert self._server is not None and self._loop is not None
        worker = self._server.workers[event.worker_id]
        # A crash+recover inside the window already reset the factor;
        # restoring to full speed twice is harmless.
        worker.set_speed(1.0)
        self._server.scheduler.on_worker_speed(worker)
        self._book(self._loop.now, "slowdown-end", event.worker_id, worker=event.worker_id)

    # ------------------------------------------------------------------
    # packet faults (the ingress interposition point)
    # ------------------------------------------------------------------
    def ingress(self, request: Request) -> None:
        """Deliver ``request`` to the server, subject to the plan's
        network windows.  Use this as the generator/client sink."""
        assert self._armed and self._loop is not None and self._sink is not None
        now = self._loop.now
        for window in self._drop_windows:
            if window.active(now) and self.rng.random() < window.probability:
                self.packets_dropped += 1
                self._book(now, "packet-drop", request.rid, rid=request.rid)
                return  # lost on the wire; only a client timeout rescues it
        self._sink(request)
        for window in self._dup_windows:
            if window.active(now) and self.rng.random() < window.probability:
                dup = Request(
                    rid=DUP_RID_BASE + self._dup_seq,
                    type_id=request.type_id,
                    arrival_time=now,
                    service_time=request.service_time,
                )
                dup.retry_of = request.rid
                self._dup_seq += 1
                self.packets_duplicated += 1
                self._book(now, "packet-dup", request.rid, rid=request.rid, dup_rid=dup.rid)
                self._sink(dup)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def counters(self) -> dict:
        """Injection totals, for reports and JSON artifacts."""
        return {
            "crashes": self.crashes,
            "recoveries": self.recoveries,
            "slowdowns": self.slowdowns,
            "requeued": self.requeued,
            "dropped_in_flight": self.dropped_in_flight,
            "packets_dropped": self.packets_dropped,
            "packets_duplicated": self.packets_duplicated,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FaultInjector({self.plan.describe()}, armed={self._armed})"
