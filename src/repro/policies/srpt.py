"""Preemptive Shortest-Remaining-Processing-Time (Table 5).

SRPT is optimal for *mean* response time [Schrage 1968] and is what the
datacenter-transport works the paper builds on (pFabric, Homa)
approximate in the network.  A CPU cannot implement it at microsecond
scale — it needs exact remaining times and free preemption — so this is
an *oracle upper bound*: the extension benchmark measures how close DARC
gets without preemption or clairvoyance.

``preempt_cost_us`` optionally charges each preemption, turning the
oracle into "SRPT with real interrupts" for the same study as Fig. 10.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..server.worker import Worker
from ..workload.request import Request
from .base import PolicyTraits, Scheduler


class ShortestRemainingProcessingTime(Scheduler):
    """Preemptive SRPT with exact (oracle) remaining times."""

    traits = PolicyTraits(
        name="SRPT",
        app_aware=True,
        typed_queues=False,
        work_conserving=True,
        preemptive=True,
        prevents_hol_blocking=True,
        ideal_workload="Heavy-tailed",
        example_system="pFabric/Homa (network)",
        comments="Oracle; can starve long RPCs",
    )

    def __init__(self, preempt_cost_us: float = 0.0):
        super().__init__()
        if preempt_cost_us < 0:
            raise ConfigurationError(f"preempt_cost_us must be >= 0, got {preempt_cost_us}")
        self.preempt_cost_us = preempt_cost_us
        self.preemptions = 0
        self._heap: List[Tuple[float, int, Request]] = []
        #: worker_id -> (request, slice_start, finish_event)
        self._running: Dict[int, Tuple[Request, float, object]] = {}

    # ------------------------------------------------------------------
    # queue helpers
    # ------------------------------------------------------------------
    def _push(self, request: Request) -> None:
        heapq.heappush(self._heap, (request.remaining_time, request.rid, request))
        self.queued += 1

    def _pop(self) -> Optional[Request]:
        if not self._heap:
            return None
        self.queued -= 1
        return heapq.heappop(self._heap)[2]

    def pending_scan(self) -> int:
        """The heap's length: the sanitizer's reference for :attr:`queued`."""
        return len(self._heap)

    def _longest_running(self) -> Optional[int]:
        """Worker running the request with the most remaining time."""
        best_wid = None
        best_remaining = -1.0
        now = self.loop.now
        for wid, (request, start, _) in self._running.items():
            remaining = request.remaining_time - (now - start)
            if remaining > best_remaining:
                best_remaining = remaining
                best_wid = wid
        return best_wid

    # ------------------------------------------------------------------
    # event handling
    # ------------------------------------------------------------------
    def on_request(self, request: Request) -> None:
        worker = self.first_free_worker()
        if worker is not None:
            self._start(worker, request)
            return
        # All busy: preempt iff the newcomer beats the worst running
        # request's *remaining* time.
        victim_wid = self._longest_running()
        if victim_wid is not None:
            victim, start, finish_event = self._running[victim_wid]
            victim_remaining = victim.remaining_time - (self.loop.now - start)
            if request.remaining_time < victim_remaining:
                # Queue the newcomer first: zero-cost preemption refills
                # the freed worker synchronously from the heap.
                self._push(request)
                self._preempt(victim_wid)
                return
        self._push(request)

    def _preempt(self, worker_id: int) -> None:
        request, start, finish_event = self._running.pop(worker_id)
        finish_event.cancel()
        worker = self.workers[worker_id]
        now = self.loop.now
        consumed = now - start
        request.remaining_time -= consumed
        request.preemption_count += 1
        self.preemptions += 1
        cost = self.preempt_cost_us
        if cost > 0:
            request.overhead_time += cost
            self.schedule_service_event(worker, cost, self._preempt_done, worker, request, cost)
        else:
            self._preempt_done(worker, request, 0.0)

    def _preempt_done(self, worker: Worker, request: Request, cost: float) -> None:
        """The core is released after ``cost`` of preemption overhead."""
        worker.end(self.loop.now, overhead=cost)
        if self._preempt_hooks is not None:
            for hook in self._preempt_hooks:
                hook(request, worker, cost)
        self._push(request)
        self.on_worker_free(worker)

    def _start(self, worker: Worker, request: Request) -> None:
        now = self.loop.now
        if request.dispatch_time is None:
            request.dispatch_time = now
        worker.begin(request, now)
        if self._dispatch_hooks is not None:
            for hook in self._dispatch_hooks:
                hook(request, worker, now)
        finish_event = self.schedule_service_event(
            worker, request.remaining_time, self._finish, worker, request
        )
        self._running[worker.worker_id] = (request, now, finish_event)

    def on_worker_crash(self, worker: Worker, requeue: bool = True):
        """Crash: drop the running-bookkeeping entry; the base class
        cancels the registered finish event and evicts the request."""
        self._running.pop(worker.worker_id, None)
        return super().on_worker_crash(worker, requeue=requeue)

    def _finish(self, worker: Worker, request: Request) -> None:
        self._running.pop(worker.worker_id, None)
        self._complete(worker, request)

    def on_worker_free(self, worker: Worker) -> None:
        if not worker.is_free:
            return
        request = self._pop()
        if request is not None:
            self._start(worker, request)
