"""DARC-static — the manually-tuned variant of §5.3 (Fig. 4).

"DARC-static" reserves a fixed number of workers for the *shortest* type:
short requests are scheduled first and may run on **all** cores; longer
requests are excluded from the reserved cores.  ``n_reserved = 0``
degenerates to plain Fixed Priority (work conserving), and large
``n_reserved`` starves long requests — exactly the trade-off Fig. 4 maps
out to validate DARC's automatic choice.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence

from ..errors import ConfigurationError, SchedulingError
from ..policies.base import PolicyTraits, Scheduler
from ..server.worker import Worker
from ..workload.request import Request, RequestTypeSpec


class DarcStatic(Scheduler):
    """Fixed reservation for the shortest type; priority to short requests."""

    traits = PolicyTraits(
        name="DARC-static",
        app_aware=True,
        typed_queues=True,
        work_conserving=False,
        preemptive=False,
        prevents_hol_blocking=True,
        ideal_workload="Heavy-tailed with a known stable mix",
        example_system="Perséphone (§5.3)",
        comments="Manual reservation; validates DARC's automatic choice",
    )

    def __init__(self, type_specs: Sequence[RequestTypeSpec], n_reserved: int):
        super().__init__()
        if n_reserved < 0:
            raise ConfigurationError(f"n_reserved must be >= 0, got {n_reserved}")
        if not type_specs:
            raise ConfigurationError("need at least one type spec")
        self.n_reserved = n_reserved
        ordered = sorted(type_specs, key=lambda s: s.mean_service_time)
        #: Type ids ascending by mean service time; index 0 is "short".
        self.priority_order: List[int] = [s.type_id for s in ordered]
        self.short_type = self.priority_order[0]
        self.queues: Dict[int, Deque[Request]] = {
            s.type_id: deque() for s in type_specs
        }

    def on_bound(self) -> None:
        if self.n_reserved >= len(self.workers) and len(self.priority_order) > 1:
            raise ConfigurationError(
                f"n_reserved={self.n_reserved} leaves no workers for long "
                f"requests out of {len(self.workers)}"
            )
        #: Workers longer types may use (the non-reserved suffix), and
        #: the reserved prefix — both sliced once here so the per-request
        #: path never copies the worker list.
        self.shared_workers: List[Worker] = self.workers[self.n_reserved :]
        self.reserved_workers: List[Worker] = self.workers[: self.n_reserved]

    def _queue_for(self, request: Request) -> Deque[Request]:
        tid = request.effective_type()
        queue = self.queues.get(tid)
        if queue is None:
            raise SchedulingError(f"request {request.rid} has unregistered type {tid}")
        return queue

    def on_request(self, request: Request) -> None:
        tid = request.effective_type()
        if tid == self.short_type:
            # Short requests may use every core, reserved ones first so
            # shared cores stay open for long requests.
            if not self.queues[tid]:
                for worker in self.reserved_workers:
                    if worker.is_free:
                        self.begin_service(worker, request)
                        return
                for worker in self.shared_workers:
                    if worker.is_free:
                        self.begin_service(worker, request)
                        return
            self.queues[tid].append(request)
            self.queued += 1
        else:
            if not self._longer_pending(tid):
                for worker in self.shared_workers:
                    if worker.is_free:
                        self.begin_service(worker, request)
                        return
            self.queues[tid].append(request)
            self.queued += 1

    def _longer_pending(self, tid: int) -> bool:
        """True if any same-or-higher-priority request is already queued
        (dispatching around it would violate priority order)."""
        for other in self.priority_order:
            if self.queues[other]:
                return True
            if other == tid:
                return False
        return False

    def on_worker_free(self, worker: Worker) -> None:
        reserved = worker.worker_id < self.n_reserved
        if reserved:
            queue = self.queues[self.short_type]
            if queue:
                request = queue.popleft()
                self.queued -= 1
                self.begin_service(worker, request)
            return
        for tid in self.priority_order:
            queue = self.queues[tid]
            if queue:
                request = queue.popleft()
                self.queued -= 1
                self.begin_service(worker, request)
                return

    def pending_scan(self) -> int:
        """A walk of the queues: the sanitizer's reference for :attr:`queued`."""
        return sum(len(q) for q in self.queues.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DarcStatic(n_reserved={self.n_reserved})"
