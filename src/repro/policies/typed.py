"""Type-aware non-preemptive baselines from Table 5.

These policies know the per-type mean service times up front (ground
truth from the workload spec) — the "oracle" configuration the paper's
Table 5 discusses.  DARC in :mod:`repro.core` instead *learns* the same
information online.

* :class:`FixedPriority` — strict priority by ascending mean service time,
  fully work conserving (DARC-static with 0 reserved cores, §5.3).
* :class:`ShortestJobFirst` — non-preemptive SJF on actual service times.
* :class:`EarliestDeadlineFirst` — deadline = arrival + factor * type mean.
* :class:`DeficitRoundRobin` — fair sharing across typed queues.
* :class:`StaticPartitioning` — hard per-type worker partitions, no
  stealing, no work conservation.
* :class:`CSCQ` — cycle stealing with central queue [42]: two classes,
  the short class may steal the long class's workers, never the reverse.
"""

from __future__ import annotations

import heapq
from abc import abstractmethod
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, SchedulingError
from ..server.worker import Worker
from ..workload.request import Request, RequestTypeSpec
from .base import PolicyTraits, Scheduler


def _specs_by_id(type_specs: Sequence[RequestTypeSpec]) -> Dict[int, RequestTypeSpec]:
    by_id = {spec.type_id: spec for spec in type_specs}
    if len(by_id) != len(type_specs):
        raise ConfigurationError("duplicate type ids in type_specs")
    return by_id


class FixedPriority(Scheduler):
    """Strict non-preemptive priority: shortest mean service time first.

    Work conserving: any idle worker takes the highest-priority pending
    request.  Equivalent to DARC-static with zero reserved cores.
    """

    traits = PolicyTraits(
        name="FP",
        app_aware=True,
        typed_queues=True,
        work_conserving=True,
        preemptive=False,
        prevents_hol_blocking=False,
        ideal_workload="Request priority independent of service time",
        example_system="",
        comments="Inflexible with rapid workload changes",
    )

    def __init__(self, type_specs: Sequence[RequestTypeSpec]):
        super().__init__()
        self._specs = _specs_by_id(type_specs)
        #: Type ids in priority order (ascending mean service time).
        self.priority_order = [
            spec.type_id
            for spec in sorted(type_specs, key=lambda s: s.mean_service_time)
        ]
        self.queues: Dict[int, Deque[Request]] = {
            tid: deque() for tid in self.priority_order
        }

    def _queue_for(self, request: Request) -> Deque[Request]:
        tid = request.effective_type()
        queue = self.queues.get(tid)
        if queue is None:
            raise SchedulingError(f"request {request.rid} has unregistered type {tid}")
        return queue

    def on_request(self, request: Request) -> None:
        worker = self.first_free_worker()
        if worker is not None and not self.queued:
            self.begin_service(worker, request)
            return
        self._queue_for(request).append(request)
        self.queued += 1
        if worker is not None:
            self.on_worker_free(worker)

    def on_worker_free(self, worker: Worker) -> None:
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


class _KeyedHeap(Scheduler):
    """Non-preemptive service in ascending ``_key(request)`` order, ties
    broken by request id (FIFO); SJF and EDF differ only in the key."""

    def __init__(self) -> None:
        super().__init__()
        self._heap: List[Tuple[float, int, Request]] = []

    @abstractmethod
    def _key(self, request: Request) -> float:
        """Heap order: smaller keys are served first."""

    def on_request(self, request: Request) -> None:
        worker = self.first_free_worker()
        if worker is not None and not self._heap:
            self.begin_service(worker, request)
            return
        heapq.heappush(self._heap, (self._key(request), request.rid, request))
        self.queued += 1
        if worker is not None:
            self.on_worker_free(worker)

    def on_worker_free(self, worker: Worker) -> None:
        if self._heap:
            _, _, request = heapq.heappop(self._heap)
            self.queued -= 1
            self.begin_service(worker, request)

    def pending_scan(self) -> int:
        """The heap's length: the sanitizer's reference for :attr:`queued`."""
        return len(self._heap)


class ShortestJobFirst(_KeyedHeap):
    """Non-preemptive SJF using the request's actual service time.

    This is an oracle policy (real schedulers cannot see exact service
    times, §1) included as an upper-bound comparison point.
    """

    traits = PolicyTraits(
        name="SJF",
        app_aware=True,
        typed_queues=False,
        work_conserving=True,
        preemptive=False,
        prevents_hol_blocking=False,
        ideal_workload="Custom",
        example_system="",
        comments="Needs exact service times (oracle here)",
    )

    def _key(self, request: Request) -> float:
        return request.service_time


class EarliestDeadlineFirst(_KeyedHeap):
    """Non-preemptive EDF with per-type relative deadlines.

    Each request's deadline is ``arrival + deadline_factor * type_mean`` —
    i.e. a slowdown-style SLO.  Ties break FIFO.
    """

    traits = PolicyTraits(
        name="EDF",
        app_aware=True,
        typed_queues=False,
        work_conserving=True,
        preemptive=False,
        prevents_hol_blocking=False,
        ideal_workload="Request priority independent of service time",
        example_system="",
        comments="Can lead to priority inversion",
    )

    def __init__(self, type_specs: Sequence[RequestTypeSpec], deadline_factor: float = 10.0):
        super().__init__()
        if deadline_factor <= 0:
            raise ConfigurationError(f"deadline_factor must be > 0, got {deadline_factor}")
        self._specs = _specs_by_id(type_specs)
        self.deadline_factor = deadline_factor

    def _key(self, request: Request) -> float:
        """The request's deadline."""
        spec = self._specs.get(request.effective_type())
        mean = spec.mean_service_time if spec else request.service_time
        return request.arrival_time + self.deadline_factor * mean


class DeficitRoundRobin(Scheduler):
    """Deficit round robin across typed queues (Table 5's (D)(W)RR row).

    Each typed queue accumulates ``quantum_us`` of deficit per visit and
    may dispatch while its head's service time fits in the deficit.
    Weights scale each queue's quantum.
    """

    traits = PolicyTraits(
        name="DRR",
        app_aware=True,
        typed_queues=True,
        work_conserving=True,
        preemptive=False,
        prevents_hol_blocking=False,
        ideal_workload="Request flows with fairness requirements",
        example_system="",
        comments="Fairness across types, not tail-optimal",
    )

    def __init__(
        self,
        type_specs: Sequence[RequestTypeSpec],
        quantum_us: float = 10.0,
        weights: Optional[Dict[int, float]] = None,
    ):
        super().__init__()
        if quantum_us <= 0:
            raise ConfigurationError(f"quantum_us must be > 0, got {quantum_us}")
        self._specs = _specs_by_id(type_specs)
        self.quantum_us = quantum_us
        self.weights = weights or {}
        self.order = [s.type_id for s in type_specs]
        self.queues: Dict[int, Deque[Request]] = {tid: deque() for tid in self.order}
        self.deficits: Dict[int, float] = {tid: 0.0 for tid in self.order}
        self._cursor = 0

    def on_request(self, request: Request) -> None:
        tid = request.effective_type()
        queue = self.queues.get(tid)
        if queue is None:
            raise SchedulingError(f"request {request.rid} has unregistered type {tid}")
        queue.append(request)
        self.queued += 1
        worker = self.first_free_worker()
        if worker is not None:
            self.on_worker_free(worker)

    def on_worker_free(self, worker: Worker) -> None:
        if not self.queued:
            return
        n = len(self.order)
        # At most two full rotations: one may only add deficit, the second
        # must then find a dispatchable head (deficit >= smallest head).
        for _ in range(2 * n):
            tid = self.order[self._cursor]
            queue = self.queues[tid]
            if queue:
                weight = self.weights.get(tid, 1.0)
                head = queue[0]
                if self.deficits[tid] >= head.service_time:
                    self.deficits[tid] -= head.service_time
                    queue.popleft()
                    self.queued -= 1
                    self.begin_service(worker, head)
                    return
                self.deficits[tid] += self.quantum_us * weight
                # A queue that still cannot afford its head keeps its
                # deficit for the next rotation.
            else:
                # Empty queues do not bank deficit (standard DRR).
                self.deficits[tid] = 0.0
            self._cursor = (self._cursor + 1) % n
        # Pathological case: a single head larger than accumulated deficit
        # after two rotations; force progress to stay work conserving.
        for tid in self.order:
            if self.queues[tid]:
                self.deficits[tid] = 0.0
                request = self.queues[tid].popleft()
                self.queued -= 1
                self.begin_service(worker, request)
                return

    def pending_scan(self) -> int:
        """A walk of the queues: the sanitizer's reference for :attr:`queued`."""
        return sum(len(q) for q in self.queues.values())


class StaticPartitioning(Scheduler):
    """Hard partitions: each type owns a fixed worker set, no stealing.

    ``allocation`` maps type id to a worker count; if omitted, workers are
    split proportionally to the types' CPU demand shares (Eq. 1) with at
    least one worker per type.
    """

    traits = PolicyTraits(
        name="SP",
        app_aware=True,
        typed_queues=True,
        work_conserving=False,
        preemptive=False,
        prevents_hol_blocking=False,
        ideal_workload="Different request types with different SLOs",
        example_system="",
        comments="No latency guarantees; cannot absorb bursts",
    )

    def __init__(
        self,
        type_specs: Sequence[RequestTypeSpec],
        allocation: Optional[Dict[int, int]] = None,
    ):
        super().__init__()
        self._spec_list = sorted(type_specs, key=lambda s: s.mean_service_time)
        self._specs = _specs_by_id(type_specs)
        self.allocation = allocation
        self.queues: Dict[int, Deque[Request]] = {
            s.type_id: deque() for s in type_specs
        }
        self.worker_sets: Dict[int, List[Worker]] = {}
        self._type_of_worker: Dict[int, int] = {}

    def on_bound(self) -> None:
        n_workers = len(self.workers)
        n_types = len(self._spec_list)
        if n_types > n_workers:
            raise ConfigurationError(
                f"StaticPartitioning needs >= 1 worker per type "
                f"({n_types} types, {n_workers} workers)"
            )
        if self.allocation is None:
            total_demand = sum(
                s.mean_service_time * s.ratio for s in self._spec_list
            )
            counts: Dict[int, int] = {}
            for spec in self._spec_list:
                share = spec.mean_service_time * spec.ratio / total_demand
                counts[spec.type_id] = max(1, round(share * n_workers))
            # Trim overflow from the largest allocations, then grow into
            # any remaining workers.
            while sum(counts.values()) > n_workers:
                biggest = max(counts, key=lambda t: counts[t])
                if counts[biggest] == 1:
                    raise ConfigurationError("cannot fit one worker per type")
                counts[biggest] -= 1
            while sum(counts.values()) < n_workers:
                smallest = min(counts, key=lambda t: counts[t])
                counts[smallest] += 1
            self.allocation = counts
        if sum(self.allocation.values()) != n_workers:
            raise ConfigurationError(
                f"allocation {self.allocation} does not cover {n_workers} workers"
            )
        cursor = 0
        for spec in self._spec_list:
            count = self.allocation[spec.type_id]
            workers = self.workers[cursor : cursor + count]
            cursor += count
            self.worker_sets[spec.type_id] = workers
            for w in workers:
                self._type_of_worker[w.worker_id] = spec.type_id

    def on_request(self, request: Request) -> None:
        tid = request.effective_type()
        if tid not in self.queues:
            raise SchedulingError(f"request {request.rid} has unregistered type {tid}")
        for worker in self.worker_sets[tid]:
            if worker.is_free:
                self.begin_service(worker, request)
                return
        self.queues[tid].append(request)
        self.queued += 1

    def on_worker_free(self, worker: Worker) -> None:
        tid = self._type_of_worker[worker.worker_id]
        queue = self.queues[tid]
        if queue:
            request = queue.popleft()
            self.queued -= 1
            self.begin_service(worker, request)

    def pending_scan(self) -> int:
        """A walk of the queues: the sanitizer's reference for :attr:`queued`."""
        return sum(len(q) for q in self.queues.values())


class CSCQ(Scheduler):
    """Cycle Stealing with Central Queue (Harchol-Balter et al. [42]).

    Types are split into a *short* class and a *long* class at
    ``threshold_us`` mean service time.  Short requests run on the short
    workers and may steal idle long workers; long requests only ever run
    on long workers.  Within each class, FCFS.
    """

    traits = PolicyTraits(
        name="CSCQ",
        app_aware=True,
        typed_queues=True,
        work_conserving=False,
        preemptive=False,
        prevents_hol_blocking=False,
        ideal_workload="Mix of short and long requests with the same priority",
        example_system="",
        comments="Optimal for average latency",
    )

    def __init__(
        self,
        type_specs: Sequence[RequestTypeSpec],
        threshold_us: float,
        n_short_workers: int,
    ):
        super().__init__()
        if n_short_workers < 1:
            raise ConfigurationError(f"n_short_workers must be >= 1, got {n_short_workers}")
        self._specs = _specs_by_id(type_specs)
        self.threshold_us = threshold_us
        self.n_short_workers = n_short_workers
        self.short_types = {
            s.type_id for s in type_specs if s.mean_service_time <= threshold_us
        }
        self.short_queue: Deque[Request] = deque()
        self.long_queue: Deque[Request] = deque()
        self.short_workers: List[Worker] = []
        self.long_workers: List[Worker] = []

    def on_bound(self) -> None:
        if self.n_short_workers >= len(self.workers):
            raise ConfigurationError(
                f"n_short_workers={self.n_short_workers} leaves no long workers "
                f"out of {len(self.workers)}"
            )
        self.short_workers = self.workers[: self.n_short_workers]
        self.long_workers = self.workers[self.n_short_workers :]
        for w in self.short_workers:
            w.tags["cscq_class"] = "short"
        for w in self.long_workers:
            w.tags["cscq_class"] = "long"

    def _is_short(self, request: Request) -> bool:
        return request.effective_type() in self.short_types

    def on_request(self, request: Request) -> None:
        if self._is_short(request):
            for worker in self.short_workers:
                if worker.is_free:
                    self.begin_service(worker, request)
                    return
            for worker in self.long_workers:  # cycle stealing
                if worker.is_free:
                    self.begin_service(worker, request)
                    return
            self.short_queue.append(request)
            self.queued += 1
        else:
            for worker in self.long_workers:
                if worker.is_free:
                    self.begin_service(worker, request)
                    return
            self.long_queue.append(request)
            self.queued += 1

    def on_worker_free(self, worker: Worker) -> None:
        short_queue = self.short_queue
        if worker.tags.get("cscq_class") == "short":
            queue = short_queue
        else:
            # Long workers prefer their own class, then donate to shorts.
            queue = self.long_queue or short_queue
        if queue:
            self.queued -= 1
            self.begin_service(worker, queue.popleft())

    def pending_scan(self) -> int:
        """Both queues' lengths: the sanitizer's reference for :attr:`queued`."""
        return len(self.short_queue) + len(self.long_queue)
