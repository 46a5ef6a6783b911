"""First-come-first-served policies: c-FCFS, d-FCFS, and work stealing.

* :class:`CentralizedFCFS` (c-FCFS) — one shared FIFO feeding any idle
  worker; models ZygOS/Shenango's effective behaviour and the single
  dispatch queue of e.g. NGINX.
* :class:`DecentralizedFCFS` (d-FCFS) — per-worker FIFOs fed by an RSS
  hash; models IX/Arrakis and Shenango with stealing disabled.
* :class:`WorkStealingFCFS` — d-FCFS plus idle-worker stealing with a
  per-steal cost; models how Shenango *approximates* c-FCFS.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

import numpy as np

from ..errors import ConfigurationError
from ..server.worker import Worker
from ..workload.request import Request
from .base import PolicyTraits, Scheduler


class CentralizedFCFS(Scheduler):
    """Single shared queue, FIFO, work conserving, non-preemptive."""

    traits = PolicyTraits(
        name="c-FCFS",
        app_aware=False,
        typed_queues=False,
        work_conserving=True,
        preemptive=False,
        prevents_hol_blocking=False,
        ideal_workload="Light-tailed",
        example_system="ZygOS / Shenango",
        comments="Load imbalance free, but long requests block short ones",
    )

    def __init__(self, queue_capacity: Optional[int] = None):
        super().__init__()
        if queue_capacity is not None and queue_capacity < 1:
            raise ConfigurationError(f"queue_capacity must be >= 1, got {queue_capacity}")
        self.queue_capacity = queue_capacity
        self.queue: Deque[Request] = deque()

    def on_request(self, request: Request) -> None:
        worker = self.first_free_worker()
        if worker is not None:
            self.begin_service(worker, request)
            return
        if self.queue_capacity is not None and len(self.queue) >= self.queue_capacity:
            self.drop(request)
            return
        self.queue.append(request)
        self.queued += 1

    def on_worker_free(self, worker: Worker) -> None:
        if self.queue:
            self.queued -= 1
            self.begin_service(worker, self.queue.popleft())

    def pending_scan(self) -> int:
        """The queue's length: the sanitizer's reference for :attr:`queued`."""
        return len(self.queue)


class DecentralizedFCFS(Scheduler):
    """Per-worker FIFOs fed by a hash, as RSS does in hardware.

    ``steering`` selects how arrivals map to workers:

    * ``"random"``       — uniform random, the standard model of RSS over
      many flows (requires ``rng``);
    * ``"round_robin"``  — deterministic rotation;
    * ``"rid_hash"``     — hash of the request id (deterministic but
      uneven over small windows, closest to per-flow RSS).
    """

    traits = PolicyTraits(
        name="d-FCFS",
        app_aware=False,
        typed_queues=False,
        work_conserving=False,
        preemptive=False,
        prevents_hol_blocking=False,
        ideal_workload="Light-tailed",
        example_system="IX / Arrakis",
        comments="Easy to implement; uncontrolled idleness under imbalance",
    )

    def __init__(
        self,
        steering: str = "random",
        rng: Optional[np.random.Generator] = None,
        queue_capacity: Optional[int] = None,
    ):
        super().__init__()
        if steering not in ("random", "round_robin", "rid_hash"):
            raise ConfigurationError(f"unknown steering {steering!r}")
        if steering == "random" and rng is None:
            raise ConfigurationError("steering='random' requires an rng")
        self.steering = steering
        self.rng = rng
        self.queue_capacity = queue_capacity
        self.queues: List[Deque[Request]] = []
        self._rr_next = 0

    def on_bound(self) -> None:
        self.queues = [deque() for _ in self.workers]

    def _steer(self, request: Request) -> int:
        n = len(self.workers)
        if self.steering == "random":
            assert self.rng is not None
            return int(self.rng.integers(0, n))
        if self.steering == "round_robin":
            idx = self._rr_next
            self._rr_next = (self._rr_next + 1) % n
            return idx
        # rid_hash: a small multiplicative hash; deterministic.
        return (request.rid * 2654435761) % n

    def on_request(self, request: Request) -> None:
        self._enqueue(request)

    def _enqueue(self, request: Request) -> bool:
        """Serve, drop or queue ``request`` at its steered worker; True
        when it was queued."""
        idx = self._steer(request)
        worker = self.workers[idx]
        if worker.is_free and not self.queues[idx]:
            self.begin_service(worker, request)
            return False
        if self.queue_capacity is not None and len(self.queues[idx]) >= self.queue_capacity:
            self.drop(request)
            return False
        self.queues[idx].append(request)
        self.queued += 1
        return True

    def on_worker_free(self, worker: Worker) -> None:
        queue = self.queues[worker.worker_id - self.workers[0].worker_id]
        if queue:
            request = queue.popleft()
            self.queued -= 1
            self.begin_service(worker, request)

    def pending_scan(self) -> int:
        """A walk of the queues: the sanitizer's reference for :attr:`queued`."""
        return sum(len(q) for q in self.queues)


class WorkStealingFCFS(DecentralizedFCFS):
    """d-FCFS plus work stealing — the Shenango/ZygOS c-FCFS approximation.

    An idle worker whose own queue is empty steals the head of a victim
    queue.  ``steal_cost_us`` models the cross-core coordination cost of
    each successful steal (added to the stolen request's effective
    occupancy as overhead).  ``victim`` picks the victimization rule.
    """

    traits = PolicyTraits(
        name="ws-FCFS",
        app_aware=False,
        typed_queues=False,
        work_conserving=True,
        preemptive=False,
        prevents_hol_blocking=False,
        ideal_workload="Light-tailed",
        example_system="Shenango",
        comments="Approximates c-FCFS; stealing costs cross-core traffic",
    )

    def __init__(
        self,
        steering: str = "random",
        rng: Optional[np.random.Generator] = None,
        queue_capacity: Optional[int] = None,
        steal_cost_us: float = 0.0,
        victim: str = "longest",
    ):
        super().__init__(steering=steering, rng=rng, queue_capacity=queue_capacity)
        if steal_cost_us < 0:
            raise ConfigurationError(f"steal_cost_us must be >= 0, got {steal_cost_us}")
        if victim not in ("longest", "random"):
            raise ConfigurationError(f"unknown victim rule {victim!r}")
        if victim == "random" and rng is None:
            raise ConfigurationError("victim='random' requires an rng")
        self.steal_cost_us = steal_cost_us
        self.victim = victim
        self.steals = 0

    def on_request(self, request: Request) -> None:
        # Stealing is also triggered by arrival: some *other* worker may be
        # idle while this queue just became non-empty.
        if self._enqueue(request):
            idle = self.first_free_worker()
            if idle is not None:
                self.on_worker_free(idle)

    def _pick_victim(self) -> Optional[int]:
        # Runs on every completion when the local queue is empty: the
        # random flavour needs the materialized index list (the RNG draw
        # must see the same candidate ordering), but the longest-queue
        # flavour scans without allocating.
        if self.victim == "random":
            non_empty = [  # repro-analyze: disable=A401
                i for i, q in enumerate(self.queues) if q
            ]
            if not non_empty:
                return None
            assert self.rng is not None
            return int(non_empty[self.rng.integers(0, len(non_empty))])
        best = None
        best_len = 0
        for i, q in enumerate(self.queues):
            qlen = len(q)
            if qlen > best_len:
                best = i
                best_len = qlen
        return best

    def on_worker_free(self, worker: Worker) -> None:
        my_idx = worker.worker_id - self.workers[0].worker_id
        if self.queues[my_idx]:
            request = self.queues[my_idx].popleft()
            self.queued -= 1
            self.begin_service(worker, request)
            return
        victim = self._pick_victim()
        if victim is None:
            return
        request = self.queues[victim].popleft()
        self.queued -= 1
        self.steals += 1
        if self._steal_hooks is not None:
            for hook in self._steal_hooks:
                hook(request, worker, self.workers[victim].worker_id, self.steal_cost_us)
        if self.steal_cost_us > 0:
            # The steal costs coordination time before service starts.
            now = self.loop.now
            request.overhead_time += self.steal_cost_us
            worker.begin(request, now)
            request.dispatch_time = now
            if self._dispatch_hooks is not None:
                for hook in self._dispatch_hooks:
                    hook(request, worker, now)
            self.schedule_service_event(
                worker,
                request.remaining_time * worker.speed_factor + self.steal_cost_us,
                self._complete,
                worker,
                request,
                self.steal_cost_us,
            )
        else:
            self.begin_service(worker, request)
