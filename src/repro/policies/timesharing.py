"""Preemptive time sharing — the Shinjuku model (§2 "TS", §5, Fig. 10).

Shinjuku preempts running requests every quantum (5 µs in the paper's
tuning) using Dune-based user-level interrupts.  Each preemption costs
the worker real time: the paper measured ≈2000 cycles (≈1 µs at 2 GHz)
and Fig. 10 decomposes the cost into a propagation *delay* plus a
preemption *overhead*.  This module models:

* ``quantum_us`` — slice length;
* ``preempt_overhead_us`` — worker time burned per preemption;
* ``preempt_delay_us`` — extra time the request keeps the core after the
  quantum expires before the interrupt lands (Fig. 10's "TS 4 µs" = 2 µs
  delay + 2 µs overhead);
* two queue disciplines, matching Shinjuku's policies (§5.1):

  - ``single``: one central queue; preempted requests re-enter at the
    *tail* (processor sharing across everything);
  - ``multi``: one queue per request type; preempted requests re-enter at
    the *head* of their queue; queues are picked by a Borrowed-Virtual-
    Time-like rule (least virtual time, weighted).

With ``preempt_overhead_us = preempt_delay_us = 0`` this is the ideal
"TS 0 µs" system of Fig. 10.

A quantum boundary whose discipline would re-pick the request it just
preempted (single mode with an empty queue; multi mode when BVT picks the
request's own type) hands the request straight back to its core: the
preemption cost, counters and observer calls are those of the enqueue and
dequeue round trip, without the round trip.
"""

from __future__ import annotations

import math
from collections import deque
from numbers import Integral
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, SchedulingError
from ..server.worker import Worker
from ..workload.request import Request, RequestTypeSpec
from .base import PolicyTraits, Scheduler


def check_quantum_and_costs(
    quantum_us: float, preempt_overhead_us: float, preempt_delay_us: float
) -> None:
    """Refuse a quantum that is not a finite time > 0 and preemption
    costs that are not finite times >= 0.  NaN fails every comparison, so
    a NaN quantum would pass a plain ``<= 0`` check and then never
    preempt: ``min(remaining, nan)`` is ``remaining``."""
    if not 0.0 < quantum_us < math.inf:
        raise ConfigurationError(
            f"quantum_us must be finite and > 0, got {quantum_us}"
        )
    for name, cost in (
        ("preempt_overhead_us", preempt_overhead_us),
        ("preempt_delay_us", preempt_delay_us),
    ):
        if not 0.0 <= cost < math.inf:
            raise ConfigurationError(f"{name} must be finite and >= 0, got {cost}")


class TimeSharing(Scheduler):
    """Quantum-based preemptive scheduling with explicit preemption costs."""

    traits = PolicyTraits(
        name="TS",
        app_aware=True,
        typed_queues=True,
        work_conserving=True,
        preemptive=True,
        prevents_hol_blocking=True,
        ideal_workload="Heavy-tailed without priorities",
        example_system="Shinjuku",
        comments="Preemption overheads cap sustainable load at us scale",
    )

    def __init__(
        self,
        quantum_us: float = 5.0,
        preempt_overhead_us: float = 1.0,
        preempt_delay_us: float = 0.0,
        mode: str = "single",
        type_specs: Optional[Sequence[RequestTypeSpec]] = None,
        weights: Optional[Dict[int, float]] = None,
        queue_capacity: Optional[int] = None,
        trigger: str = "timer",
    ):
        super().__init__()
        check_quantum_and_costs(quantum_us, preempt_overhead_us, preempt_delay_us)
        if mode not in ("single", "multi"):
            raise ConfigurationError(f"mode must be 'single' or 'multi', got {mode!r}")
        if mode == "multi" and not type_specs:
            raise ConfigurationError("multi-queue mode requires type_specs")
        if trigger not in ("timer", "demand"):
            raise ConfigurationError(
                f"trigger must be 'timer' or 'demand', got {trigger!r}"
            )
        self.quantum_us = quantum_us
        self.preempt_overhead_us = preempt_overhead_us
        self.preempt_delay_us = preempt_delay_us
        self.mode = mode
        #: "timer" preempts at every quantum boundary (the real Shinjuku);
        #: "demand" preempts only when queued work exists — past its
        #: quantum a request runs on until a new arrival blocks, which is
        #: the model behind the paper's §2/Fig. 10 simulations ("a
        #: preemption event can be triggered as soon as a short request
        #: is blocked in the queue").  Frequency stays capped at one
        #: preemption per quantum per worker.
        self.trigger = trigger
        if queue_capacity is not None and (
            isinstance(queue_capacity, bool)
            or not isinstance(queue_capacity, Integral)
            or queue_capacity < 1
        ):
            raise ConfigurationError(
                f"queue_capacity must be an int >= 1, got {queue_capacity!r}"
            )
        self.weights = weights or {}
        self.queue_capacity = queue_capacity
        #: Core time one preemption holds past its slice.
        self._preempt_cost = preempt_delay_us + preempt_overhead_us
        self.preemptions = 0
        #: worker_id -> (request, slice_start, completion_event) for
        #: requests running past their quantum in demand mode.
        self._overdue: Dict[int, tuple] = {}

        self.central: Deque[Request] = deque()
        self.typed: Dict[int, Deque[Request]] = {}
        #: Requests in ``central`` and ``typed``, kept at every enqueue and
        #: dequeue so :meth:`pending_count` is O(1).
        self._pending = 0
        self.vtimes: Dict[int, float] = {}
        if type_specs:
            for spec in type_specs:
                self.typed[spec.type_id] = deque()
                self.vtimes[spec.type_id] = 0.0
        for tid, weight in self.weights.items():
            if tid not in self.typed:
                raise ConfigurationError(f"weights name unregistered type {tid}")
            # A zero weight divides by zero mid-run; a negative one makes
            # its type's virtual time fall, so it wins BVT forever.
            if not 0.0 < weight < math.inf:
                raise ConfigurationError(
                    f"weight of type {tid} must be finite and > 0, got {weight}"
                )

    # ------------------------------------------------------------------
    # queue discipline
    # ------------------------------------------------------------------
    def _enqueue(self, request: Request, preempted: bool) -> bool:
        """Returns False when flow control drops the request."""
        if self.mode == "single":
            if (
                not preempted
                and self.queue_capacity is not None
                and len(self.central) >= self.queue_capacity
            ):
                return False
            # Shinjuku single-queue: preempted requests go to the *tail*
            # too — that is what shares the processor.
            self.central.append(request)
            self._pending += 1
            return True
        tid = request.effective_type()
        queue = self.typed.get(tid)
        if queue is None:
            raise SchedulingError(f"request {request.rid} has unregistered type {tid}")
        if (
            not preempted
            and self.queue_capacity is not None
            and len(queue) >= self.queue_capacity
        ):
            return False
        if preempted:
            queue.appendleft(request)  # multi-queue: head of own queue
        else:
            queue.append(request)
        self._pending += 1
        return True

    def _dequeue(self) -> Optional[Request]:
        if not self._pending:
            return None
        self._pending -= 1
        if self.mode == "single":
            return self.central.popleft()
        tid = self._bvt_pick()
        request = self.typed[tid].popleft()
        self._charge_vtime(tid, request)
        return request

    def _bvt_pick(self, own_tid: Optional[int] = None) -> Optional[int]:
        """BVT-like choice: the non-empty queue with the smallest virtual
        time, the earliest-registered type on a tie.  ``own_tid``'s queue
        counts as non-empty: it is where a preempted request would go."""
        best_tid = None
        best_v = None
        vtimes = self.vtimes
        for tid, queue in self.typed.items():
            if not queue and tid != own_tid:
                continue
            v = vtimes[tid]
            if best_v is None or v < best_v:
                best_v = v
                best_tid = tid
        return best_tid

    def _charge_vtime(self, tid: int, request: Request) -> None:
        """Charge ``tid`` the expected slice, normalized by its weight."""
        remaining = request.remaining_time
        quantum = self.quantum_us
        # min(remaining, quantum), by the one comparison min makes.
        expected = quantum if quantum < remaining else remaining
        self.vtimes[tid] += expected / self.weights.get(tid, 1.0)

    def pending_count(self) -> int:
        return self._pending

    def pending_scan(self) -> int:
        """Queued requests counted by walking the central and typed
        queues: the sanitizer's reference for :meth:`pending_count`."""
        count = len(self.central)
        for queue in self.typed.values():
            count += len(queue)
        return count

    # ------------------------------------------------------------------
    # event handling
    # ------------------------------------------------------------------
    def on_request(self, request: Request) -> None:
        worker = self.first_free_worker()
        if worker is not None and not self.pending_count():
            self._start_slice(worker, request)
            return
        if not self._enqueue(request, preempted=False):
            self.drop(request)
            return
        if worker is not None:
            self.on_worker_free(worker)
            return
        if self.trigger == "demand" and self._overdue:
            self._preempt_most_overdue()

    def on_worker_free(self, worker: Worker) -> None:
        request = self._dequeue()
        if request is not None:
            self._start_slice(worker, request)

    def _start_slice(self, worker: Worker, request: Request) -> None:
        assert self.loop is not None
        now = self.loop.now
        if request.dispatch_time is None:
            request.dispatch_time = now
        worker.begin(request, now)
        if self.tracer is not None:
            self.tracer.on_dispatch(request, worker)
        self._book_slice(worker, request)

    def _book_slice(self, worker: Worker, request: Request) -> None:
        """Book the event that ends the slice ``request`` starts on
        ``worker`` now: its completion, or its quantum boundary."""
        remaining = request.remaining_time
        quantum = self.quantum_us
        # min(remaining, quantum) without a builtin call per slice: the
        # same comparison min makes, so the same float either way.
        slice_us = quantum if quantum < remaining else remaining
        # A straggling core executes the slice speed_factor times slower;
        # slice_us stays nominal (it is what remaining_time is charged).
        wall = slice_us * worker.speed_factor
        if slice_us >= remaining:
            self.schedule_service_event(worker, wall, self._slice_finished, worker, request)
        elif self.trigger == "demand":
            self.schedule_service_event(
                worker, wall, self._quantum_boundary, worker, request, slice_us
            )
        else:
            cost = self._preempt_cost
            self.schedule_service_event(
                worker, wall + cost, self._slice_preempted, worker, request, slice_us, cost
            )

    # ------------------------------------------------------------------
    # demand-triggered preemption (§2 / Fig. 10 simulation model)
    # ------------------------------------------------------------------
    def _quantum_boundary(self, worker: Worker, request: Request, slice_us: float) -> None:
        """The quantum elapsed; preempt only if someone is waiting."""
        assert self.loop is not None
        if self.pending_count() > 0:
            cost = self._preempt_cost
            self.schedule_service_event(
                worker, cost, self._slice_preempted, worker, request, slice_us, cost
            )
            return
        # Nobody waits: run on, but stay preemptible the moment work
        # arrives.  Book the natural completion; a later preemption
        # cancels it.
        factor = worker.speed_factor
        completion = self.schedule_service_event(
            worker,
            (request.remaining_time - slice_us) * factor,
            self._overdue_finished,
            worker,
            request,
        )
        self._overdue[worker.worker_id] = (
            request,
            self.loop.now - slice_us * factor,
            completion,
            factor,
        )

    def _overdue_finished(self, worker: Worker, request: Request) -> None:
        self._overdue.pop(worker.worker_id, None)
        self._slice_finished(worker, request)

    def _preempt_most_overdue(self) -> None:
        """A blocked arrival interrupts the longest-running overdue
        request (capped at one preemption per arrival)."""
        assert self.loop is not None
        # Tie-break on worker id: two slices can start at the same
        # timestamp (e.g. a batch of frees after a crash), and without
        # the second key the victim would be whichever entered the dict
        # first — an ordering no line of code states.
        worker_id = min(self._overdue, key=lambda wid: (self._overdue[wid][1], wid))
        request, slice_start, completion, factor = self._overdue.pop(worker_id)
        completion.cancel()
        worker = self.workers[worker_id]
        consumed = (self.loop.now - slice_start) / factor
        cost = self._preempt_cost
        self.schedule_service_event(
            worker, cost, self._slice_preempted, worker, request, consumed, cost
        )

    def on_worker_crash(self, worker: Worker, requeue: bool = True):
        """Crash: clear demand-mode overdue state before the generic
        eviction (its completion event is the registered service event,
        so the base class cancels it)."""
        self._overdue.pop(worker.worker_id, None)
        return super().on_worker_crash(worker, requeue=requeue)

    def _slice_finished(self, worker: Worker, request: Request) -> None:
        assert self.loop is not None
        now = self.loop.now
        self._service_events.pop(worker.worker_id, None)
        worker.end(now)
        worker.completed += 1
        request.remaining_time = 0.0
        request.finish_time = now
        if self.tracer is not None:
            self.tracer.on_complete(request, worker)
        if self.telemetry is not None:
            self.telemetry.on_complete(request, worker)
        if self._on_complete is not None:
            self._on_complete(request)
        self.completion_hook(worker, request)
        self.on_worker_free(worker)

    def _slice_preempted(
        self, worker: Worker, request: Request, slice_us: float, cost: float
    ) -> None:
        assert self.loop is not None
        now = self.loop.now
        # Would the discipline re-pick this request?  Single mode: only
        # if the queue it goes to the tail of is empty.  Multi mode: if
        # BVT picks its type, whose queue it goes to the head of.
        if self.mode == "single":
            tid = None
            hand_back = not self._pending
        else:
            tid = request.effective_type()
            queue = self.typed.get(tid)
            if queue is None:
                raise SchedulingError(
                    f"request {request.rid} has unregistered type {tid}"
                )
            hand_back = self._pending == len(queue) or self._bvt_pick(tid) == tid
        if hand_back:
            # Keeps the core; the booking below replaces its service event.
            worker.lap(now, cost)
        else:
            self._service_events.pop(worker.worker_id, None)
            worker.end(now, overhead=cost)
        if self.tracer is not None:
            self.tracer.on_preempt(request, worker, cost)
        if self.telemetry is not None:
            self.telemetry.on_preempt(request, worker, cost)
        request.remaining_time -= slice_us
        request.preemption_count += 1
        request.overhead_time += cost
        self.preemptions += 1
        if not hand_back:
            self._enqueue(request, preempted=True)
            self.on_worker_free(worker)
            return
        # The enqueue-and-dequeue round trip, less the queue and the
        # core hand-over: the same vtime charge, dispatch and booking.
        if tid is not None:
            self._charge_vtime(tid, request)
        if self.tracer is not None:
            self.tracer.on_dispatch(request, worker)
        self._book_slice(worker, request)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TimeSharing(q={self.quantum_us}us, o={self.preempt_overhead_us}us, "
            f"d={self.preempt_delay_us}us, mode={self.mode!r})"
        )
