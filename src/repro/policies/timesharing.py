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

While such a hand-back is *certain* — every queued request already has
the running request's type (single mode: the queue is empty) — the timer
trigger books no event per quantum.  The slice becomes a *lazy* chain:
its boundary ("lap") times and its completion time are computed up
front by the same float steps the per-quantum events would take, and
only the completion is booked.  Laps are settled in bulk, with the same
float operations in the same order, when their effects are needed: a
vtime comparison or a charge that does not commute with theirs, an
enqueue that ends a chain's certainty, the core's own completion, crash
or speed change, and the end of a run (:meth:`TimeSharing.settle`).
Settled laps are credited to :attr:`EventLoop.events_processed`, so the
event count matches the per-quantum path's.  When an enqueue ends the
certainty of some chains, the earliest of their laps becomes one real
boundary event (the stand-in) that runs the full boundary decision.
Runs with a scheduler observer (a tracer, a telemetry probe) or any
loop observer stay on the per-quantum path, so every slice is observed
at its own time.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from numbers import Integral
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, SchedulingError
from ..server.worker import Worker
from ..workload.request import Request, RequestTypeSpec
from .base import PolicyTraits, Scheduler

_INF = math.inf


class _LazySlice:
    """A request holding its core through certain quantum hand-backs.

    ``times`` are its quantum boundary ("lap") times, computed when the
    chain starts; only its completion, after the last lap, is booked.
    Laps are settled in bulk per type (:meth:`TimeSharing._settle_type`);
    the worker and request side of the first ``replayed`` laps has been
    applied.  Lap ``anchor`` was booked with the key ``(anchor_time,
    anchor_rank)``; each later lap was booked by the one before it (see
    :meth:`TimeSharing._lap_key`).
    """

    __slots__ = (
        "worker", "request", "tid", "cost", "times", "replayed", "anchor",
        "anchor_time", "anchor_rank", "event", "last_charge",
    )

    def __init__(self, worker, request, tid, cost, times, now, rank, event, last_charge):
        self.worker = worker
        self.request = request
        #: The request's type in multi mode (the vtime it charges); None
        #: in single mode.
        self.tid = tid
        self.cost = cost
        self.times = times
        self.replayed = 0
        self.anchor = 0
        self.anchor_time = now
        self.anchor_rank = rank
        #: The booked completion event.
        self.event = event
        #: vtime charge of the last lap: the remainder, not the quantum.
        self.last_charge = last_charge


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
        #: worker_id -> (request, slice_start, completion_event, factor)
        #: for requests running past their quantum in demand mode.
        self._overdue: Dict[int, tuple] = {}

        #: worker_id -> lazy chain, for cores in a certain hand-back.
        self._lazy: Dict[int, _LazySlice] = {}
        #: type (None in single mode) -> the times of the unsettled laps
        #: of its lazy chains, sorted.
        self._laps: Dict[Optional[int], List[float]] = {}
        #: Lazy chains whose last lap charges less than a quantum.
        self._specials = 0
        #: type -> vtime charge of one quantum (``quantum / weight``).
        self._full_charge: Dict[int, float] = {}
        #: True while laps at one instant run one by one (the vtimes they
        #: read are settled already).
        self._settling = False
        #: Booking order of service events: ties at one instant fire in
        #: booking order, which these ranks reproduce.
        self._rank = 0
        #: worker_id -> booking key of its pending real service event.
        self._booked_key: List[tuple] = []
        #: Core and time of the pending stand-in boundary, if any.
        self._standin: Optional[Tuple[int, float]] = None
        #: True once a slice went lazy: from then on service events may
        #: sit in the heap out of booking order (see _settle_for).
        self._lazy_used = False

        self.central: Deque[Request] = deque()
        self.typed: Dict[int, Deque[Request]] = {}
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
            self.queued += 1
            if self._lazy:
                self._after_enqueue(None)
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
        self.queued += 1
        if self._lazy:
            self._after_enqueue(tid)
        return True

    def _dequeue(self) -> Optional[Request]:
        if not self.queued:
            return None
        self.queued -= 1
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
        compared = False
        for tid, queue in self.typed.items():
            if not queue and tid != own_tid:
                continue
            if best_tid is not None and not compared:
                compared = True
                if self._lazy and not self._settling:
                    # Lazy laps charge vtimes: settle them before the
                    # first comparison.
                    self._settle_all(self.loop.now)
                    best_v = vtimes[best_tid]
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
        if self._lazy and not self._settling and (expected != quantum or self._specials):
            # A charge of a whole quantum commutes with the lazy laps'
            # (all whole quanta unless a chain's last lap is special);
            # any other must come after the laps due before now.
            self._settle_all(self.loop.now)
        self.vtimes[tid] += expected / self.weights.get(tid, 1.0)

    def pending_scan(self) -> int:
        """A walk of the central and typed queues: the sanitizer's
        reference for :attr:`queued`."""
        count = len(self.central)
        for queue in self.typed.values():
            count += len(queue)
        return count

    # ------------------------------------------------------------------
    # event handling
    # ------------------------------------------------------------------
    def on_bound(self) -> None:
        self._booked_key = [(0.0, 0)] * len(self.workers)

    def on_request(self, request: Request) -> None:
        worker = self.first_free_worker()
        if worker is not None and not self.queued:
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
        if self._dispatch_hooks is not None:
            for hook in self._dispatch_hooks:
                hook(request, worker, now)
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
            return
        else:
            cost = self._preempt_cost
            if self._hand_back_certain(request) and self._start_lazy(
                worker, request, wall + cost, cost
            ):
                return
            self.schedule_service_event(
                worker, wall + cost, self._slice_preempted, worker, request, slice_us, cost
            )
        self._booked_key[worker.worker_id] = (self.loop.now, self._rank)
        self._rank += 1

    # ------------------------------------------------------------------
    # lazy quantum boundaries: certain hand-backs without heap events
    # ------------------------------------------------------------------
    def _hand_back_certain(self, request: Request) -> bool:
        """True when every boundary of the slice being booked will hand
        ``request`` back unless another type is enqueued first, and no
        observer needs to see each slice."""
        if self.observers or self.loop.observers:
            return False
        if self.mode == "single":
            return not self.queued
        queue = self.typed.get(request.effective_type())
        return queue is not None and self.queued == len(queue)

    def _start_lazy(self, worker: Worker, request: Request, delay: float, cost: float) -> bool:
        """Book only the completion of ``request``'s remaining slices on
        ``worker``: one lap of ``delay`` per quantum, then the last slice.
        The times come from the same float steps the per-quantum events
        would take (``now + delay`` per lap, ``remaining -= quantum``).

        Declines (returns False) when the slices would cross a power of
        two.  Within one binade ``[2**e, 2**(e+1))`` the difference of
        two times is exact (Sterbenz), so ``now + (t - now)`` is ``t`` for
        any lap or completion time ``t`` and any later ``now`` before it:
        a relative booking lands exactly where the per-quantum chain
        would.  Across a power of two it may round."""
        loop = self.loop
        now = loop.now
        quantum = self.quantum_us
        remaining = request.remaining_time
        if math.frexp(now)[1] != math.frexp(now + (remaining / quantum + 1.0) * delay)[1]:
            return False  # it would cross a power of two: see above
        t = now + delay
        times = [t]
        append = times.append
        remaining -= quantum
        while quantum < remaining:
            t = t + delay
            append(t)
            remaining = remaining - quantum
        end = t + remaining * worker.speed_factor
        if math.frexp(now)[1] != math.frexp(end)[1]:
            return False
        # Against other events at that instant the completion is ordered
        # by its booking key (_cause_key), not by this booking's place in
        # the heap.
        event = self.schedule_service_event(
            worker, end - now, self._slice_finished, worker, request
        )
        wid = worker.worker_id
        tid = last_charge = None
        if self.mode == "multi":
            tid = request.effective_type()
            # _charge_vtime after the last lap: the remainder, weighted.
            last_charge = remaining / self.weights.get(tid, 1.0)
            if last_charge != self._full(tid):
                self._specials += 1
        self._lazy_used = True
        self._lazy[wid] = chain = _LazySlice(
            worker, request, tid, cost, times, now, self._rank, event, last_charge
        )
        self._rank += 1
        laps = self._laps.get(tid)
        if laps is None:
            self._laps[tid] = times[:]
        else:
            laps += times
            laps.sort()
        return True

    def _drop_chain(self, chain: _LazySlice, first: int) -> None:
        """Forget ``chain`` and its unsettled laps, from lap ``first``."""
        wid = chain.worker.worker_id
        del self._lazy[wid]
        if chain.last_charge is not None and chain.last_charge != self._full(chain.tid):
            self._specials -= 1
        times = chain.times
        if first < len(times):
            laps = self._laps[chain.tid]
            for i in range(first, len(times)):
                del laps[bisect_left(laps, times[i])]

    def _full(self, tid: int) -> float:
        """vtime charge of one quantum of type ``tid``."""
        full = self._full_charge.get(tid)
        if full is None:
            full = self._full_charge[tid] = self.quantum_us / self.weights.get(tid, 1.0)
        return full

    def _lap_key(self, chain: _LazySlice, k: int) -> tuple:
        """Booking key of lap ``k`` of ``chain`` (its completion when ``k``
        is the number of laps): the time it was booked, then its rank
        among bookings at that instant.  Laps settled in bulk fired after
        every event booked at their instant, so a lap booked by one ranks
        after those events' bookings, in the order of its booker's key:
        ``(time, inf, key of the booking lap)``."""
        key = (chain.anchor_time, chain.anchor_rank)
        times = chain.times
        for i in range(chain.anchor, k):
            key = (times[i], _INF, key)
        return key

    def _cause_key(self, wid: int) -> tuple:
        """Booking key of this policy's pending service event on core
        ``wid``: a lazy chain's completion, or a real booking."""
        chain = self._lazy.get(wid)
        if chain is None:
            return self._booked_key[wid]
        return self._lap_key(chain, len(chain.times))

    def _settle_type(self, tid: Optional[int], now: float) -> None:
        """Settle the laps of type ``tid`` before ``now``: count and
        credit them and charge their vtimes.  They are certain
        hand-backs; their worker and request side waits for
        :meth:`_replay`.  A lap charges one quantum except a chain's
        last, and whole-quantum charges commute, so they are added in
        bulk unless some chain's last lap is among them."""
        laps = self._laps.get(tid)
        if not laps or laps[0] >= now:
            return
        k = bisect_left(laps, now)
        if tid is not None:
            full = self._full(tid)
            v = self.vtimes[tid]
            done = 0
            if self._specials:
                # Last laps charging a remainder, in time order, each
                # after the whole-quantum laps before it.
                lasts = []
                for chain in self._lazy.values():
                    if chain.tid == tid and chain.last_charge != full:
                        t = chain.times[-1]
                        j = bisect_left(laps, t, 0, k)
                        if j < k and laps[j] == t:
                            lasts.append((t, chain.last_charge))
                lasts.sort()
                for t, charge in lasts:
                    j = bisect_left(laps, t, done, k)
                    for _ in range(j - done):
                        v += full
                    v += charge
                    done = j + 1
            for _ in range(k - done):
                v += full
            self.vtimes[tid] = v
        del laps[:k]
        self.preemptions += k
        self.loop.credit_events(k)

    def _settle_all(self, now: float) -> None:
        """Settle every type's laps before ``now``."""
        for tid in self._laps:
            self._settle_type(tid, now)

    def _settle_for(self, wid: int, request: Request, now: float) -> bool:
        """Entry of this policy's own event on core ``wid`` at ``now``:
        first run what fires before it at this very instant — lazy laps
        and this policy's other service events booked before it (a lazy
        completion, or a stand-in, sits in the heap by when it was
        actually booked, not by the booking it stands for).  False when
        one of those took the core from ``request``."""
        siblings = self.loop.peek_time() == now
        if not siblings:
            for laps in self._laps.values():
                i = bisect_left(laps, now)
                if i < len(laps) and laps[i] == now:
                    break
            else:
                return True
        self._settle_all(now)
        limit = self._cause_key(wid)
        service_events = self._service_events
        while True:
            best = None
            best_key = limit
            for chain, k in self._due_at(now):
                key = self._lap_key(chain, k)
                if key < best_key:
                    best = (chain, k)
                    best_key = key
            if siblings:
                for other, event in service_events.items():
                    if other != wid and event.time == now and not event.cancelled:
                        key = self._cause_key(other)
                        if key < best_key:
                            best = event
                            best_key = key
            if best is None:
                break
            if best.__class__ is tuple:
                self._run_lap(best[0], best[1], now)
            else:
                best.cancel()
                self.loop.credit_events(1)
                best.fn(*best.args)
        return self.workers[wid].current is request

    def _run_lap(self, chain: _LazySlice, k: int, now: float) -> None:
        """Run lap ``k`` of ``chain``, due at ``now`` (after
        :meth:`_settle_all`), unless an earlier lap at this instant ended
        the chain (a lap's key depends on its own chain only)."""
        if self._lazy.get(chain.worker.worker_id) is not chain:
            return
        laps = self._laps[chain.tid]
        del laps[bisect_left(laps, now)]
        self._settling = True
        try:
            self._lap_now(chain, k, now)
        finally:
            self._settling = False

    def _due_at(self, now: float) -> List[Tuple[_LazySlice, int]]:
        """The lazy chains with an unsettled lap at exactly ``now``, each
        with that lap's index."""
        due = []
        for chain in self._lazy.values():
            times = chain.times
            if times[-1] < now:
                continue
            k = bisect_left(times, now)
            # A lap at this instant already run explicitly has moved
            # its chain's anchor past it.
            if times[k] == now and chain.anchor <= k:
                due.append((chain, k))
        return due

    def _uncertain(self, tid: Optional[int]) -> bool:
        """Could the queue take a core from a lazy chain of type ``tid``?"""
        return self.queued != (0 if tid is None else len(self.typed[tid]))

    def _after_enqueue(self, tid: Optional[int]) -> None:
        """A request of type ``tid`` (single mode: None) was enqueued.
        Chains of other types that were certain no longer are: settle
        their laps before now and book a stand-in at their next one."""
        before = self.queued - 1
        typed = self.typed
        for own, laps in self._laps.items():
            if not laps:
                continue
            if own is None:
                broken = before == 0
            else:
                broken = own != tid and before == len(typed[own])
            if broken:
                self._settle_all(self.loop.now)
                self._arm_standin()
                return

    def _arm_standin(self) -> None:
        """Make the earliest lap of an uncertain chain a real quantum
        boundary (the stand-in), which runs the full boundary decision,
        unless a stand-in is already booked no later."""
        # Uncertain types were settled when they became uncertain, so the
        # head of their lap list is their next lap.
        first = _INF
        uncertain = []
        for tid, laps in self._laps.items():
            if laps and self._uncertain(tid):
                uncertain.append(tid)
                if laps[0] < first:
                    first = laps[0]
        if first == _INF:
            return
        standin = self._standin
        if standin is not None and standin[1] <= first:
            return
        target = None
        for chain in self._lazy.values():
            times = chain.times
            if times[-1] < first or chain.tid not in uncertain:
                continue
            k = bisect_left(times, first)
            if times[k] == first and (
                target is None or self._lap_key(chain, k) < self._lap_key(*target)
            ):
                target = (chain, k)
        self._standin = (target[0].worker.worker_id, first)
        self._cut(*target)

    def _cut(self, chain: _LazySlice, k: int) -> None:
        """End ``chain`` at lap ``k`` (its first lap not before now): book
        that lap as a real quantum boundary, whose handler decides it as
        the per-quantum path does and books the slice after it."""
        worker = chain.worker
        wid = worker.worker_id
        self._replay(chain, k)
        self._booked_key[wid] = self._lap_key(chain, k)
        self._drop_chain(chain, k)
        times = chain.times
        if k == len(times):
            return  # only the booked completion is left
        chain.event.cancel()
        # At the boundary's own time: exact, as now and the lap share a
        # binade (see _start_lazy).
        self.schedule_service_event(
            worker,
            times[k] - self.loop.now,
            self._slice_preempted,
            worker,
            chain.request,
            self.quantum_us,
            chain.cost,
        )

    def _replay(self, chain: _LazySlice, upto: int) -> None:
        """Apply laps up to ``upto`` of ``chain`` to its worker and
        request, with the per-quantum path's float operations:
        :meth:`Worker.lap`, ``remaining -= quantum`` and the preemption
        cost."""
        i = chain.replayed
        if upto <= i:
            return
        worker = chain.worker
        request = chain.request
        cost = chain.cost
        quantum = self.quantum_us
        remaining = request.remaining_time
        overhead = request.overhead_time
        times = chain.times
        for k in range(i, upto):
            t = times[k]
            worker.lap(t, cost)
            remaining -= quantum
            overhead += cost
        request.remaining_time = remaining
        request.overhead_time = overhead
        request.preemption_count += upto - i
        chain.replayed = upto

    def _lap_now(self, chain: _LazySlice, k: int, now: float) -> None:
        """Lap ``k`` of ``chain``, due at ``now``: the quantum boundary,
        decided as the per-quantum path decides it."""
        self._replay(chain, k)
        request = chain.request
        worker = chain.worker
        cost = chain.cost
        tid = chain.tid
        if tid is None:
            hand_back = not self.queued
        else:
            hand_back = (
                self.queued == len(self.typed[tid]) or self._bvt_pick(tid) == tid
            )
        self.loop.credit_events(1)
        if hand_back:
            worker.lap(now, cost)
        else:
            self._drop_chain(chain, k + 1)
            chain.event.cancel()
            self._service_events.pop(worker.worker_id, None)
            worker.end(now, overhead=cost)
        request.remaining_time -= self.quantum_us
        request.preemption_count += 1
        request.overhead_time += cost
        self.preemptions += 1
        if not hand_back:
            self._enqueue(request, preempted=True)
            self.on_worker_free(worker)
            return
        if tid is not None:
            self._charge_vtime(tid, request)
        chain.replayed = chain.anchor = k + 1
        chain.anchor_time = now
        chain.anchor_rank = self._rank
        self._rank += 1

    def settle(self) -> None:
        """Settle every lazy lap due by ``loop.now`` and apply it to its
        worker and request: call when a run stops with slices in
        progress (it was cut at a time)."""
        if not self._lazy:
            return
        now = self.loop.now
        self._settle_all(now)
        due = self._due_at(now)
        due.sort(key=lambda lap: self._lap_key(*lap))
        for chain, k in due:
            self._run_lap(chain, k, now)
        for chain in list(self._lazy.values()):
            self._replay(chain, bisect_left(chain.times, now))

    def on_worker_speed(self, worker: Worker) -> None:
        """A lazy chain was computed at the old speed: settle it up to
        now and book its next boundary as a real event, which books the
        slice after it at the new speed."""
        chain = self._lazy.get(worker.worker_id)
        if chain is None:
            return
        now = self.loop.now
        self._settle_all(now)
        self._cut(chain, bisect_left(chain.times, now))

    # ------------------------------------------------------------------
    # demand-triggered preemption (§2 / Fig. 10 simulation model)
    # ------------------------------------------------------------------
    def _quantum_boundary(self, worker: Worker, request: Request, slice_us: float) -> None:
        """The quantum elapsed; preempt only if someone is waiting."""
        assert self.loop is not None
        if self.queued > 0:
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
        so the base class cancels it), and end a lazy chain (its booked
        completion is the service event)."""
        chain = self._lazy.get(worker.worker_id)
        if chain is not None:
            now = self.loop.now
            self._settle_all(now)
            k = bisect_left(chain.times, now)
            self._replay(chain, k)
            self._drop_chain(chain, k)
        standin = self._standin
        if standin is not None and standin[0] == worker.worker_id:
            self._standin = None  # the crash cancels its boundary
        self._overdue.pop(worker.worker_id, None)
        victim = super().on_worker_crash(worker, requeue=requeue)
        if self._lazy:
            self._arm_standin()
        return victim

    def _slice_finished(self, worker: Worker, request: Request) -> None:
        assert self.loop is not None
        now = self.loop.now
        if self._lazy_used:
            wid = worker.worker_id
            if not self._settle_for(wid, request, now):
                return  # its last lap, due at this instant, preempted it
            chain = self._lazy.get(wid)
            if chain is not None:
                self._settle_type(chain.tid, now)
                self._replay(chain, len(chain.times))
                self._drop_chain(chain, len(chain.times))
        self._complete(worker, request)

    def _slice_preempted(
        self, worker: Worker, request: Request, slice_us: float, cost: float
    ) -> None:
        assert self.loop is not None
        now = self.loop.now
        if self._lazy_used:
            self._settle_for(worker.worker_id, request, now)
        standin = self._standin
        if standin is not None and standin[0] == worker.worker_id:
            self._standin = None
        # Would the discipline re-pick this request?  Single mode: only
        # if the queue it goes to the tail of is empty.  Multi mode: if
        # BVT picks its type, whose queue it goes to the head of.
        if self.mode == "single":
            tid = None
            hand_back = not self.queued
        else:
            tid = request.effective_type()
            queue = self.typed.get(tid)
            if queue is None:
                raise SchedulingError(
                    f"request {request.rid} has unregistered type {tid}"
                )
            hand_back = self.queued == len(queue) or self._bvt_pick(tid) == tid
        if hand_back:
            # Keeps the core; the booking below replaces its service event.
            worker.lap(now, cost)
        else:
            self._service_events.pop(worker.worker_id, None)
            worker.end(now, overhead=cost)
        if self._preempt_hooks is not None:
            for hook in self._preempt_hooks:
                hook(request, worker, cost)
        request.remaining_time -= slice_us
        request.preemption_count += 1
        request.overhead_time += cost
        self.preemptions += 1
        if not hand_back:
            self._enqueue(request, preempted=True)
            self.on_worker_free(worker)
        else:
            # The enqueue-and-dequeue round trip, less the queue and the
            # core hand-over: the same vtime charge, dispatch and booking.
            if tid is not None:
                self._charge_vtime(tid, request)
            if self._dispatch_hooks is not None:
                for hook in self._dispatch_hooks:
                    hook(request, worker, now)
            self._book_slice(worker, request)
        if self._lazy:
            # The next uncertain lap, if any, gets its own boundary.
            self._arm_standin()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TimeSharing(q={self.quantum_us}us, o={self.preempt_overhead_us}us, "
            f"d={self.preempt_delay_us}us, mode={self.mode!r})"
        )
