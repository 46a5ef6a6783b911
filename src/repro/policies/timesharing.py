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
its boundary ("lap") times form an exact arithmetic progression, ``now +
k*step`` with ``step = quantum*speed_factor + cost``, and only its
completion is booked.  A chain goes lazy only when that progression and
``remaining - k*quantum`` are the floats the per-quantum events would
compute (see :meth:`TimeSharing._start_lazy`); otherwise its slices run
one quantum at a time.  Laps are settled in bulk, with the floats the
per-quantum path would produce (:func:`~repro.sim.floats.repeat_add`),
when their effects are needed: a vtime comparison or a charge that does
not commute with theirs, the core's own completion, crash or speed
change, a cut, and the end of a run (:meth:`TimeSharing.settle`).
Settled laps are credited to
:attr:`EventLoop.events_processed`, so the event count matches the
per-quantum path's.  When an enqueue ends the certainty of some chains,
the earliest of their laps becomes one real boundary event (the
stand-in) that runs the full boundary decision.  Runs with a scheduler
observer (a tracer, a telemetry probe) or any loop observer stay on the
per-quantum path, so every slice is observed at its own time.
"""

from __future__ import annotations

import math
from collections import deque
from bisect import bisect_left, insort
from numbers import Integral
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, SchedulingError
from ..server.worker import Worker
from ..sim.floats import repeat_add
from ..workload.request import Request, RequestTypeSpec
from .base import PolicyTraits, Scheduler

_INF = math.inf
_frexp = math.frexp
#: ``only`` of :meth:`TimeSharing._settle`: every type.
_ALL = object()


class _LazySlice:
    """A request holding its core through certain quantum hand-backs.

    Its ``n`` quantum boundaries ("laps") are the exact progression
    ``start + (i + 1) * step``, ``i`` in ``range(n)``.  Only its
    completion, after the last lap, is booked.  The first ``settled``
    laps have been counted, credited and charged (:meth:`TimeSharing._settle`,
    :meth:`TimeSharing._settle_chain`); the worker and request side of
    the first ``replayed`` has been applied.  Lap ``anchor`` was booked
    at ``start + anchor * step`` with the key ``(that time, 0,
    anchor_rank)``; each later lap was booked by the one before it (see
    :meth:`TimeSharing._lap_key`).
    """

    __slots__ = (
        "worker", "request", "tid", "cost", "start", "step", "n", "settled",
        "replayed", "anchor", "anchor_rank", "event", "last_charge", "special",
        "phase", "seq",
    )

    def __init__(
        self, worker, request, tid, cost, start, step, n, rank, event,
        last_charge, special, phase,
    ):
        self.worker = worker
        self.request = request
        #: The request's type in multi mode (the vtime it charges); None
        #: in single mode.
        self.tid = tid
        self.cost = cost
        self.start = start
        self.step = step
        self.n = n
        self.settled = 0
        self.replayed = 0
        self.anchor = 0
        self.anchor_rank = rank
        #: The booked completion event.
        self.event = event
        #: vtime charge of the last lap: the remainder, not the quantum.
        self.last_charge = last_charge
        #: True when that charge is not a whole quantum's.
        self.special = special
        #: ``start % step`` (exact): the chain laps at ``t > start`` only
        #: if ``t % step`` equals it.
        self.phase = phase
        #: Its place among chains of equal phase in a lattice: the rank
        #: its completion was booked with.
        self.seq = rank


def _laps_before(chain: _LazySlice, t: float) -> int:
    """How many laps of ``chain`` fall strictly before ``t``."""
    start = chain.start
    step = chain.step
    i = int((t - start) / step)
    if i <= 0:
        return 0
    if i > chain.n:
        i = chain.n
    # The quotient may round up to a whole number; lap times are exact.
    if start + i * step >= t:
        i -= 1
    return i


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
        #: (type, step) -> its lazy chains as ``(phase, seq, chain)``,
        #: sorted: a chain's first lap at or after ``t`` is ``t`` plus its
        #: phase's distance after ``t % step`` (mod step), so the chains
        #: lap in the cyclic order of their phases.
        self._lattices: Dict[Tuple[Optional[int], float], list] = {}
        #: type -> no unsettled lap of its lazy chains falls before this.
        self._type_next: Dict[Optional[int], float] = {}
        #: ``remaining - k*quantum`` is exact for every ``remaining`` below
        #: this: the quantum is a whole number of ``remaining``'s ulps.
        num, den = float(quantum_us).as_integer_ratio()
        low_bit = (num & -num).bit_length() - den.bit_length()
        self._exact_below = math.ldexp(1.0, low_bit + 53) if low_bit < 971 else _INF
        #: Lazy chains whose last lap charges less than a quantum.
        self._specials = 0
        #: True while laps at one instant run one by one (the vtimes they
        #: read are settled already).
        self._settling = False
        #: Booking order of service events: ties at one instant fire in
        #: booking order, which these ranks reproduce.
        self._rank = 0
        #: worker_id -> booking key of its pending real service event
        #: (see :meth:`_lap_key`).
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
        #: type -> vtime charge of one quantum (``quantum / weight``).
        self._full_charge: Dict[int, float] = {
            tid: quantum_us / self.weights.get(tid, 1.0) for tid in self.typed
        }

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
        lazy = self._lazy and not self._settling
        compared = False
        for tid, queue in self.typed.items():
            if not queue and tid != own_tid:
                continue
            v = vtimes[tid]
            if best_tid is None:
                best_tid = tid
                best_v = v
                continue
            if lazy:
                # Unsettled lazy laps only add to a type's vtime, so a
                # stored vtime is a lower bound: settle a type when its
                # exact value could decide the comparison.
                now = self.loop.now
                pending = self._type_next
                if not compared:
                    compared = True
                    if pending.get(best_tid, _INF) < now:
                        self._settle(now, best_tid)
                        best_v = vtimes[best_tid]
                if v < best_v and pending.get(tid, _INF) < now:
                    self._settle(now, tid)
                    v = vtimes[tid]
            if v < best_v:
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
            # any other must come after its type's laps due before now.
            now = self.loop.now
            if self._type_next.get(tid, _INF) < now:
                self._settle(now, tid)
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
        self._booked_key = [(0.0, 0, 0)] * len(self.workers)

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
        self._booked_key[worker.worker_id] = (self.loop.now, 0, self._rank)
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

        The per-quantum events would compute lap ``k`` as ``k`` sums
        ``t + delay`` and the remainder as ``k`` differences ``remaining -
        quantum``.  Declines (returns False) unless those are exactly
        ``now + k*delay`` and ``remaining - k*quantum``: ``now`` and the
        completion share one binade ``[2**e, 2**(e+1))``, whose floats are
        whole multiples of one ulp, and ``delay`` is a whole number of
        those ulps (``now + delay - now == delay`` within the binade); and
        ``quantum`` is a whole number of ``remaining``'s ulps
        (``_exact_below``).  Then every sum and difference is exact, and
        so is ``now + (t - now)`` for any lap or completion time ``t``
        and any later ``now`` before it (Sterbenz): a relative booking
        lands exactly where the per-quantum chain would."""
        now = self.loop.now
        quantum = self.quantum_us
        remaining = request.remaining_time
        if not (remaining < self._exact_below and now + delay - now == delay):
            return False
        # n laps leave 0 < remaining - n*quantum <= quantum; the quotient
        # may round up to a whole number.
        n = int(remaining / quantum)
        rest = remaining - n * quantum
        if rest <= 0.0:
            n -= 1
            rest = remaining - n * quantum
        last = now + n * delay
        end = last + rest * worker.speed_factor
        if not 0.0 < now or _frexp(now)[1] != _frexp(end)[1]:
            return False
        # Against other events at that instant the completion is ordered
        # by its booking key (_cause_key), not by this booking's place in
        # the heap.
        event = self.schedule_service_event(
            worker, end - now, self._slice_finished, worker, request
        )
        tid = last_charge = None
        special = False
        if self.mode == "multi":
            tid = request.effective_type()
            # _charge_vtime after the last lap: the remainder, weighted.
            last_charge = rest / self.weights.get(tid, 1.0)
            if last_charge != self._full_charge[tid]:
                special = True
                self._specials += 1
        self._lazy_used = True
        phase = now % delay
        rank = self._rank
        self._rank = rank + 1
        self._lazy[worker.worker_id] = chain = _LazySlice(
            worker, request, tid, cost, now, delay, n, rank, event,
            last_charge, special, phase,
        )
        lattice = self._lattices.get((tid, delay))
        if lattice is None:
            lattice = self._lattices[(tid, delay)] = []
        insort(lattice, (phase, rank, chain))
        first = now + delay
        if first < self._type_next.get(tid, _INF):
            self._type_next[tid] = first
        return True

    def _drop_chain(self, chain: _LazySlice) -> None:
        """Forget ``chain`` and its unsettled laps."""
        del self._lazy[chain.worker.worker_id]
        if chain.special:
            self._specials -= 1
        key = (chain.tid, chain.step)
        lattice = self._lattices[key]
        if len(lattice) == 1:
            del self._lattices[key]
        else:
            del lattice[bisect_left(lattice, (chain.phase, chain.seq))]

    def _lap_key(self, chain: _LazySlice, k: int) -> tuple:
        """Booking key of lap ``k`` of ``chain`` (its completion when ``k``
        is the number of laps).

        A real booking's key is ``(time, 0, rank)``: the time it was
        booked, then its rank among bookings at that instant.  Laps
        settled in bulk fired after every event booked at their instant,
        so a lap booked by one ranks after those events' bookings, in the
        order of its booker's key.  Spelled out, lap ``anchor + m``'s key
        is the sequence ``T, inf, T - step, inf, ..., T - m*step =
        anchor_time, rank`` with ``T`` the booking lap's time, compared
        element by element.  Two such sequences with equal ``T`` differ
        first where the larger step makes its time smaller, else where
        the shorter one reaches its finite rank; so ``(T, 1, -step, m,
        rank)`` orders them the same way, after every ``(T, 0, rank)``."""
        step = chain.step
        m = k - chain.anchor
        if not m:
            return (chain.start + k * step, 0, chain.anchor_rank)
        return (chain.start + k * step, 1, -step, m, chain.anchor_rank)

    def _cause_key(self, wid: int) -> tuple:
        """Booking key of this policy's pending service event on core
        ``wid``: a lazy chain's completion, or a real booking."""
        chain = self._lazy.get(wid)
        if chain is None:
            return self._booked_key[wid]
        return self._lap_key(chain, chain.n)

    def _settle(self, now: float, only=_ALL) -> None:
        """Settle the laps before ``now`` of every lazy chain (of type
        ``only`` when given): count and credit them and charge their
        vtimes.  They are certain hand-backs; their worker and request
        side waits for :meth:`_replay`.  A lap charges one quantum except
        a chain's last, and whole-quantum charges commute, so a type's
        are added in bulk between its chains' last laps, which go in time
        order (a last lap before the other laps at its instant)."""
        type_next = self._type_next
        if only is _ALL:
            for t in type_next.values():
                if t < now:
                    break
            else:
                return
        elif type_next.get(only, _INF) >= now:
            return
        settled = 0
        per_type = {}
        nexts = {}
        batch = [] if self._specials else None
        for chain in self._lazy.values():
            tid = chain.tid
            if only is not _ALL and tid != only:
                continue
            s = chain.settled
            d = _laps_before(chain, now)
            if d < s:
                d = s  # its lap at now already ran
            if d < chain.n:
                t = chain.start + (d + 1) * chain.step
                if t < nexts.get(tid, _INF):
                    nexts[tid] = t
            if d > s:
                chain.settled = d
                settled += d - s
                per_type[tid] = per_type.get(tid, 0) + d - s
                if batch is not None:
                    batch.append((chain, s, d))
        if only is _ALL:
            self._type_next = nexts
        else:
            type_next[only] = nexts.get(only, _INF)
        if not settled:
            return
        self.preemptions += settled
        self.loop.credit_events(settled)
        vtimes = self.vtimes
        for tid, count in per_type.items():
            if tid is None:
                continue
            full = self._full_charge[tid]
            v = vtimes[tid]
            done = 0
            if batch:
                lasts = []
                for chain, s, d in batch:
                    if chain.tid == tid and chain.special and d == chain.n:
                        lasts.append(
                            (chain.start + chain.n * chain.step, chain.last_charge)
                        )
                lasts.sort()
                for t, charge in lasts:
                    # Laps of this type before t, in this batch.
                    j = 0
                    for chain, s, d in batch:
                        if chain.tid == tid:
                            before = _laps_before(chain, t)
                            if before > s:
                                j += (d if d < before else before) - s
                    if j < done:
                        j = done
                    v = repeat_add(v, full, j - done)
                    v += charge
                    done = j + 1
            vtimes[tid] = repeat_add(v, full, count - done)

    def _settle_chain(self, chain: _LazySlice, upto: int) -> None:
        """Settle ``chain``'s laps before lap ``upto``, all due before now.
        Alone, while no chain's last lap is special: each charges a whole
        quantum, which commutes with every other chain's.  Otherwise its
        whole type settles, in time order."""
        if self._specials:
            self._settle(self.loop.now, chain.tid)
        count = upto - chain.settled
        if count <= 0:
            return
        chain.settled = upto
        self.preemptions += count
        self.loop.credit_events(count)
        tid = chain.tid
        if tid is not None:
            self.vtimes[tid] = repeat_add(self.vtimes[tid], self._full_charge[tid], count)

    def _settle_for(self, wid: int, request: Request, now: float) -> bool:
        """Entry of this policy's own event on core ``wid`` at ``now``:
        first run what fires before it at this very instant — lazy laps
        and this policy's other service events booked before it (a lazy
        completion, or a stand-in, sits in the heap by when it was
        actually booked, not by the booking it stands for).  False when
        one of those took the core from ``request``."""
        siblings = self.loop.peek_time() == now
        if not siblings and not self._due_at(now):
            return True
        self._settle(now)
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
        :meth:`_settle`), unless an earlier lap at this instant ended the
        chain (a lap's key depends on its own chain only)."""
        if self._lazy.get(chain.worker.worker_id) is not chain:
            return
        chain.settled = k + 1
        self._settling = True
        try:
            self._lap_now(chain, k, now)
        finally:
            self._settling = False

    def _due_at(self, now: float) -> List[Tuple[_LazySlice, int]]:
        """The lazy chains with a lap at exactly ``now`` that has not run,
        each with that lap's index: those whose phase is ``now % step``."""
        due = []
        for (tid, step), lattice in self._lattices.items():
            r = now % step
            i = bisect_left(lattice, (r,))
            while i < len(lattice) and lattice[i][0] == r:
                chain = lattice[i][2]
                i += 1
                # now - start is a whole number of steps: exact.
                k = round((now - chain.start) / step) - 1
                if chain.anchor <= k < chain.n:
                    due.append((chain, k))
        return due

    def _after_enqueue(self, tid: Optional[int]) -> None:
        """A request of type ``tid`` (single mode: None) was enqueued.
        Chains of other types that were certain no longer are: book a
        stand-in at their next lap."""
        before = self.queued - 1
        typed = self.typed
        for own, _ in self._lattices:
            if own is None:
                broken = before == 0
            else:
                broken = own != tid and before == len(typed[own])
            if broken:
                self._arm_standin()
                return

    def _arm_standin(self) -> None:
        """Make the earliest lap not before now of an uncertain chain a
        real quantum boundary (the stand-in), which runs the full
        boundary decision, unless a stand-in is already booked no later.
        Laps at one instant go in booking-key order."""
        now = self.loop.now
        queued = self.queued
        typed = self.typed
        first = _INF
        target = target_k = target_key = None
        for (tid, step), lattice in self._lattices.items():
            if queued == (0 if tid is None else len(typed[tid])):
                continue  # certain
            size = len(lattice)
            r = now % step
            start_at = bisect_left(lattice, (r,))
            for j in range(start_at, start_at + size):
                chain = lattice[j % size][2]
                k = _laps_before(chain, now)
                if k < chain.anchor:
                    k = chain.anchor  # its lap at now already ran
                if k >= chain.n:
                    continue  # no lap left
                t = chain.start + (k + 1) * step
                if t > first:
                    if chain.phase == r:
                        # Its lap at now ran, or it started at now: its
                        # next lap is a whole step away.
                        continue
                    break  # later phases lap later still
                if t < first:
                    first = t
                    target = chain
                    target_k = k
                    target_key = None
                    continue
                if target_key is None:
                    target_key = self._lap_key(target, target_k)
                key = self._lap_key(chain, k)
                if key < target_key:
                    target = chain
                    target_k = k
                    target_key = key
        if target is None:
            return
        standin = self._standin
        if standin is not None and standin[1] <= first:
            return
        self._standin = (target.worker.worker_id, first)
        self._cut(target, target_k)

    def _cut(self, chain: _LazySlice, k: int) -> None:
        """End ``chain`` at lap ``k`` (its first lap not before now): book
        that lap as a real quantum boundary, whose handler decides it as
        the per-quantum path does and books the slice after it."""
        worker = chain.worker
        self._settle_chain(chain, k)
        self._replay(chain, k)
        self._booked_key[worker.worker_id] = self._lap_key(chain, k)
        self._drop_chain(chain)
        if k == chain.n:
            return  # only the booked completion is left
        chain.event.cancel()
        # At the boundary's own time: exact, as now and the lap share a
        # binade (see _start_lazy).
        self.schedule_service_event(
            worker,
            chain.start + (k + 1) * chain.step - self.loop.now,
            self._slice_preempted,
            worker,
            chain.request,
            self.quantum_us,
            chain.cost,
        )

    def _replay(self, chain: _LazySlice, upto: int) -> None:
        """Apply laps up to ``upto`` of ``chain`` to its worker and
        request, with the floats the per-quantum path would produce:
        :meth:`Worker.laps`, ``remaining -= quantum`` (exact, see
        :meth:`_start_lazy`) and the preemption cost."""
        count = upto - chain.replayed
        if count <= 0:
            return
        step = chain.step
        cost = chain.cost
        request = chain.request
        chain.worker.laps(chain.start + upto * step, count, step, cost)
        request.remaining_time -= count * self.quantum_us
        request.overhead_time = repeat_add(request.overhead_time, cost, count)
        request.preemption_count += count
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
            self._drop_chain(chain)
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
        chain.anchor_rank = self._rank
        self._rank += 1

    def settle(self) -> None:
        """Settle every lazy lap due by ``loop.now`` and apply it to its
        worker and request: call when a run stops with slices in
        progress (it was cut at a time)."""
        if not self._lazy:
            return
        now = self.loop.now
        self._settle(now)
        due = self._due_at(now)
        due.sort(key=lambda lap: self._lap_key(*lap))
        for chain, k in due:
            self._run_lap(chain, k, now)
        for chain in list(self._lazy.values()):
            self._replay(chain, chain.settled)

    def on_worker_speed(self, worker: Worker) -> None:
        """A lazy chain was computed at the old speed: settle it up to
        now and book its next boundary as a real event, which books the
        slice after it at the new speed."""
        chain = self._lazy.get(worker.worker_id)
        if chain is None:
            return
        now = self.loop.now
        k = _laps_before(chain, now)
        self._cut(chain, k if k >= chain.anchor else chain.anchor)

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
            k = _laps_before(chain, self.loop.now)
            self._settle_chain(chain, k)
            self._replay(chain, k)
            self._drop_chain(chain)
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
                self._settle_chain(chain, chain.n)
                self._replay(chain, chain.n)
                self._drop_chain(chain)
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
