"""DARC — Dynamic Application-aware Reserved Cores (§3, §4.3.3).

:class:`DarcScheduler` implements the full policy:

* typed queues keyed by the classifier's verdict, dispatched in ascending
  profiled-service-time order (Algorithm 1);
* worker reservations per δ-group with cycle stealing from longer groups
  and a spillway core (Algorithm 2, via :mod:`repro.core.reservation`);
* online profiling windows with EMA service times and occurrence ratios,
  and reservation updates triggered by queueing-delay SLO breaches plus
  significant CPU-demand deviation (§4.3.3);
* c-FCFS warm-up before the first reservation exists;
* bounded typed queues for flow control (drops shed load per-type).

Two configurations:

* *profiled* (default) — learns the workload online, like the prototype;
* *oracle*  (``profile=False`` + ``type_specs``) — reservations computed
  once from ground truth, used for the paper's policy simulations (Fig. 1).
"""

from __future__ import annotations

import math
from collections import deque
from numbers import Integral
from typing import Deque, Dict, List, Optional, Sequence, Set

from ..errors import ConfigurationError, SchedulingError
from ..policies.base import PolicyTraits, Scheduler
from ..server.worker import Worker
from ..workload.request import UNKNOWN_TYPE, Request, RequestTypeSpec
from .classifier import OracleClassifier, RequestClassifier
from .profiler import WorkloadProfiler
from .reservation import (
    ROUNDING_MODES,
    Reservation,
    compute_reservation,
    grants_may_differ,
    window_deviation,
)


def _is_count(value) -> bool:
    """An int >= 1; ``True`` is an int in Python and is refused."""
    return not isinstance(value, bool) and isinstance(value, Integral) and value >= 1


def check_darc_params(
    delta: float = 2.0,
    min_samples: int = 2000,
    min_demand_deviation: float = 0.10,
    slo_slowdown: float = 10.0,
    queue_capacity: Optional[int] = None,
    rounding: str = "round",
) -> None:
    """Refuse DARC parameters that would misbehave silently or fail only
    at the first profiling window.  NaN fails every comparison, so each
    check is written to reject it: a NaN deviation threshold, for one,
    would turn every breach re-check into a no-op."""
    if not delta >= 1.0:
        raise ConfigurationError(f"delta must be >= 1.0, got {delta}")
    if not _is_count(min_samples):
        raise ConfigurationError(f"min_samples must be an int >= 1, got {min_samples!r}")
    if not 0.0 <= min_demand_deviation < math.inf:
        raise ConfigurationError(
            f"min_demand_deviation must be finite and >= 0, got {min_demand_deviation}"
        )
    if not 0.0 < slo_slowdown < math.inf:
        raise ConfigurationError(
            f"slo_slowdown must be finite and > 0, got {slo_slowdown}"
        )
    if queue_capacity is not None and not _is_count(queue_capacity):
        raise ConfigurationError(
            f"queue_capacity must be an int >= 1, got {queue_capacity!r}"
        )
    if rounding not in ROUNDING_MODES:
        raise ConfigurationError(
            f"rounding must be one of {ROUNDING_MODES}, got {rounding!r}"
        )


class DarcScheduler(Scheduler):
    """The paper's contribution: application-aware reserved cores.

    Parameters
    ----------
    classifier:
        Maps requests to type ids on the dispatch path (§4.2).  Defaults
        to an oracle (correct header lookup).
    delta:
        Service-time similarity factor for grouping (Algorithm 2).
    profile:
        Learn the workload online.  When False, ``type_specs`` must carry
        ground truth and reservations are fixed at bind time.
    type_specs:
        Ground-truth per-type means/ratios for oracle mode.
    ema_alpha:
        Profiler smoothing factor.
    min_samples:
        Lower bound on window samples before a reservation update — the
        paper uses 50 000 on a multi-Mrps testbed; simulation-scale runs
        default lower.
    min_demand_deviation:
        Minimum per-type demand-share change to trigger an update (0.1 in
        the paper).
    slo_slowdown:
        Queueing-delay trigger: a request that waited longer than
        ``slo_slowdown`` times its type's profiled service time signals
        that the reservation may be stale (the paper uses 10).
    queue_capacity:
        Per-typed-queue bound for flow control; None = unbounded.
    rounding:
        Fractional-demand rounding mode ("round" per the paper; "ceil" /
        "floor" exposed for the ablation).
    use_spillway:
        Set False only for the ablation benchmark.
    steal:
        Cycle stealing on/off (off degenerates toward static partitioning;
        ablation only).
    reclaim:
        What happens when a worker completes a request while several
        groups have pending work — the point where Algorithm 1's
        pseudocode underdetermines the system:

        * ``"priority"`` — literal Algorithm 1: the shortest pending
          group always wins, even on a worker reserved to a longer
          group.  Maximally protects shorts; lets a hot medium group
          bleed the longest group's tail (cf. §5.4.3's degraded
          StockLevel).
        * ``"owner"`` — a reserved core is returned to its owner group
          whenever the owner has work ("guaranteed cores", Fig. 7);
          shorter groups steal only cores that are idle at their
          arrival.  Maximally protects long groups; an under-provisioned
          short group can saturate at very high load.
        * ``"urgent"`` (default) — owner-first, except a shorter group
          claims the core when its oldest request has already waited at
          least the group's own mean service time (its slowdown is
          actively degrading).  Microsecond shorts qualify essentially
          immediately, so they keep Algorithm 1's protection, while a
          merely-busy medium group cannot monopolize longer groups'
          cores.
    """

    traits = PolicyTraits(
        name="DARC",
        app_aware=True,
        typed_queues=True,
        work_conserving=False,
        preemptive=False,
        prevents_hol_blocking=True,
        ideal_workload="Heavy-tailed with high priority short requests",
        example_system="Perséphone",
        comments="Absorbs short bursts via stealing; favors short RPCs",
    )

    def __init__(
        self,
        classifier: Optional[RequestClassifier] = None,
        delta: float = 2.0,
        profile: bool = True,
        type_specs: Optional[Sequence[RequestTypeSpec]] = None,
        ema_alpha: float = 0.05,
        min_samples: int = 2000,
        min_demand_deviation: float = 0.10,
        slo_slowdown: float = 10.0,
        queue_capacity: Optional[int] = None,
        rounding: str = "round",
        use_spillway: bool = True,
        steal: bool = True,
        reclaim: str = "urgent",
    ):
        super().__init__()
        if reclaim not in ("priority", "owner", "urgent"):
            raise ConfigurationError(
                f"reclaim must be 'priority', 'owner' or 'urgent', got {reclaim!r}"
            )
        check_darc_params(
            delta,
            min_samples,
            min_demand_deviation,
            slo_slowdown,
            queue_capacity,
            rounding,
        )
        if not profile and not type_specs:
            raise ConfigurationError("oracle mode (profile=False) requires type_specs")
        self.classifier = classifier if classifier is not None else OracleClassifier()
        self.delta = delta
        self.profile_enabled = profile
        self.type_specs = list(type_specs) if type_specs else None
        self.profiler = WorkloadProfiler(ema_alpha=ema_alpha)
        self.min_samples = min_samples
        self.min_demand_deviation = min_demand_deviation
        self.slo_slowdown = slo_slowdown
        self.queue_capacity = queue_capacity
        self.rounding = rounding
        self.use_spillway = use_spillway
        self.steal = steal
        self.reclaim = reclaim

        self.reservation: Optional[Reservation] = None
        #: Entries that produced the current reservation — re-used when
        #: capacity changes (crash/recover) to re-run Algorithm 2 over
        #: the surviving cores without waiting for a profiling window.
        self._last_entries: Optional[List] = None
        #: Typed queues, created lazily as types appear.
        self.queues: Dict[int, Deque[Request]] = {}
        #: Dispatch priority: type ids ascending by profiled service time.
        self._order: List[int] = []
        #: worker index -> set of type ids it may serve (from reservation).
        self._allowed: List[Set[int]] = []
        #: Types seen but absent from the current reservation (plus UNKNOWN):
        #: they are served by the spillway only.
        self._orphan_types: Set[int] = set()
        #: worker index -> the GroupAllocation that reserved it (owner-first
        #: dispatch at completion time).
        self._owner_of_worker: Dict[int, object] = {}
        #: Per-event dispatch runs thousands of times per simulated
        #: second; everything it needs is precomputed when a reservation
        #: is installed instead of being rebuilt per event:
        #: worker index -> allocations (in Algorithm-1 order) whose types
        #: that worker may serve,
        self._allocs_for_worker: List[List] = []
        #: type id -> candidate worker indices (reserved then stealable),
        self._candidates: Dict[int, List[int]] = {}
        #: type id -> the candidates' bits in ``counts.free``,
        self._candidate_mask: Dict[int, int] = {}
        #: type id -> the group's type ids (the "single queue" siblings),
        self._siblings: Dict[int, List[int]] = {}
        #: and the sorted spillway dispatch list (orphans + UNKNOWN).
        self._orphan_dispatch: List[int] = [UNKNOWN_TYPE]
        self._startup_queue: Deque[Request] = deque()
        self._slo_breached = False
        self.reservation_updates = 0
        #: (time, {type_id: reserved_count}) history for Fig. 7.
        self.reservation_log: List = []
        self.drops = 0

        # Measured CPU-waste accounting: time-integral of idle workers
        # while work is pending (the cost of non-work-conservation).
        self._waste_area = 0.0
        self._waste_last_t = 0.0

    # ------------------------------------------------------------------
    # binding / oracle setup
    # ------------------------------------------------------------------
    def attach_observer(self, observer) -> None:
        """Forward the observer to the classifier too, so it sees every
        classification on the dispatch path."""
        super().attach_observer(observer)
        self.classifier.attach_observer(observer)

    def on_bound(self) -> None:
        self._waste_last_t = self.loop.now
        if not self.profile_enabled:
            assert self.type_specs is not None
            for spec in self.type_specs:
                self.profiler.seed(spec.type_id, spec.mean_service_time, weight=1)
            entries = [
                (s.type_id, s.mean_service_time, s.ratio) for s in self.type_specs
            ]
            self._install_reservation(entries)

    # ------------------------------------------------------------------
    # CPU waste accounting
    # ------------------------------------------------------------------
    def _tick_waste(self) -> None:
        """Integrate idle-while-pending worker count up to now.

        Must be called *before* any state change so the piecewise-constant
        count since the previous event is attributed correctly.
        :meth:`on_request` and :meth:`_complete`, which run per request,
        make the same steps inline: against a call here, server-darc's
        ``sim_rps`` read x1.035 and x1.016 in 10 alternating pairs at
        seeds 1 and 2 (8/10 each, 2-vCPU VM).
        """
        now = self.loop.now
        dt = now - self._waste_last_t
        if dt > 0:
            if self.queued:
                # A crashed core never holds a request (the sanitizer's
                # worker-exclusivity check), so busy and failed cores are
                # disjoint and the rest are exactly the free ones.
                counts = self.counts
                self._waste_area += dt * (counts.size - counts.busy - counts.failed)
            self._waste_last_t = now

    def measured_waste(self) -> float:
        """Time-averaged idle cores while requests were pending."""
        elapsed = self.loop.now if self.loop else 0.0
        if elapsed <= 0:
            return 0.0
        return self._waste_area / elapsed

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def on_request(self, request: Request) -> None:
        now = self.loop.now  # _tick_waste, inline
        dt = now - self._waste_last_t
        if dt > 0:
            if self.queued:
                counts = self.counts
                self._waste_area += dt * (counts.size - counts.busy - counts.failed)
            self._waste_last_t = now
        type_id = self.classifier.classify(request)
        if self.reservation is None:
            # Startup window: c-FCFS (§3 "during the first windows ... the
            # system starts using c-FCFS").
            worker = self.first_free_worker()
            if worker is not None and not self._startup_queue:
                self.begin_service(worker, request)
            else:
                self._startup_queue.append(request)
                self.queued += 1
            return
        queue = self.queues.get(type_id)
        if queue is None:
            queue = deque()
            self.queues[type_id] = queue
            self._register_type(type_id)
        if self.queue_capacity is not None and len(queue) >= self.queue_capacity:
            self.drops += 1
            self.drop(request)
            return
        queue.append(request)
        self.queued += 1
        self._dispatch_type(type_id)

    def _register_type(self, type_id: int) -> None:
        """A type with no queue yet appeared mid-run: slot it into the
        dispatch order (by profiled mean if known, else last) and mark it
        orphan if the current reservation does not cover it."""
        mean_service = self.profiler.mean_service
        mean = mean_service(type_id)
        if mean is None:
            self._order.append(type_id)
        else:
            pos = len(self._order)
            for i, t in enumerate(self._order):
                m = mean_service(t)
                if m is None:
                    m = float("inf")
                if mean < m:
                    pos = i
                    break
            self._order.insert(pos, type_id)
        if self.reservation is None or self.reservation.group_for_type(type_id) is None:
            self._orphan_types.add(type_id)
            # Runs once per newly-seen type, keeping the spillway's
            # dispatch list sorted so on_worker_free never re-sorts.
            self._orphan_dispatch = sorted(  # repro-analyze: disable=A401
                self._orphan_types | {UNKNOWN_TYPE}
            )

    def _workers_for_type(self, type_id: int) -> List[int]:
        """Algorithm 1's candidate list: reserved then stealable workers.

        Computed once per (reservation, type) and cached, with its mask
        of ``counts.free`` bits — both are pure functions of the
        installed reservation, and rebuilding them per dispatch was a
        measurable per-event allocation.
        """
        candidates = self._candidates.get(type_id)
        if candidates is None:
            assert self.reservation is not None
            alloc = self.reservation.group_for_type(type_id)
            if alloc is None:
                spill = self.reservation.spillway_worker
                candidates = [spill] if spill is not None else []
            elif self.steal:
                candidates = alloc.allowed_workers()
            else:
                candidates = list(alloc.reserved)
            self._candidates[type_id] = candidates
            mask = 0
            workers = self.workers
            for widx in candidates:
                mask |= workers[widx].bit
            self._candidate_mask[type_id] = mask
        return candidates

    def _sibling_types(self, type_id: int) -> List[int]:
        """All types sharing ``type_id``'s group queue set.

        The group presents a "single queue abstraction" (§3): its typed
        queues are dequeued FCFS across each other, so δ-similar types
        cannot starve one another.  Cached per (reservation, type) like
        :meth:`_workers_for_type`.
        """
        siblings = self._siblings.get(type_id)
        if siblings is None:
            assert self.reservation is not None
            alloc = self.reservation.group_for_type(type_id)
            siblings = [type_id] if alloc is None else alloc.type_ids
            self._siblings[type_id] = siblings
        return siblings

    def _oldest_queue(self, type_ids: Sequence[int]) -> Optional[Deque[Request]]:
        """The typed queue whose head arrived first among the given
        types (the first such queue on a tie), or None when all are
        empty: the queue :meth:`_pop_earliest` pops from."""
        best_queue: Optional[Deque[Request]] = None
        best_time = None
        for tid in type_ids:
            queue = self.queues.get(tid)
            if not queue:
                continue
            head_time = queue[0].arrival_time
            if best_time is None or head_time < best_time:
                best_time = head_time
                best_queue = queue
        return best_queue

    def _pop_earliest(self, type_ids: Sequence[int]) -> Optional[Request]:
        """Pop the earliest-arrived head among the given typed queues."""
        queue = self._oldest_queue(type_ids)
        if queue is None:
            return None
        self.queued -= 1
        return queue.popleft()

    def _dispatch_type(self, type_id: int) -> None:
        """Dispatch pending requests of ``type_id``'s group to free
        allowed workers (FCFS across the group's typed queues)."""
        mask = self._candidate_mask.get(type_id)
        if mask is None:
            self._workers_for_type(type_id)
            mask = self._candidate_mask[type_id]
        free = self.counts.free & mask
        if not free:
            return  # no candidate core is free
        siblings = self._sibling_types(type_id)
        workers = self.workers
        # Algorithm 1's order; the walk ends at the last free candidate.
        for widx in self._candidates[type_id]:
            worker = workers[widx]
            bit = worker.bit
            if free & bit:
                request = self._pop_earliest(siblings)
                if request is None:
                    return
                self.begin_service(worker, request)
                free ^= bit
                if not free:
                    return

    def on_worker_free(self, worker: Worker) -> None:
        if not self.queued:
            return  # every pop below would come back empty
        if not worker.is_free:
            # completion_hook may have installed a new reservation and
            # already re-dispatched onto this worker.
            return
        if self.reservation is None:
            if self._startup_queue:
                self.queued -= 1
                self.begin_service(worker, self._startup_queue.popleft())
            return
        widx = worker.worker_id
        # Allocations this worker may serve, in Algorithm-1 order —
        # prefiltered at reservation install so the per-completion path
        # never intersects type sets.
        allocs = (
            self._allocs_for_worker[widx]
            if widx < len(self._allocs_for_worker)
            else ()
        )
        owner = self._owner_of_worker.get(widx)
        if self.reclaim != "priority" and owner is not None:
            # A reserved core is *guaranteed* to its group (Fig. 7): a
            # stolen core reverts to its owner on completion.  In
            # "urgent" mode a shorter group overrides the guarantee when
            # its oldest request has waited beyond the group's own mean
            # service time — the signal that the group is actively
            # degrading, not merely busy.
            if self.reclaim == "urgent":
                for alloc in allocs:
                    if alloc is owner:
                        break
                    queue = self._oldest_queue(alloc.type_ids)
                    if (
                        queue is not None
                        and self.loop.now - queue[0].arrival_time >= alloc.mean_service
                    ):
                        self.queued -= 1
                        self.begin_service(worker, queue.popleft())
                        return
            request = self._pop_earliest(owner.type_ids)
            if request is not None:
                self.begin_service(worker, request)
                return
        # Algorithm 1: walk groups in ascending service-time order and
        # serve the earliest pending request of the first group this
        # worker may take (FCFS across a group's typed queues).
        for alloc in allocs:
            request = self._pop_earliest(alloc.type_ids)
            if request is not None:
                self.begin_service(worker, request)
                return
        if widx == self.reservation.spillway_worker:
            request = self._pop_earliest(self._orphan_dispatch)
            if request is not None:
                self.begin_service(worker, request)

    def pending_scan(self) -> int:
        """Queued requests counted by walking the typed queues and the
        startup queue: the sanitizer's reference for :attr:`queued`."""
        count = len(self._startup_queue)
        for queue in self.queues.values():
            count += len(queue)
        return count

    # CPU waste is integrated once per entry point, before the entry
    # changes any worker or queue: here, in on_request, and at crash and
    # recovery.  completion_hook and on_worker_free run inside _complete,
    # at the instant it has already ticked.
    def _complete(self, worker: Worker, request: Request, overhead: float = 0.0) -> None:
        now = self.loop.now  # _tick_waste, inline
        dt = now - self._waste_last_t
        if dt > 0:
            if self.queued:
                counts = self.counts
                self._waste_area += dt * (counts.size - counts.busy - counts.failed)
            self._waste_last_t = now
        super()._complete(worker, request, overhead)

    def on_worker_crash(self, worker: Worker, requeue: bool = True) -> Optional[Request]:
        self._tick_waste()
        return super().on_worker_crash(worker, requeue)

    def on_worker_recover(self, worker: Worker) -> None:
        self._tick_waste()
        super().on_worker_recover(worker)

    # ------------------------------------------------------------------
    # profiling & reservation updates
    # ------------------------------------------------------------------
    def completion_hook(self, worker: Worker, request: Request) -> None:
        if not self.profile_enabled:
            return
        # One profiler call per completion: it returns the type's new
        # mean.  The profile is of the *measured* occupancy, which is
        # what the dispatcher observes from completion signals.
        type_id = request.classified_type  # request.effective_type()
        if type_id is None:
            type_id = request.type_id
        profiler = self.profiler
        mean = profiler.observe(type_id, request.service_time)
        first_service = request.first_service_time
        if (
            first_service is not None
            and first_service - request.arrival_time > self.slo_slowdown * mean
        ):
            self._slo_breached = True
        window_samples = profiler.window_samples
        if window_samples < self.min_samples:
            return
        if (
            self.reservation is not None
            and not self._slo_breached
            and window_samples < 4 * self.min_samples
        ):
            # Past the first install, every update needs a pending breach
            # or a window rollover; without either there is nothing to do.
            return
        self._maybe_update_reservation()

    def _maybe_update_reservation(self) -> None:
        """The window is full and, past the first install, a breach is
        pending or the window rolls over: decide whether to install a
        new reservation (§4.3.3)."""
        profiler = self.profiler
        window_samples = profiler.window_samples
        entries = profiler.window_entries()
        if not entries:
            return
        reservation = self.reservation
        if reservation is None:
            # First window closes: transition from c-FCFS to DARC.
            self._install_reservation(entries)
            profiler.reset_window()
            self._drain_startup_queue()
            return
        deviation = window_deviation(reservation.demand_shares, entries)
        # "Deviates significantly from the current demand" (§4.3.3) covers
        # two cases: the demand shares moved past the threshold, or — even
        # under small drift — re-running Algorithm 2 would grant different
        # worker counts (profiling noise near a rounding boundary).  The
        # latter matters when a group is breaching its SLO: an allocation
        # that starves a group keeps signalling until a better one lands.
        #
        # Algorithm 2's grant step decides most re-checks alone: the
        # installed plan's groups and grants over the same worker count
        # give the same worker counts, and grants_may_differ compares
        # them without building a plan.  Only a window whose grants may
        # differ is taken through a full Algorithm-2 run and compared
        # count by count.
        allocation_changed = False
        if self._slo_breached and deviation < self.min_demand_deviation:
            # Plan over the surviving cores, as _install_reservation does:
            # the installed plan covers those, not every core.
            n_workers = len(self._alive_worker_ids())
            # With no surviving core there is nothing to plan over.
            if n_workers and grants_may_differ(
                reservation.plan, entries, n_workers, self.delta, self.rounding
            ):
                candidate = compute_reservation(
                    entries,
                    n_workers=n_workers,
                    delta=self.delta,
                    rounding=self.rounding,
                    use_spillway=self.use_spillway,
                )
                allocation_changed = (
                    candidate.reserved_counts() != reservation.reserved_counts()
                )
        if self._slo_breached and (
            deviation >= self.min_demand_deviation or allocation_changed
        ):
            self._install_reservation(entries)
            profiler.reset_window()
            self._slo_breached = False
        elif deviation >= self.min_demand_deviation and window_samples >= 4 * self.min_samples:
            # Safety valve: large sustained drift updates reservations even
            # without an SLO breach (e.g. load so low queues never build).
            self._install_reservation(entries)
            profiler.reset_window()
        elif window_samples >= 4 * self.min_samples:
            # Window rollover: keep ratio estimates fresh and expire stale
            # breach signals so one old breach cannot pair with a much
            # later allocation blip.
            profiler.reset_window()
            self._slo_breached = False

    def _alive_worker_ids(self) -> List[int]:
        """Ids of the cores that are not failed, the ones a reservation
        covers (under a core allocator, of the leased cores).  Runs at
        installs and at breach re-checks, not on every event."""
        return [  # repro-analyze: disable=A401
            i for i, w in enumerate(self.workers) if not w.failed
        ]

    def _drain_startup_queue(self) -> None:
        pending = list(self._startup_queue)
        self._startup_queue.clear()
        for request in pending:
            type_id = request.effective_type()
            queue = self.queues.get(type_id)
            if queue is None:
                queue = deque()
                self.queues[type_id] = queue
                self._register_type(type_id)
            queue.append(request)
        # _dispatch_type never mutates the order list (new types are only
        # registered from on_request / the drain loop above), so no
        # defensive copy is needed.
        for type_id in self._order:
            self._dispatch_type(type_id)

    def _install_reservation(self, entries) -> None:
        """Compute and adopt a new reservation; O(~1000 cycles) in the
        prototype, one Algorithm-2 run here.

        The reservation is computed over the *surviving* cores only: a
        crashed worker must never be named by an allocation, otherwise
        its typed queues would strand (no other worker may drain them).
        """
        # This function runs once per reservation *update* (a handful of
        # times per run), never per event: the comprehensions below are
        # exactly the precomputation that keeps the per-event paths
        # allocation-free, so A401 is suppressed with intent here.
        alive = self._alive_worker_ids()
        if not alive:
            # Total outage: keep the stale reservation; every dispatch
            # path checks worker.is_free, so requests queue until a
            # recovery re-installs over the returning cores.
            return
        self._last_entries = list(entries)
        self.reservation = compute_reservation(
            entries,
            n_workers=len(alive),
            delta=self.delta,
            rounding=self.rounding,
            use_spillway=self.use_spillway,
            worker_ids=alive if len(alive) != len(self.workers) else None,
        )
        covered: Set[int] = set()
        self._allowed = [set() for _ in self.workers]  # repro-analyze: disable=A401
        self._owner_of_worker = {}
        self._allocs_for_worker = [[] for _ in self.workers]  # repro-analyze: disable=A401
        self._candidates = {}
        self._candidate_mask = {}
        self._siblings = {}
        for alloc in self.reservation.allocations:
            workers = alloc.allowed_workers() if self.steal else alloc.reserved
            for widx in workers:
                self._allowed[widx].update(alloc.type_ids)
                self._allocs_for_worker[widx].append(alloc)
            for widx in alloc.reserved:
                # First reservation wins (a shared spillway core belongs
                # to the first group that claimed it).
                self._owner_of_worker.setdefault(widx, alloc)
            covered.update(alloc.type_ids)
        # Rebuild dispatch order from the reservation's ascending groups,
        # then append orphans (types outside the reservation).
        ordered = [  # repro-analyze: disable=A401
            tid for alloc in self.reservation.allocations for tid in alloc.type_ids
        ]
        known = set(ordered)
        orphans = [tid for tid in self.queues if tid not in known]  # repro-analyze: disable=A401
        self._orphan_types = set(orphans)
        self._orphan_dispatch = sorted(  # repro-analyze: disable=A401
            self._orphan_types | {UNKNOWN_TYPE}
        )
        self._order = ordered + sorted(orphans)
        for tid in self._order:
            self.queues.setdefault(tid, deque())
        self.reservation_updates += 1
        if self.loop is not None:
            reserved_counts = {  # repro-analyze: disable=A401
                tid: len(self.reservation.group_for_type(tid).reserved)
                for tid in covered
            }
            self.reservation_log.append((self.loop.now, reserved_counts))
            if self._reservation_hooks is not None:
                for hook in self._reservation_hooks:
                    hook(self._last_entries, self.reservation, reserved_counts, len(alive))
        # Newly-permitted idle workers should pick up pending work now.
        for tid in self._order:
            self._dispatch_type(tid)

    def on_capacity_change(self) -> None:
        """A worker crashed or recovered: re-run Algorithm 2 over the
        surviving cores.

        Re-uses the profile entries behind the current reservation rather
        than the live profiling window (which may be empty right after a
        ``reset_window``), so the re-reservation reflects the established
        demand over the new capacity.  During the c-FCFS startup window
        there is nothing to recompute — any free worker serves any type.
        """
        if self.reservation is None or self._last_entries is None:
            return
        if self.counts.failed == self.counts.size:
            # Total outage: nothing to reserve over.  The stale
            # reservation stays; dispatch halts because no worker is
            # free, and the first recovery re-enters here.
            return
        self._install_reservation(self._last_entries)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def reserved_count(self, type_id: int) -> int:
        """Workers currently guaranteed to ``type_id``'s group (Fig. 7)."""
        if self.reservation is None:
            return 0
        alloc = self.reservation.group_for_type(type_id)
        return len(alloc.reserved) if alloc else 0

    def worker_may_serve(self, worker_id: int, type_id: int) -> bool:
        """True when the current reservation permits ``worker_id`` to
        serve requests of ``type_id``.

        During the c-FCFS startup window (no reservation yet) every
        worker may serve every type.  Types outside the reservation
        (orphans and UNKNOWN) are eligible only on the spillway core.
        Used by the runtime sanitizer to assert that typed queues only
        drain to eligible workers.
        """
        if self.reservation is None:
            return True
        if worker_id < len(self._allowed) and type_id in self._allowed[worker_id]:
            return True
        spill = self.reservation.spillway_worker
        if spill is not None and worker_id == spill:
            return self.reservation.group_for_type(type_id) is None
        return False

    def expected_waste(self) -> float:
        """Analytic Eq. 2 waste of the current reservation."""
        return self.reservation.expected_waste() if self.reservation else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        mode = "profiled" if self.profile_enabled else "oracle"
        return (
            f"DarcScheduler({mode}, delta={self.delta}, "
            f"updates={self.reservation_updates})"
        )
