"""Worker reservation — Algorithm 2 of the paper.

Given the grouped profile and ``n_workers``, compute how many workers
each group *reserves* and which additional workers it may *steal* from.
Groups are processed in ascending service-time order, so shorter groups
reserve first and may steal from every worker handed to longer groups —
the selective work conservation at the heart of DARC.

Spillway: when the free-worker pool is exhausted, ``next_free_worker()``
returns the designated spillway core (the highest-numbered worker), which
therefore may serve multiple under-provisioned long groups plus all
UNKNOWN requests.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from .grouping import TypeEntry, TypeGroup, demand_total, group_demands, groups_at

ROUNDING_MODES = ("round", "ceil", "floor")


class GroupAllocation:
    """One group's share of the machine."""

    __slots__ = (
        "group",
        "demand_workers",
        "reserved",
        "stealable",
        "used_spillway",
        "mean_service",
    )

    def __init__(
        self,
        group: TypeGroup,
        demand_workers: float,
        reserved: List[int],
        stealable: List[int],
        used_spillway: bool,
    ):
        self.group = group
        #: Fractional worker demand d = (g.S / S) * W.
        self.demand_workers = demand_workers
        #: Worker ids this group owns.
        self.reserved = reserved
        #: Worker ids this group may steal (reserved by longer groups).
        self.stealable = stealable
        self.used_spillway = used_spillway
        #: The group's occurrence-weighted mean service time, summed once
        #: here rather than on every completion that reads it (DARC's
        #: urgent-reclaim threshold).
        self.mean_service = group.mean_service()

    @property
    def type_ids(self) -> List[int]:
        return self.group.type_ids

    def allowed_workers(self) -> List[int]:
        """Reserved then stealable — Algorithm 1's search order."""
        return self.reserved + self.stealable

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"GroupAllocation(types={self.type_ids}, d={self.demand_workers:.3f}, "
            f"reserved={self.reserved}, stealable={self.stealable})"
        )


class Reservation:
    """The full allocation produced by one run of Algorithm 2."""

    __slots__ = (
        "allocations",
        "n_workers",
        "spillway_worker",
        "demand_shares",
        "plan",
        "_group_of_type",
    )

    def __init__(
        self,
        allocations: List[GroupAllocation],
        n_workers: int,
        spillway_worker: Optional[int],
        demand_shares: Dict[int, float],
        plan: "GrantPlan",
    ):
        self.allocations = allocations
        self.n_workers = n_workers
        #: Worker id that backstops starved groups and UNKNOWN requests.
        self.spillway_worker = spillway_worker
        #: Per-type Δ_i at reservation time, kept for deviation checks.
        self.demand_shares = demand_shares
        #: The groups and grants the workers were assigned from.
        self.plan = plan
        self._group_of_type: Dict[int, GroupAllocation] = {}
        for alloc in allocations:
            for tid in alloc.type_ids:
                self._group_of_type[tid] = alloc

    def group_for_type(self, type_id: int) -> Optional[GroupAllocation]:
        return self._group_of_type.get(type_id)

    def reserved_counts(self) -> Dict[int, int]:
        """type_id -> number of workers reserved to its group."""
        return {
            tid: len(alloc.reserved)
            for alloc in self.allocations
            for tid in alloc.type_ids
        }

    def expected_waste(self) -> float:
        """Analytic average CPU waste (paper Eq. 2 with the min-1 rule and
        cycle stealing).

        A group's over-grant (integral workers beyond fractional demand)
        is waste *unless shorter groups can steal it*: iterating in
        ascending service-time order, under-provisioned groups bank
        "steal credit" that absorbs the over-grants of later (longer)
        groups.  Over-grants to the shortest groups are unrecoverable —
        longer requests are never allowed on those cores.

        Matches the paper: ≈0.86 core on High Bimodal (§5.2), ≈0.97 on
        RocksDB (§5.4.4), and 0 on TPC-C (§5.4.3, "groups A and B are
        slightly under-provisioned and can steal from C").
        """
        credit = 0.0
        waste = 0.0
        for alloc in self.allocations:
            granted = len(alloc.reserved)
            if alloc.used_spillway:
                # A shared spillway core is not an exclusive grant.
                granted -= 1
            delta = granted - alloc.demand_workers
            if delta < 0:
                credit += -delta
            else:
                absorbed = min(delta, credit)
                credit -= absorbed
                waste += delta - absorbed
        return waste

    def describe(self) -> str:
        """Human-readable allocation table for logs and examples."""
        lines = [f"Reservation over {self.n_workers} workers "
                 f"(spillway={self.spillway_worker}, expected waste="
                 f"{self.expected_waste():.2f} cores)"]
        for i, alloc in enumerate(self.allocations):
            lines.append(
                f"  group {i}: types={alloc.type_ids} demand={alloc.demand_workers:.2f} "
                f"reserved={alloc.reserved} stealable={alloc.stealable}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Reservation({len(self.allocations)} groups, W={self.n_workers})"


class GrantPlan:
    """Algorithm 2's first step: the δ-groups and each group's integral
    worker grant, before any worker id is assigned.

    Two plans for which :meth:`same_grants` holds assign equal worker
    counts to every type: the assignment step reads only the grants, the
    pool size and the spillway switch.
    """

    __slots__ = (
        "entries",
        "n_workers",
        "groups",
        "type_ids",
        "cuts",
        "total_demand",
        "demands",
        "grants",
    )

    def __init__(
        self,
        entries: Sequence[TypeEntry],
        n_workers: int,
        ordered: Sequence[TypeEntry],
        cuts: List[int],
        total_demand: float,
        demands: List[float],
        grants: List[int],
    ):
        self.entries = entries
        self.n_workers = n_workers
        self.groups = groups_at(ordered, cuts)
        #: Every grouped type id, in ascending-mean (group) order.  A
        #: plan is built only when the grants may change (see groups_at).
        self.type_ids = [tid for tid, _, _ in ordered]  # repro-analyze: disable=A401
        #: Per group, the end index of its types in ``type_ids``.
        self.cuts = cuts
        #: S of Algorithm 2: Σ g.S over every group.
        self.total_demand = total_demand
        #: Per group, the fractional worker demand d = (g.S / S) * W.
        self.demands = demands
        #: Per group, the rounded grant max(1, round(d)).
        self.grants = grants

    def same_grants(self, other: "GrantPlan") -> bool:
        """True when both plans group the same type ids, in the same
        order, with the same grants over the same ``n_workers``."""
        return (
            self.n_workers == other.n_workers
            and self.grants == other.grants
            and self.cuts == other.cuts
            and self.type_ids == other.type_ids
        )


def grant_step(
    ordered: Sequence[TypeEntry], n_workers: int, delta: float, rounding: str
) -> Tuple[List[int], float, List[float], List[int]]:
    """The arithmetic of Algorithm 2's grant step over ``ordered``
    (entries in ascending mean order): ``(cuts, total_demand, demands,
    grants)``, where ``cuts`` are :func:`group_demands`'s group ends.

    The one implementation of demand and rounding: both
    :func:`plan_grants` and :func:`grants_may_differ` (DARC's breach
    re-check) call it.  Each group's g.S is summed in entry order, S
    sums the groups in group order, and d = g.S / S * W.
    """
    cuts, contributions = group_demands(ordered, delta)
    total_demand = 0.0
    for contribution in contributions:
        total_demand += contribution
    if total_demand <= 0:
        raise ConfigurationError("total CPU demand is zero")
    if rounding not in ROUNDING_MODES:
        raise ConfigurationError(f"unknown rounding mode {rounding!r}")
    demands: List[float] = []
    grants: List[int] = []
    for contribution in contributions:
        demand = contribution / total_demand * n_workers
        demands.append(demand)
        if rounding == "round":
            # Banker's rounding would under-grant exactly-half demands;
            # the paper's round() is conventional half-up.
            grant = math.floor(demand + 0.5)
        elif rounding == "ceil":
            grant = math.ceil(demand)
        else:
            grant = math.floor(demand)
        # max(1, round(d)): every group gets a worker.
        grants.append(grant if grant >= 1 else 1)
    return cuts, total_demand, demands, grants


def plan_grants(
    entries: Sequence[TypeEntry],
    n_workers: int,
    delta: float = 2.0,
    rounding: str = "round",
) -> GrantPlan:
    """Group ``(type_id, mean_service, ratio)`` entries and round each
    group's worker demand to its grant: Algorithm 2 up to, not including,
    the choice of worker ids."""
    if n_workers < 1:
        raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
    if rounding not in ROUNDING_MODES:
        raise ConfigurationError(f"rounding must be one of {ROUNDING_MODES}")
    if not entries:
        raise ConfigurationError("cannot reserve for an empty profile")
    if delta < 1.0:
        raise ConfigurationError(f"delta must be >= 1.0, got {delta}")

    # Runs when a reservation is installed and when a breach re-check
    # finds that the grants may differ (grants_may_differ); the sort, the
    # groups and the plan are allocated once per call.
    ordered = sorted(entries, key=lambda e: e[1])  # repro-analyze: disable=A401
    cuts, total_demand, demands, grants = grant_step(ordered, n_workers, delta, rounding)
    return GrantPlan(entries, n_workers, ordered, cuts, total_demand, demands, grants)


def grants_may_differ(
    plan: GrantPlan,
    ordered: Sequence[TypeEntry],
    n_workers: int,
    delta: float,
    rounding: str,
) -> bool:
    """``not plan_grants(ordered, n_workers, delta, rounding).same_grants(plan)``
    for entries already in ascending mean order, without building the
    new plan or its groups.

    Used by DARC's breach re-check on every completion while a breach is
    pending: the type ids are compared first, then :func:`grant_step`'s
    cuts and grants.
    """
    type_ids = plan.type_ids
    if n_workers != plan.n_workers or len(ordered) != len(type_ids):
        return True
    for entry, tid in zip(ordered, type_ids):
        if entry[0] != tid:
            return True
    cuts, _, _, grants = grant_step(ordered, n_workers, delta, rounding)
    return cuts != plan.cuts or grants != plan.grants


def assign_workers(
    plan: GrantPlan,
    use_spillway: bool = True,
    worker_ids: Optional[Sequence[int]] = None,
) -> Reservation:
    """Algorithm 2's second step: hand each group of ``plan`` its granted
    workers, in ascending service-time order, from the pool
    ``worker_ids`` (default ``0 .. n_workers - 1``)."""
    n_workers = plan.n_workers
    if worker_ids is not None and len(worker_ids) != n_workers:
        raise ConfigurationError(
            f"worker_ids has {len(worker_ids)} entries for n_workers={n_workers}"
        )
    pool = list(worker_ids) if worker_ids is not None else list(range(n_workers))
    spillway = pool[-1] if use_spillway else None
    allocations: List[GroupAllocation] = []
    start = 0  # pool[start:] is still unreserved

    # Runs when a reservation is installed or a re-check's plan differs
    # from the installed one; the slices are the allocations' own lists.
    for group, demand, grant in zip(plan.groups, plan.demands, plan.grants):
        reserved = pool[start:start + grant]  # repro-analyze: disable=A401
        start += len(reserved)
        used_spillway = False
        if len(reserved) < grant and spillway is not None and spillway not in reserved:
            # The pool ran dry: next_free_worker() falls back to the
            # spillway core; one mention is enough (a worker id appears
            # at most once).
            reserved.append(spillway)
            used_spillway = True
        if not reserved:
            # No pool, no spillway: the group shares the last reserved
            # worker of the previous group rather than being denied.
            reserved = (
                [allocations[-1].reserved[-1]]  # repro-analyze: disable=A401
                if allocations
                else [pool[0]]
            )
        # Stealable workers are those not yet reserved at this point in
        # the iteration — they will belong to longer groups (Algorithm 2).
        stealable = pool[start:]
        allocations.append(
            GroupAllocation(group, demand, reserved, stealable, used_spillway)
        )

    total_demand = plan.total_demand
    shares = {}
    for tid, mean, ratio in plan.entries:
        shares[tid] = mean * ratio / total_demand
    return Reservation(allocations, n_workers, spillway, shares, plan)


def compute_reservation(
    entries: Sequence[TypeEntry],
    n_workers: int,
    delta: float = 2.0,
    rounding: str = "round",
    use_spillway: bool = True,
    worker_ids: Optional[Sequence[int]] = None,
) -> Reservation:
    """Run Algorithm 2 over ``(type_id, mean_service, ratio)`` entries:
    :func:`plan_grants`, then :func:`assign_workers`.

    Returns a :class:`Reservation`.  Worker ids are 0-based indices into
    the server's worker list; the spillway is the last worker.

    ``worker_ids`` restricts the allocation to an explicit id set (in
    allocation order) — fault injection passes the surviving cores here
    so a reservation never names a crashed worker.  When given, it must
    have exactly ``n_workers`` entries; the spillway is its last id.
    """
    plan = plan_grants(entries, n_workers, delta=delta, rounding=rounding)
    return assign_workers(plan, use_spillway=use_spillway, worker_ids=worker_ids)


def demand_deviation(old_shares: Dict[int, float], new_shares: Dict[int, float]) -> float:
    """Largest absolute per-type change in demand share Δ_i.

    DARC triggers a reservation update when this exceeds the configured
    threshold (10% in the paper, §4.3.3).  Types absent from one side
    count with share zero there.  DARC itself measures the deviation of
    a profiling window with :func:`window_deviation`, which gives this
    function's result without a share dict; this is the reference.
    """
    keys = set(old_shares) | set(new_shares)
    if not keys:
        return 0.0
    return max(
        abs(new_shares.get(k, 0.0) - old_shares.get(k, 0.0)) for k in keys
    )


def window_deviation(old_shares: Dict[int, float], ordered: Sequence[TypeEntry]) -> float:
    """``demand_deviation(old_shares, ProfileSnapshot(ordered).demand_shares())``
    for entries already in ascending mean order, without the share dict.

    The new shares use the snapshot's arithmetic (S_i R_i over
    :func:`demand_total` of ``ordered``); DARC calls this on every
    completion while an SLO breach is pending.
    """
    total = demand_total(ordered)
    zero = total <= 0
    deviation = 0.0
    matched = 0
    for tid, mean, ratio in ordered:
        old = old_shares.get(tid)
        if old is None:
            old = 0.0
        else:
            matched += 1
        change = abs((0.0 if zero else mean * ratio / total) - old)
        if change > deviation:
            deviation = change
    if matched < len(old_shares):
        # A type of the old shares is missing from the window: its new
        # share is zero.  Rare (a vanished type), so the set is built here.
        present = {tid for tid, _, _ in ordered}  # repro-analyze: disable=A401
        for tid, old in old_shares.items():
            if tid not in present:
                change = abs(0.0 - old)
                if change > deviation:
                    deviation = change
    return deviation
