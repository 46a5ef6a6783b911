"""Type grouping by service-time similarity (§3, Algorithm 2 line 1).

Grouping reduces the number of fractional worker-demand ties: types whose
average service times fall within a factor δ of each other share one
group, and the group — not the type — receives a worker reservation.

With the paper's TPC-C profile and δ = 2 this yields exactly the paper's
grouping: {Payment, OrderStatus}, {NewOrder}, {Delivery, StockLevel}.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..errors import ConfigurationError

#: (type_id, mean_service_us, occurrence_ratio)
TypeEntry = Tuple[int, float, float]


def demand_total(entries: Sequence[TypeEntry]) -> float:
    """Σ S·R over ``entries``, summed left to right from 0.0, so every
    caller agrees bit for bit on every Python version (builtin ``sum``
    compensates float rounding from CPython 3.12 on)."""
    total = 0.0
    for _, mean, ratio in entries:
        total += mean * ratio
    return total


class TypeGroup:
    """A set of similar request types treated as one reservation unit."""

    __slots__ = ("entries", "type_ids")

    def __init__(self, entries: List[TypeEntry]):
        self.entries = entries
        #: The group's type ids, in ``entries`` order.  Built once per
        #: group (groups are made only when a reservation is computed),
        #: so DARC's dispatch path reads it without allocating.
        self.type_ids: List[int] = [tid for tid, _, _ in entries]  # repro-analyze: disable=A401

    @property
    def min_service(self) -> float:
        return self.entries[0][1]

    @property
    def max_service(self) -> float:
        return self.entries[-1][1]

    def demand_contribution(self) -> float:
        """g.S of Algorithm 2: Σ τ.S · τ.R over the group's types."""
        return demand_total(self.entries)

    def occurrence(self) -> float:
        """Combined occurrence ratio of the group's types."""
        return sum(ratio for _, _, ratio in self.entries)

    def mean_service(self) -> float:
        """Occurrence-weighted mean service time of the group."""
        occ = self.occurrence()
        if occ <= 0:
            return 0.0
        return self.demand_contribution() / occ

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TypeGroup(types={self.type_ids}, S=[{self.min_service}, {self.max_service}])"


def group_demands(
    ordered: Sequence[TypeEntry], delta: float
) -> Tuple[List[int], List[float]]:
    """:func:`group_types`'s grouping of ``ordered``, entries already in
    ascending mean order, as flat lists: the end index of each group and
    each group's g.S (:meth:`TypeGroup.demand_contribution`, summed in
    entry order), in group order.

    This is the one implementation of the grouping rule.  Algorithm 2's
    grant step (``reservation.grant_step``) runs on it directly, so DARC's
    breach re-check compares a window with the installed plan without
    building :class:`TypeGroup` objects.
    """
    cuts: List[int] = []
    contributions: List[float] = []
    limit = 0.0
    contribution = 0.0
    i = 0
    for tid, mean, ratio in ordered:
        if mean <= 0:
            raise ConfigurationError(f"type {tid} has non-positive mean {mean}")
        if i == 0:
            limit = mean * delta
        elif not mean <= limit:
            cuts.append(i)
            contributions.append(contribution)
            contribution = 0.0
            limit = mean * delta
        contribution += mean * ratio
        i += 1
    if i:
        cuts.append(i)
        contributions.append(contribution)
    return cuts, contributions


def group_types(entries: Sequence[TypeEntry], delta: float) -> List[TypeGroup]:
    """Partition types into groups of δ-similar service times.

    Types are sorted by ascending mean service time; a type joins the
    current group while its mean is within ``delta`` times the group's
    *smallest* member, otherwise it starts a new group.  The result is
    ordered by ascending service time, which is the priority order DARC
    dispatches in.

    ``delta = 1.0`` puts every distinct service time in its own group;
    very large δ collapses everything into a single group (degenerating
    DARC to c-FCFS with one shared reservation).
    """
    if delta < 1.0:
        raise ConfigurationError(f"delta must be >= 1.0, got {delta}")
    ordered = sorted(entries, key=lambda e: e[1])
    cuts, _ = group_demands(ordered, delta)
    return groups_at(ordered, cuts)


def groups_at(ordered: Sequence[TypeEntry], cuts: Sequence[int]) -> List[TypeGroup]:
    """The :class:`TypeGroup` objects of ``ordered`` cut at ``cuts``.

    Built with a :class:`~repro.core.reservation.GrantPlan`: when DARC
    installs a reservation, or when a breach re-check finds the grants
    may differ.  The slices are the groups' own entry lists.
    """
    groups: List[TypeGroup] = []
    start = 0
    for end in cuts:
        groups.append(TypeGroup(ordered[start:end]))  # repro-analyze: disable=A401
        start = end
    return groups
