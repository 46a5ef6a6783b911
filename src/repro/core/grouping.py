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
        return sum(mean * ratio for _, mean, ratio in self.entries)

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
    # Grouping runs once per reservation update (seconds apart in sim
    # time), never per event; the allocations below are not on the
    # per-request path even though DARC's update cycle reaches here.
    ordered = sorted(entries, key=lambda e: e[1])  # repro-analyze: disable=A401
    groups: List[TypeGroup] = []
    current: List[TypeEntry] = []
    anchor = 0.0
    for entry in ordered:
        mean = entry[1]
        if mean <= 0:
            raise ConfigurationError(f"type {entry[0]} has non-positive mean {mean}")
        if not current:
            current = [entry]  # repro-analyze: disable=A401
            anchor = mean
        elif mean <= anchor * delta:
            current.append(entry)
        else:
            groups.append(TypeGroup(current))
            current = [entry]
            anchor = mean
    if current:
        groups.append(TypeGroup(current))
    return groups
