"""Rack-tier chaos: whole-server crashes and rack partitions.

The worker-level DSL (:mod:`repro.faults.plan`) speaks in cores; a rack
experiment wants to speak in *servers*.  This module adds that layer:

* :class:`ServerCrash` / :class:`ServerRecover` — take a whole replica
  down (every core) and bring it back; expands into per-core
  ``WorkerCrash``/``WorkerRecover`` plans armed through the existing
  :class:`~repro.faults.injector.FaultInjector`, so all in-flight
  semantics (requeue vs drop) are inherited unchanged.
* :class:`RackPartition` — the balancer loses reach to a set of
  replicas during ``[at, until)`` while those replicas keep draining
  their queues (the classic grey partition); implemented purely at the
  balancer via :meth:`~repro.rack.balancers.RackBalancer.set_reachable`.

A :class:`RackFaultPlan` is data, like its worker-level counterpart;
:class:`RackFaultInjector` arms one against the rack's loop, servers
and balancer, and aggregates injection counters per tier.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan, WorkerCrash, WorkerRecover
from ..server.server import Server
from ..sim.engine import EventLoop
from .balancers import RackBalancer


class RackFaultEvent:
    """Base class for rack-tier events; ``at`` is simulated time (us)."""

    __slots__ = ("at",)

    kind = "rack-fault"

    def __init__(self, at: float):
        if at < 0:
            raise ConfigurationError(f"fault time must be >= 0, got {at}")
        self.at = float(at)

    def describe(self) -> str:
        return f"{self.kind}@{self.at:.1f}us"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(at={self.at})"


class ServerCrash(RackFaultEvent):
    """Replica ``server_id`` loses every core at ``at``."""

    __slots__ = ("server_id", "requeue")

    kind = "server-crash"

    def __init__(self, at: float, server_id: int, requeue: bool = True):
        super().__init__(at)
        if server_id < 0:
            raise ConfigurationError(f"server_id must be >= 0, got {server_id}")
        self.server_id = server_id
        self.requeue = requeue

    def describe(self) -> str:
        return f"{self.kind}(s{self.server_id})@{self.at:.1f}us"


class ServerRecover(RackFaultEvent):
    """Replica ``server_id`` restarts every core at ``at``."""

    __slots__ = ("server_id",)

    kind = "server-recover"

    def __init__(self, at: float, server_id: int):
        super().__init__(at)
        if server_id < 0:
            raise ConfigurationError(f"server_id must be >= 0, got {server_id}")
        self.server_id = server_id

    def describe(self) -> str:
        return f"{self.kind}(s{self.server_id})@{self.at:.1f}us"


class RackPartition(RackFaultEvent):
    """The balancer cannot reach ``server_ids`` during ``[at, until)``.

    Partitioned replicas stay up and keep serving what they already
    queued; only *new* routing avoids them.
    """

    __slots__ = ("until", "server_ids")

    kind = "partition"

    def __init__(self, at: float, until: float, server_ids: Sequence[int]):
        super().__init__(at)
        if until <= at:
            raise ConfigurationError(f"until={until} must be > at={at}")
        if not server_ids:
            raise ConfigurationError("partition needs at least one server id")
        for sid in server_ids:
            if sid < 0:
                raise ConfigurationError(f"server_id must be >= 0, got {sid}")
        self.until = float(until)
        self.server_ids = tuple(server_ids)

    def describe(self) -> str:
        ids = ",".join(f"s{i}" for i in self.server_ids)
        return f"{self.kind}({ids})@{self.at:.1f}..{self.until:.1f}us"


class RackFaultPlan:
    """An ordered collection of rack-tier fault events (pure data)."""

    def __init__(self, events: Iterable[RackFaultEvent] = ()):
        staged: List[RackFaultEvent] = []
        for event in events:
            if not isinstance(event, RackFaultEvent):
                raise ConfigurationError(
                    f"rack fault plans hold RackFaultEvent instances, got {event!r}"
                )
            staged.append(event)
        # Stable sort: same-instant events keep their authored order.
        self.events: List[RackFaultEvent] = sorted(staged, key=lambda e: e.at)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def server_crash_recover(
        cls,
        server_ids: Sequence[int],
        crash_at: float,
        recover_at: Optional[float] = None,
        requeue: bool = True,
    ) -> "RackFaultPlan":
        """Crash whole replicas at ``crash_at``; optionally restart them
        all at ``recover_at``."""
        events: List[RackFaultEvent] = [
            ServerCrash(crash_at, sid, requeue=requeue) for sid in server_ids
        ]
        if recover_at is not None:
            if recover_at <= crash_at:
                raise ConfigurationError(
                    f"recover_at={recover_at} must be > crash_at={crash_at}"
                )
            events.extend(ServerRecover(recover_at, sid) for sid in server_ids)
        return cls(events)

    @classmethod
    def partition(
        cls, server_ids: Sequence[int], at: float, until: float
    ) -> "RackFaultPlan":
        """A single grey partition of ``server_ids`` during ``[at, until)``."""
        return cls([RackPartition(at, until, server_ids)])

    def add(self, event: RackFaultEvent) -> "RackFaultPlan":
        """Return a new plan with ``event`` added."""
        return RackFaultPlan(self.events + [event])

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        return not self.events

    def __len__(self) -> int:
        return len(self.events)

    def validate(self, n_servers: int) -> None:
        """Check every event's server ids against the rack size."""
        for event in self.events:
            ids: Tuple[int, ...]
            if isinstance(event, RackPartition):
                ids = event.server_ids
            else:
                ids = (event.server_id,)  # type: ignore[attr-defined]
            for sid in ids:
                if sid >= n_servers:
                    raise ConfigurationError(
                        f"{event.describe()} targets server {sid} but the "
                        f"rack has only {n_servers} servers"
                    )

    def first_fault_time(self) -> Optional[float]:
        """When the first disruption starts (None for an empty plan)."""
        return self.events[0].at if self.events else None

    def describe(self) -> str:
        if self.is_empty:
            return "RackFaultPlan(empty)"
        return "RackFaultPlan[" + ", ".join(e.describe() for e in self.events) + "]"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return self.describe()


class RackFaultInjector:
    """Arms a :class:`RackFaultPlan` against a rack.

    Server crash/recover events compile into one worker-level
    :class:`~repro.faults.plan.FaultPlan` per targeted replica (crashing
    every core), executed by the standard per-server
    :class:`~repro.faults.injector.FaultInjector`.  Partitions schedule
    reachability flips directly on the balancer.
    """

    def __init__(self, plan: RackFaultPlan):
        self.plan = plan
        self._armed = False
        self._loop: Optional[EventLoop] = None
        self._balancer: Optional[RackBalancer] = None
        #: server index -> the worker-level injector executing its faults.
        self.server_injectors: Dict[int, FaultInjector] = {}
        self.partitions = 0
        self.partition_heals = 0
        #: Chronological record of partition flips: (time, kind, server).
        self.log: List[Tuple[float, str, int]] = []

    def arm(self, loop: EventLoop, servers: Sequence[Server], balancer: RackBalancer) -> None:
        """Compile and schedule the plan against ``servers``/``balancer``."""
        if self._armed:
            raise ConfigurationError("rack injector already armed")
        self.plan.validate(len(servers))
        self._armed = True
        self._loop = loop
        self._balancer = balancer
        per_server: Dict[int, List] = {}
        partitions: List[RackPartition] = []
        for event in self.plan.events:
            if isinstance(event, ServerCrash):
                worker_ids = range(len(servers[event.server_id].workers))
                per_server.setdefault(event.server_id, []).extend(
                    WorkerCrash(event.at, wid, requeue=event.requeue)
                    for wid in worker_ids
                )
            elif isinstance(event, ServerRecover):
                worker_ids = range(len(servers[event.server_id].workers))
                per_server.setdefault(event.server_id, []).extend(
                    WorkerRecover(event.at, wid) for wid in worker_ids
                )
            elif isinstance(event, RackPartition):
                partitions.append(event)
        # Explicit tie-break: every start is booked before any end, so at
        # one instant partitions open before others close.  Abutting
        # partitions of a replica then never let it read as reachable at
        # the seam, and the log lists the open before the heal.
        for event in partitions:
            loop.call_at(event.at, self._partition_start, event)  # repro-analyze: disable=A002
        for event in partitions:
            loop.call_at(event.until, self._partition_end, event)
        for sid in sorted(per_server):
            injector = FaultInjector(FaultPlan(per_server[sid]))
            injector.arm(loop, servers[sid])
            self.server_injectors[sid] = injector

    def _partition_start(self, event: RackPartition) -> None:
        assert self._balancer is not None and self._loop is not None
        for sid in event.server_ids:
            self._balancer.set_reachable(sid, False)
            self.partitions += 1
            self.log.append((self._loop.now, "partition", sid))

    def _partition_end(self, event: RackPartition) -> None:
        assert self._balancer is not None and self._loop is not None
        for sid in event.server_ids:
            self._balancer.set_reachable(sid, True)
            self.partition_heals += 1
            self.log.append((self._loop.now, "partition-heal", sid))

    def counters(self) -> dict:
        """Aggregated injection totals across all targeted replicas."""
        totals = {
            "server_crashes": 0,
            "server_recoveries": 0,
            "partitions": self.partitions,
            "partition_heals": self.partition_heals,
            "worker_crashes": 0,
            "worker_recoveries": 0,
            "requeued": 0,
            "dropped_in_flight": 0,
        }
        for injector in self.server_injectors.values():
            counters = injector.counters()
            totals["worker_crashes"] += counters["crashes"]
            totals["worker_recoveries"] += counters["recoveries"]
            totals["requeued"] += counters["requeued"]
            totals["dropped_in_flight"] += counters["dropped_in_flight"]
        for event in self.plan.events:
            if isinstance(event, ServerCrash):
                totals["server_crashes"] += 1
            elif isinstance(event, ServerRecover):
                totals["server_recoveries"] += 1
        return totals

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RackFaultInjector({self.plan.describe()}, armed={self._armed})"
