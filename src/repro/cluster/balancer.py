"""Cluster load balancing across replicated servers.

The paper's motivation is datacenter-scale: services replicate across
machines and front-ends pick a replica per request.  This module adds
that layer above :class:`~repro.server.server.Server` so cluster-level
questions ("does DARC still win behind a join-shortest-queue balancer?")
are answerable.

Balancer policies:

* :class:`RandomBalancer`       — uniform random replica;
* :class:`RoundRobinBalancer`   — rotate replicas;
* :class:`JoinShortestQueue`    — least (pending + in-flight) work, the
  classic JSQ;
* :class:`TypeAwareBalancer`    — partition replicas by request type, a
  cluster-level analogue of DARC's core reservation (shorts get
  dedicated replicas).

Every policy routes around *dead* replicas (all cores crashed,
:attr:`~repro.server.server.Server.alive` False) and *unreachable*
ones (partitioned away from the front end, see
:meth:`Balancer.set_reachable`): the candidate set shrinks to the
available replicas.  Only when the whole cluster is down does routing
fall back — to the **least-loaded** dead replica, so the queued
backlog is spread rather than piled onto whatever arbitrary index the
policy's ``pick`` would have returned (the request then queues at a
dead replica rather than vanishing, keeping request conservation
intact for when cores recover).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from ..errors import ConfigurationError
from ..server.server import Server
from ..workload.request import Request


class Balancer(ABC):
    """Chooses a replica for each arriving request."""

    def __init__(self, servers: Sequence[Server]):
        if not servers:
            raise ConfigurationError("need at least one server")
        self.servers = list(servers)
        self.routed = 0
        #: Requests routed to each replica index (telemetry view).
        self.route_counts: List[int] = [0] * len(self.servers)
        #: Optional pure observer called as ``sink(request, index)``
        #: after every routing decision, before the request is handed to
        #: the chosen replica (rack tracing's balancer decision log).
        self._decision_sink = None
        #: Replica indices currently partitioned away from this front
        #: end (``repro.rack`` partition faults); never routed to while
        #: any reachable replica exists.
        self.unreachable: Set[int] = set()
        #: Open partitions per unreachable replica index: overlapping
        #: partitions heal only when the last of them ends.
        self._partitions: Dict[int, int] = {}
        self._everyone = list(range(len(self.servers)))
        #: Cached available replica indices (None = rebuild on next
        #: read); invalidated only by a server's liveness flip or a
        #: reachability change.
        self._live: Optional[List[int]] = None
        for server in self.servers:
            server.watch_alive(self._invalidate_live)

    @abstractmethod
    def pick(self, request: Request) -> int:
        """Index of the replica that should serve ``request``."""

    def available(self, index: int) -> bool:
        """True when replica ``index`` is alive and reachable."""
        return self.servers[index].alive and index not in self.unreachable

    def set_reachable(self, index: int, reachable: bool) -> None:
        """Open (``reachable=False``) or close (``True``) one partition
        between this front end and a replica.

        The replica is unreachable while any partition covering it is
        open, so overlapping partitions heal only when the last one
        ends.  Closing a partition on a reachable replica is a no-op.
        """
        if not 0 <= index < len(self.servers):
            raise ConfigurationError(f"replica index {index} out of range")
        partitions = self._partitions
        open_count = partitions.get(index, 0) + (-1 if reachable else 1)
        if open_count > 0:
            partitions[index] = open_count
            self.unreachable.add(index)
        else:
            partitions.pop(index, None)
            self.unreachable.discard(index)
        self._live = None

    def _invalidate_live(self) -> None:
        self._live = None

    def _available_indices(self) -> List[int]:
        """Every available replica index, ascending (possibly empty).

        Cached: the list is rebuilt only after a liveness flip or a
        reachability change, and callers must not mutate it.
        """
        live = self._live
        if live is None:
            live = self._live = [i for i in self._everyone if self.available(i)]
        return live

    def live_pool(self) -> List[int]:
        """``live_indices(range(n))`` read from the cache: every
        available replica, or every replica if none is available.
        Callers must not mutate the returned list."""
        return self._available_indices() or self._everyone

    def live_indices(self, candidates: Sequence[int]) -> List[int]:
        """``candidates`` minus dead/unreachable replicas; all of them
        if none is available."""
        live = [i for i in candidates if self.available(i)]
        return live if live else list(candidates)

    def dead_fallback(self, request: Request) -> int:
        """Replica to queue at when *every* replica is down.

        The least-loaded dead replica (ties to the lowest index): its
        queue drains first once cores recover, so it is the best proxy
        for "recovers soonest" without peeking at the fault plan.
        Subclasses with recovery knowledge may override.
        """
        servers = self.servers
        best = 0
        best_load = None
        for i in range(len(servers)):
            load = servers[i].pending + servers[i].in_flight
            if best_load is None or load < best_load:
                best_load = load
                best = i
        return best

    def attach_decision_sink(self, sink) -> None:
        """Attach a pure routing-decision observer (one per balancer).

        The sink must observe only — no event scheduling, no RNG draws,
        no server mutation — so armed and unarmed runs stay
        bit-identical.
        """
        if self._decision_sink is not None:
            raise ConfigurationError(
                "balancer already has a decision sink; use one per run"
            )
        self._decision_sink = sink

    def ingress(self, request: Request) -> None:
        """The cluster's single entry point (the generator's sink)."""
        self.routed += 1
        if self._available_indices():
            index = self.pick(request)
        else:
            index = self.dead_fallback(request)
        self.route_counts[index] += 1
        if self._decision_sink is not None:
            self._decision_sink(request, index)
        self.servers[index].ingress(request)


class RandomBalancer(Balancer):
    """Uniform random — what anycast/ECMP effectively does."""

    def __init__(self, servers: Sequence[Server], rng: np.random.Generator):
        super().__init__(servers)
        self.rng = rng

    def pick(self, request: Request) -> int:
        pool = self.live_pool()
        return pool[int(self.rng.integers(0, len(pool)))]


class RoundRobinBalancer(Balancer):
    """Strict rotation."""

    def __init__(self, servers: Sequence[Server]):
        super().__init__(servers)
        self._next = 0

    def pick(self, request: Request) -> int:
        n = len(self.servers)
        idx = self._next
        self._next = (self._next + 1) % n
        if self.available(idx):
            return idx
        for offset in range(1, n):
            j = (idx + offset) % n
            if self.available(j):
                return j
        return idx


class JoinShortestQueue(Balancer):
    """Route to the replica with the least outstanding work.

    Outstanding work = queued requests + busy workers.  The scan start
    rotates so that ties (ubiquitous at low load) spread across replicas
    instead of piling onto index 0.
    """

    def __init__(self, servers: Sequence[Server]):
        super().__init__(servers)
        self._start = 0

    def pick(self, request: Request) -> int:
        n = len(self.servers)
        any_live = bool(self._available_indices())
        best_idx = self._start
        best_load = None
        for offset in range(n):
            i = (self._start + offset) % n
            if any_live and not self.available(i):
                continue
            load = self.servers[i].pending + self.servers[i].in_flight
            if best_load is None or load < best_load:
                best_load = load
                best_idx = i
        self._start = (self._start + 1) % n
        return best_idx


class TypeAwareBalancer(Balancer):
    """Reserve whole replicas per request type — DARC's idea one level up.

    ``assignment`` maps type id -> list of replica indices; unmapped
    types use ``default`` replicas.  Within a type's replica set, pick
    the least loaded (JSQ).
    """

    def __init__(
        self,
        servers: Sequence[Server],
        assignment: Dict[int, List[int]],
        default: Optional[List[int]] = None,
    ):
        super().__init__(servers)
        for type_id, replicas in assignment.items():
            if not replicas:
                raise ConfigurationError(f"type {type_id} has an empty replica set")
            for idx in replicas:
                if not 0 <= idx < len(servers):
                    raise ConfigurationError(f"replica index {idx} out of range")
        self.assignment = assignment
        self.default = default if default is not None else list(range(len(servers)))
        if not self.default:
            raise ConfigurationError("default replica set cannot be empty")

    def pick(self, request: Request) -> int:
        replicas = self.live_indices(self.assignment.get(request.type_id, self.default))
        best_idx = replicas[0]
        best_load = None
        for idx in replicas:
            server = self.servers[idx]
            load = server.pending + server.in_flight
            if best_load is None or load < best_load:
                best_load = load
                best_idx = idx
        return best_idx
