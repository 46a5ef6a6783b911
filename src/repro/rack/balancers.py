"""Rack-level balancer catalogue (RackSched-style policies).

Every policy extends :class:`RackBalancer` and reads server load
exclusively through a :class:`~repro.rack.views.QueueViews` instance,
so every one of them can be run against oracle or stale information by
flipping one knob.  Randomized policies draw from dedicated ``rack.*``
RNG streams, keeping rack runs bit-identical per seed and independent
of any other consumer of the registry.

* :class:`PowerOfD`             — sample ``d`` replicas, pick the least
  loaded (the classic power-of-two-choices for ``d=2``);
* :class:`StaleJSQ`             — JSQ(k) over the (possibly stale) views;
  ``k=None`` scans all replicas, ``k<n`` samples a subset first;
* :class:`ShortestExpectedDelay` — SLO-aware: minimizes estimated wait
  ``(view + 1) * mean_service / live_cores``, so a half-crashed server
  looks twice as slow rather than half as loaded;
* :class:`TypeAffinity`         — DARC one level up: the heaviest type
  is contained on a tail slice of replicas, everything else on the
  head slice, with *bounded spill* to the globally least-loaded
  replica when the home set is overloaded;
* :class:`SessionAffinity`      — keyed sessions pin to a home server
  (``request.session % n``) and spill only past a load threshold;
* :class:`RandomBalancer` / :class:`RoundRobinBalancer` — load-blind
  baselines (what anycast/ECMP and a plain rotation do).

Every policy routes around *dead* replicas (all cores crashed,
:attr:`~repro.server.server.Server.alive` False) and *unreachable*
ones (partitioned away from the front end, see
:meth:`RackBalancer.set_reachable`): the candidate set shrinks to the
available replicas.  Only when the whole rack is down does routing
fall back — to the **least-loaded** dead replica, so the queued
backlog is spread rather than piled onto whatever arbitrary index the
policy's ``pick`` would have returned (the request then queues at a
dead replica rather than vanishing, keeping request conservation
intact for when cores recover).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..server.server import Server
from ..sim.randomness import RngRegistry
from ..workload.request import Request
from ..workload.spec import WorkloadSpec
from .views import QueueViews

#: Balancer names accepted by :func:`make_balancer`, in catalogue order.
BALANCER_NAMES: Tuple[str, ...] = (
    "pow2",
    "jsq-stale",
    "sed",
    "type-affinity",
    "session",
)

#: Names :func:`make_balancer` also accepts that stay out of the rack
#: experiment's catalogue (sampled JSQ and the load-blind baselines).
EXTRA_BALANCER_NAMES: Tuple[str, ...] = ("jsq-k", "random", "round-robin")


class RackBalancer(ABC):
    """Chooses a replica for each arriving request from the views."""

    def __init__(self, servers: Sequence[Server], views: QueueViews):
        if not servers:
            raise ConfigurationError("need at least one server")
        self.servers = list(servers)
        if len(views.servers) != len(self.servers):
            raise ConfigurationError("views and servers disagree on replica count")
        self.views = views
        #: Requests routed outside their preferred replica set.
        self.spills = 0
        self.routed = 0
        #: Requests routed to each replica index (telemetry view).
        self.route_counts: List[int] = [0] * len(self.servers)
        #: Optional pure observer called as ``sink(request, index)``
        #: after every routing decision, before the request is handed to
        #: the chosen replica (rack tracing's balancer decision log).
        self._decision_sink = None
        #: Replica indices currently partitioned away from this front
        #: end (partition faults); never routed to while any reachable
        #: replica exists.
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
        """Route one request: ``pick`` among the available replicas, or
        :meth:`dead_fallback` when none is available."""
        self.routed += 1
        if self._available_indices():
            index = self.pick(request)
        else:
            index = self.dead_fallback(request)
        self.route_counts[index] += 1
        if self._decision_sink is not None:
            self._decision_sink(request, index)
        self.servers[index].ingress(request)

    def _least_loaded(self, pool: Sequence[int]) -> int:
        """Pool index with the smallest viewed load (ties to the first
        in pool order, so the scan is deterministic)."""
        load = self.views.load
        best = pool[0]
        best_load = None
        for i in pool:
            value = load(i)
            if best_load is None or value < best_load:
                best_load = value
                best = i
        return best


class PowerOfD(RackBalancer):
    """Power of ``d`` choices over the viewed loads."""

    def __init__(
        self,
        servers: Sequence[Server],
        views: QueueViews,
        rng: np.random.Generator,
        d: int = 2,
    ):
        super().__init__(servers, views)
        if d < 1:
            raise ConfigurationError(f"d must be >= 1, got {d}")
        self.rng = rng
        self.d = d

    def pick(self, request: Request) -> int:
        pool = self.live_pool()
        if len(pool) > self.d:
            sampled = self.rng.choice(len(pool), size=self.d, replace=False)
            pool = [pool[int(i)] for i in sampled]
        return self._least_loaded(pool)


class StaleJSQ(RackBalancer):
    """JSQ(k) over the views, with a rotating tie-break start.

    With ``k=None`` every live replica is scanned (plain JSQ on stale
    data); with ``k < n`` only a random ``k``-subset is probed, the
    sampled-JSQ model front ends actually implement.
    """

    def __init__(
        self,
        servers: Sequence[Server],
        views: QueueViews,
        k: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__(servers, views)
        if k is not None and k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        if k is not None and rng is None:
            raise ConfigurationError("sampled JSQ(k) needs an rng")
        self.k = k
        self.rng = rng
        self._start = 0

    def pick(self, request: Request) -> int:
        pool = self.live_pool()
        if self.k is not None and len(pool) > self.k:
            sampled = self.rng.choice(len(pool), size=self.k, replace=False)
            pool = [pool[int(i)] for i in sampled]
        n = len(pool)
        start = self._start % n
        self._start = (self._start + 1) % max(1, len(self.servers))
        load = self.views.load
        best = pool[start]
        best_load = None
        for offset in range(n):
            i = pool[(start + offset) % n]
            value = load(i)
            if best_load is None or value < best_load:
                best_load = value
                best = i
        return best


class ShortestExpectedDelay(RackBalancer):
    """Minimize estimated queueing delay rather than queue length.

    Expected delay at replica ``i`` is ``(view_i + 1) * mean_service /
    live_cores_i`` — unlike raw JSQ this keeps penalizing replicas that
    lost cores to faults even when their queues look short.
    """

    def __init__(
        self,
        servers: Sequence[Server],
        views: QueueViews,
        mean_service_us: float,
    ):
        super().__init__(servers, views)
        if mean_service_us <= 0:
            raise ConfigurationError(
                f"mean_service_us must be > 0, got {mean_service_us}"
            )
        self.mean_service_us = mean_service_us

    def pick(self, request: Request) -> int:
        pool = self.live_pool()
        load = self.views.load
        servers = self.servers
        mean = self.mean_service_us
        best = pool[0]
        best_delay = None
        for i in pool:
            counts = servers[i].counts
            cores = counts.size - counts.failed
            delay = (load(i) + 1) * mean / max(1, cores)
            if best_delay is None or delay < best_delay:
                best_delay = delay
                best = i
        return best


class TypeAffinity(RackBalancer):
    """Per-type replica sets with bounded spill.

    ``assignment`` maps type id -> home replica indices (unmapped types
    use ``default``).  The least-loaded live home replica serves the
    request unless its viewed load exceeds ``spill_threshold``; then the
    request spills to the globally least-loaded live replica and the
    spill is counted.
    """

    def __init__(
        self,
        servers: Sequence[Server],
        views: QueueViews,
        assignment: Dict[int, List[int]],
        default: Optional[List[int]] = None,
        spill_threshold: int = 16,
    ):
        super().__init__(servers, views)
        for type_id, replicas in assignment.items():
            if not replicas:
                raise ConfigurationError(f"type {type_id} has an empty replica set")
            for idx in replicas:
                if not 0 <= idx < len(servers):
                    raise ConfigurationError(f"replica index {idx} out of range")
        if spill_threshold < 1:
            raise ConfigurationError(
                f"spill_threshold must be >= 1, got {spill_threshold}"
            )
        self.assignment = assignment
        self.default = default if default is not None else list(range(len(servers)))
        if not self.default:
            raise ConfigurationError("default replica set cannot be empty")
        self.spill_threshold = spill_threshold

    def pick(self, request: Request) -> int:
        home = self.live_indices(self.assignment.get(request.type_id, self.default))
        best = self._least_loaded(home)
        if self.views.load(best) > self.spill_threshold:
            everyone = self.live_pool()
            spilled = self._least_loaded(everyone)
            if spilled != best:
                self.spills += 1
                return spilled
        return best


class SessionAffinity(RackBalancer):
    """Keyed sessions pin to a home server, spilling past a threshold.

    The home replica is ``request.session % n`` (requests without a
    session key hash their rid instead, so the policy still works on
    plain workloads).  A dead, unreachable or overloaded home spills to
    the globally least-loaded live replica.
    """

    def __init__(
        self,
        servers: Sequence[Server],
        views: QueueViews,
        spill_threshold: int = 16,
    ):
        super().__init__(servers, views)
        if spill_threshold < 1:
            raise ConfigurationError(
                f"spill_threshold must be >= 1, got {spill_threshold}"
            )
        self.spill_threshold = spill_threshold

    def pick(self, request: Request) -> int:
        n = len(self.servers)
        key = request.session if request.session is not None else request.rid
        home = key % n
        if self.available(home) and self.views.load(home) <= self.spill_threshold:
            return home
        self.spills += 1
        pool = self.live_pool()
        return self._least_loaded(pool)


class RandomBalancer(RackBalancer):
    """Uniform random over the available replicas — what anycast/ECMP
    effectively does.  Reads no views."""

    def __init__(
        self, servers: Sequence[Server], views: QueueViews, rng: np.random.Generator
    ):
        super().__init__(servers, views)
        self.rng = rng

    def pick(self, request: Request) -> int:
        pool = self.live_pool()
        return pool[int(self.rng.integers(0, len(pool)))]


class RoundRobinBalancer(RackBalancer):
    """Strict rotation, skipping unavailable replicas.  Reads no views."""

    def __init__(self, servers: Sequence[Server], views: QueueViews):
        super().__init__(servers, views)
        self._next = 0

    def pick(self, request: Request) -> int:
        n = len(self.servers)
        index = self._next
        self._next = (index + 1) % n
        for offset in range(n):
            candidate = (index + offset) % n
            if self.available(candidate):
                return candidate
        return index


def affinity_assignment(
    spec: WorkloadSpec, n_servers: int
) -> Tuple[Dict[int, List[int]], List[int]]:
    """Derive a DARC-like type -> replica-set map from the workload mix.

    The most expensive type (largest mean service time) is contained on
    a tail slice of replicas sized by its demand share (ratio x mean);
    every other type homes on the head slice.  Returns ``(assignment,
    default)`` ready for :class:`TypeAffinity`.
    """
    types = spec.type_specs()
    everyone = list(range(n_servers))
    if len(types) < 2 or n_servers < 2:
        return {}, everyone
    total = sum(t.ratio * t.mean_service_time for t in types)
    longest = max(types, key=lambda t: (t.mean_service_time, t.type_id))
    share = (longest.ratio * longest.mean_service_time) / total if total > 0 else 0.5
    n_long = min(n_servers - 1, max(1, round(share * n_servers)))
    long_set = everyone[n_servers - n_long:]
    short_set = everyone[: n_servers - n_long]
    assignment = {longest.type_id: long_set}
    for t in types:
        if t.type_id != longest.type_id:
            assignment[t.type_id] = short_set
    return assignment, short_set


def make_balancer(
    name: str,
    servers: Sequence[Server],
    views: QueueViews,
    rngs: RngRegistry,
    spec: WorkloadSpec,
) -> RackBalancer:
    """Build a balancer by name (see :data:`BALANCER_NAMES` and
    :data:`EXTRA_BALANCER_NAMES`).

    The spill threshold for the affinity policies is twice the
    per-server core count — past that depth the home set is clearly
    saturated and containment costs more than it saves.
    """
    n_workers = len(servers[0].workers) if servers else 1
    spill_threshold = max(1, 2 * n_workers)
    if name == "pow2":
        return PowerOfD(servers, views, rngs.stream("rack.pow2"), d=2)
    if name == "jsq-stale":
        return StaleJSQ(servers, views)
    if name == "jsq-k":
        k = max(2, len(servers) // 4)
        return StaleJSQ(servers, views, k=k, rng=rngs.stream("rack.jsqk"))
    if name == "sed":
        mean = sum(t.ratio * t.mean_service_time for t in spec.type_specs())
        return ShortestExpectedDelay(servers, views, mean_service_us=mean)
    if name == "type-affinity":
        assignment, default = affinity_assignment(spec, len(servers))
        return TypeAffinity(
            servers, views, assignment, default, spill_threshold=spill_threshold
        )
    if name == "session":
        return SessionAffinity(servers, views, spill_threshold=spill_threshold)
    if name == "random":
        return RandomBalancer(servers, views, rngs.stream("rack.random"))
    if name == "round-robin":
        return RoundRobinBalancer(servers, views)
    raise ConfigurationError(
        f"unknown balancer {name!r}; expected one of "
        f"{BALANCER_NAMES + EXTRA_BALANCER_NAMES}"
    )
