"""Rack-level balancer catalogue (RackSched-style policies).

All policies extend :class:`~repro.cluster.balancer.Balancer` and read
server load exclusively through a :class:`~repro.rack.views.QueueViews`
instance, so every one of them can be run against oracle or stale
information by flipping one knob.  Randomized policies draw from
dedicated ``rack.*`` RNG streams, keeping rack runs bit-identical per
seed and independent of any other consumer of the registry.

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
  (``request.session % n``) and spill only past a load threshold.
"""

from __future__ import annotations

from abc import abstractmethod
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cluster.balancer import Balancer
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


class RackBalancer(Balancer):
    """Base for view-driven rack balancers."""

    def __init__(self, servers: Sequence[Server], views: QueueViews):
        super().__init__(servers)
        if len(views.servers) != len(self.servers):
            raise ConfigurationError("views and servers disagree on replica count")
        self.views = views
        #: Requests routed outside their preferred replica set.
        self.spills = 0

    @abstractmethod
    def pick(self, request: Request) -> int:
        """Index of the replica that should serve ``request``."""

    def _least_loaded(self, pool: Sequence[int]) -> int:
        """Pool index with the smallest viewed load (ties to the lowest
        replica index, so the scan is deterministic)."""
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
    """Build a catalogue balancer by name (see :data:`BALANCER_NAMES`).

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
    raise ConfigurationError(
        f"unknown balancer {name!r}; expected one of {BALANCER_NAMES + ('jsq-k',)}"
    )
