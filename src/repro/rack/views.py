"""Stale/sampled queue views — the balancer's *information model*.

RackSched-style balancers do not see instantaneous per-server queue
depths: they work from counters piggybacked on replies or from periodic
probes.  SWP (PAPERS.md) shows the interesting regime is exactly this
imperfect-knowledge one, so :class:`QueueViews` models it explicitly:

* ``staleness_us <= 0`` — oracle mode, every read returns the actual
  instantaneous load (pending + in-flight);
* ``staleness_us > 0``  — each server's view is a snapshot refreshed at
  most every ``staleness_us`` of virtual time; reads in between return
  the cached value and the absolute error vs. the true load is
  accumulated so experiments can report *how wrong* the balancer was.

The class is purely observational: it never mutates servers, draws no
randomness and reads only virtual time, so metered/unmetered runs stay
bit-identical.
"""

from __future__ import annotations

from operator import add, attrgetter, sub
from typing import List, Sequence

from ..errors import ConfigurationError
from ..server.server import Server
from ..sim.engine import EventLoop

_QUEUED = attrgetter("queued")
_BUSY = attrgetter("busy")


class QueueViews:
    """Per-server load views with configurable staleness."""

    def __init__(self, loop: EventLoop, servers: Sequence[Server], staleness_us: float = 0.0):
        if not servers:
            raise ConfigurationError("need at least one server")
        # Negated so NaN fails too: a NaN staleness would never refresh.
        if not staleness_us >= 0:
            raise ConfigurationError(f"staleness_us must be >= 0, got {staleness_us}")
        self.loop = loop
        self.servers = list(servers)
        self.staleness_us = staleness_us
        #: Per-replica schedulers and worker counters: a load is
        #: ``scheds[i].queued + counts[i].busy``, two attribute reads.
        self._scheds = [server.scheduler for server in self.servers]
        self._counts = [server.counts for server in self.servers]
        n = len(self.servers)
        self._everyone = list(range(n))
        self._view: List[int] = [0] * n
        self._refreshed_at: List[float] = [float("-inf")] * n
        #: Reads served from a stale snapshot (telemetry counter).
        self.stale_reads = 0
        #: Reads that hit a fresh snapshot (refresh happened this read).
        self.fresh_reads = 0
        #: Sum over stale reads of |view - actual|; mean_error() divides.
        self.error_sum = 0.0

    def load(self, index: int) -> int:
        """The balancer-visible load of server ``index``.

        O(1) per call, computing the actual load (queued + busy cores)
        once, inline, with no call into the server.
        """
        actual = self._scheds[index].queued + self._counts[index].busy
        staleness = self.staleness_us
        if staleness <= 0:
            return actual
        now = self.loop.now
        view = self._view
        if now - self._refreshed_at[index] >= staleness:
            view[index] = actual
            self._refreshed_at[index] = now
            self.fresh_reads += 1
            return actual
        self.stale_reads += 1
        viewed = view[index]
        self.error_sum += abs(viewed - actual)
        return viewed

    def least(self, pool: Sequence[int], start: int = 0) -> int:
        """The replica of a non-empty ``pool`` with the smallest viewed
        load: the first one met scanning from position ``start`` and
        wrapping around.  Counters, views and refresh times move exactly
        as under one :meth:`load` per replica in that order.

        The actual loads are computed in C.  If ``now - min(refreshed) <
        staleness`` no entry has expired (float subtraction is monotone),
        so every read is stale and is booked in bulk: integer errors sum
        exactly (below 2**53), leaving ``error_sum`` bit-identical.
        """
        full = pool == self._everyone
        scheds = self._scheds if full else map(self._scheds.__getitem__, pool)
        counts = self._counts if full else map(self._counts.__getitem__, pool)
        actual = map(add, map(_QUEUED, scheds), map(_BUSY, counts))
        if self.staleness_us <= 0:
            loads = list(actual)
        else:
            refreshed = self._refreshed_at
            oldest = min(refreshed) if full else min(map(refreshed.__getitem__, pool))
            if not self.loop.now - oldest < self.staleness_us:
                # Some entry expired (rare): the per-replica reads.
                order = pool[start:] + pool[:start]
                loads = list(map(self.load, order))
                return order[loads.index(min(loads))]
            loads = self._view if full else list(map(self._view.__getitem__, pool))
            self.stale_reads += len(loads)
            self.error_sum += sum(map(abs, map(sub, loads, actual)))
        best = min(loads)
        pos = loads.index(best)
        if pos < start and best in loads[start:]:
            pos = loads.index(best, start)
        return pool[pos]

    def peek(self, index: int) -> tuple:
        """Pure read of the current view state: ``(viewed_load, age_us)``.

        Unlike :meth:`load` this never refreshes the snapshot and never
        touches the fresh/stale counters, so observers (the rack
        tracer's balancer decision log) can record what the balancer
        saw without perturbing what it will see next.  ``age_us`` is
        ``None`` when the snapshot has never been refreshed (oracle
        mode always returns age 0).
        """
        if self.staleness_us <= 0:
            return self._scheds[index].queued + self._counts[index].busy, 0.0
        refreshed = self._refreshed_at[index]
        if refreshed == float("-inf"):
            return self._view[index], None
        return self._view[index], self.loop.now - refreshed

    def mean_error(self) -> float:
        """Mean absolute error of stale reads vs. the true load."""
        if self.stale_reads == 0:
            return 0.0
        return self.error_sum / self.stale_reads

    def counters(self) -> dict:
        """Flat summary for telemetry/export."""
        return {
            "stale_reads": self.stale_reads,
            "fresh_reads": self.fresh_reads,
            "mean_view_error": self.mean_error(),
        }
