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

The class is purely observational: it never changes what a server does
(a mark only records a replica index in the views' own state), draws no randomness and
reads only virtual time, so metered/unmetered runs stay bit-identical.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import partial
from typing import List, Optional, Sequence

from ..errors import ConfigurationError
from ..server.server import Server
from ..sim.engine import EventLoop


class QueueViews:
    """Per-server load views with configurable staleness.

    :meth:`load` reads one replica's actual load on the spot.  The pool
    reads (:meth:`loads`, :meth:`least`) instead keep each replica's
    actual load and ``|view - actual|`` as of the last read, and the
    replicas push a *mark* (:meth:`Server.watch_load`) whenever their
    load may have moved: a pool read recomputes only the marked ones.
    The marks are wired by the first pool read, so views that only
    serve :meth:`load` (``pow2``) leave the servers' per-request paths
    as they are.
    """

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
        # Pushed state: the replicas whose load may have moved since it
        # was last read, as ordered dict keys (so a replica that is never
        # flushed stays one entry), all of them until the first read ...
        self._marks = dict.fromkeys(self._everyone, True)
        # ... and each replica's actual load and |view - actual| as of
        # that read, with the errors' integer total.
        self._load: List[int] = [0] * n
        self._error: List[int] = [0] * n
        self._error_total = 0
        # The replicas push marks from the first pool read on; until
        # _settle_by a request routed before that read may still reach
        # its scheduler unmarked, so every pool read re-reads everyone.
        self._wired = False
        self._settle_by = float("-inf")
        # A lower bound on min(_refreshed_at): refresh times only grow.
        self._oldest = float("-inf")
        # Ascending positions of the smallest view; None after any write.
        self._min_at: Optional[List[int]] = None

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
            # Keep the pushed state exact: this replica was just read.
            self._load[index] = actual
            self._error_total -= self._error[index]
            self._error[index] = 0
            self._min_at = None
            return actual
        self.stale_reads += 1
        viewed = view[index]
        self.error_sum += abs(viewed - actual)
        return viewed

    def _wire(self) -> None:
        """Have every replica push marks from now on."""
        self._wired = True
        marks = self._marks
        for index, server in enumerate(self.servers):
            horizon = server.watch_load(partial(marks.__setitem__, index, True))
            self._settle_by = max(self._settle_by, horizon)

    def _flush(self) -> None:
        """Re-read every marked replica's actual load and error, wiring
        the marks on the first call."""
        if not self._wired:
            self._wire()
        marks = self._marks
        if not marks:
            return
        scheds = self._scheds
        counts = self._counts
        view = self._view
        loads = self._load
        error = self._error
        total = self._error_total
        for index in marks:
            actual = scheds[index].queued + counts[index].busy
            loads[index] = actual
            off = abs(view[index] - actual)
            total += off - error[index]
            error[index] = off
        self._error_total = total
        marks.clear()
        if self.loop.now <= self._settle_by:
            marks.update(dict.fromkeys(self._everyone, True))

    def loads(self, pool: Sequence[int]) -> List[int]:
        """The viewed loads of ``pool``, in order.  Counters, views and
        refresh times move exactly as under one :meth:`load` per entry.

        If ``now - min(refreshed) < staleness`` over the pool no entry
        has expired (float subtraction is monotone), so every read is
        stale and is booked in bulk from the stored errors: they are
        integers and sum exactly (below 2**53), leaving ``error_sum``
        bit-identical.
        """
        self._flush()
        if self.staleness_us <= 0:
            return list(map(self._load.__getitem__, pool))
        refreshed = self._refreshed_at
        if not self.loop.now - min(map(refreshed.__getitem__, pool)) < self.staleness_us:
            # Some entry expired (rare): the per-replica reads.
            return list(map(self.load, pool))
        self.stale_reads += len(pool)
        self.error_sum += sum(map(self._error.__getitem__, pool))
        return list(map(self._view.__getitem__, pool))

    def least(self, pool: Sequence[int], start: int = 0) -> int:
        """The replica of a non-empty ``pool`` with the smallest viewed
        load: the first one met scanning from position ``start`` and
        wrapping around.  Counters, views and refresh times move exactly
        as under one :meth:`load` per replica in that order.

        A stale read of every replica is answered from the pushed state:
        the flushed marks, the bulk booking of :meth:`loads` with the kept
        error total, and the cached positions of the smallest view.
        """
        staleness = self.staleness_us
        if staleness > 0 and pool == self._everyone:
            self._flush()
            if self.loop.now - self._oldest < staleness:
                self.stale_reads += len(pool)
                self.error_sum += self._error_total
                positions = self._min_at
                if positions is None:
                    positions = self._min_at = _min_positions(self._view)
                at = bisect_left(positions, start)
                return positions[at] if at < len(positions) else positions[0]
            loads = self.loads(pool)
            self._oldest = min(self._refreshed_at)
        else:
            loads = self.loads(pool)
        best = min(loads)
        pos = loads.index(best)
        if pos < start and best in loads[start:]:
            pos = loads.index(best, start)
        return pool[pos]

    def error_drift(self) -> List[tuple]:
        """``(replica, stored, actual)`` for every replica with no pending
        mark whose stored ``(load, error)`` disagrees with a fresh read,
        plus ``(None, stored, actual)`` when the error total disagrees
        with the stored errors.  A pure read: it flushes nothing (the
        sanitizer's ``view-error``)."""
        marks = self._marks
        drift = []
        for index in self._everyone:
            if index in marks:
                continue
            actual = self._scheds[index].queued + self._counts[index].busy
            fresh = (actual, abs(self._view[index] - actual))
            stored = (self._load[index], self._error[index])
            if stored != fresh:
                drift.append((index, stored, fresh))
        if self._error_total != sum(self._error):
            drift.append((None, self._error_total, sum(self._error)))
        return drift

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


def _min_positions(values: List[int]) -> List[int]:
    """Ascending positions of the smallest of ``values``."""
    best = min(values)
    positions = [values.index(best)]
    count = values.count(best)
    while len(positions) < count:
        positions.append(values.index(best, positions[-1] + 1))
    return positions
