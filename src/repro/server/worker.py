"""Worker (application core) model with busy/idle accounting.

A worker executes one request at a time, non-preemptively unless a
preemptive policy slices its service.  Workers track busy time, overhead
time (preemption costs) and completion counts so experiments can report
utilization and CPU waste.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from ..errors import SchedulingError
from ..sim.floats import repeat_add
from ..workload.request import Request


class WorkerCounts:
    """Busy and crashed core counts, and the free-core bitmask, shared by
    one set of workers: a server's, or the standalone list a scheduler is
    bound to (:func:`shared_counts`).

    :class:`Worker` updates these at its four state transitions
    (:meth:`~Worker.begin`, :meth:`~Worker.end`, :meth:`~Worker.fail`,
    :meth:`~Worker.recover`), so a server's load and liveness are O(1)
    reads instead of scans over its cores.  A fifth transition,
    :meth:`~Worker.lap`, ends one slice and begins the next on the same
    core at once; it leaves every tally unchanged.  ``free`` has bit
    ``worker_id`` set exactly while that worker :attr:`~Worker.is_free`,
    so a policy can intersect it with the cores it may use and skip the
    scan when nothing is left.  ``listeners`` are called with no
    arguments whenever liveness flips: the last live core crashes, or the
    first core of a dead set recovers.
    """

    __slots__ = ("busy", "failed", "free", "size", "listeners")

    def __init__(self, size: int):
        #: Workers currently holding a request (crashed or not).
        self.busy = 0
        #: Workers currently crashed.
        self.failed = 0
        #: Bit ``worker_id`` is set while that worker is free; each
        #: :class:`Worker` sets its own bit when it is created.
        self.free = 0
        #: Workers sharing this tally.
        self.size = size
        self.listeners: list = []

    def alive_changed(self) -> None:
        """Tell every listener that liveness just flipped."""
        for listener in self.listeners:
            listener()


class Worker:
    """One application core."""

    __slots__ = (
        "worker_id",
        "current",
        "_busy_since",
        "total_busy_time",
        "total_overhead_time",
        "completed",
        "idle_since",
        "tags",
        "failed",
        "speed_factor",
        "crash_count",
        "counts",
        "bit",
    )

    def __init__(self, worker_id: int, counts: Optional[WorkerCounts] = None):
        self.worker_id = worker_id
        #: This worker's bit in :attr:`WorkerCounts.free`.
        self.bit = 1 << worker_id
        #: The owning server's tally; a standalone worker keeps its own.
        self.counts = counts if counts is not None else WorkerCounts(1)
        self.counts.free |= self.bit
        self.current: Optional[Request] = None
        self._busy_since: Optional[float] = None
        self.total_busy_time = 0.0
        #: Busy time that was pure scheduling overhead (preemption costs).
        self.total_overhead_time = 0.0
        self.completed = 0
        self.idle_since = 0.0
        #: Free-form labels (e.g. DARC group id) set by schedulers.
        self.tags: dict = {}
        #: True while the core is crashed (fault injection); a failed
        #: worker is never free, so no policy dispatches to it.
        self.failed = False
        #: Straggler degradation: service begun on this core runs
        #: ``speed_factor`` times slower than its nominal service time.
        self.speed_factor = 1.0
        #: Times this core has been crashed by fault injection.
        self.crash_count = 0

    @property
    def is_free(self) -> bool:
        return self.current is None and not self.failed

    @property
    def is_busy(self) -> bool:
        """True while a request occupies the core (crashed or not)."""
        return self.current is not None

    def fail(self) -> None:
        """Mark the core crashed.  The caller (the scheduler's crash
        handler) is responsible for evicting any in-flight request first."""
        if not self.failed:
            self.failed = True
            counts = self.counts
            counts.failed += 1
            counts.free &= ~self.bit
            if counts.failed == counts.size:
                counts.alive_changed()
        self.crash_count += 1

    def recover(self) -> None:
        """Bring a crashed core back; it restarts clean and at full speed."""
        if self.failed:
            self.failed = False
            counts = self.counts
            counts.failed -= 1
            if self.current is None:
                counts.free |= self.bit
            if counts.failed == counts.size - 1:
                counts.alive_changed()
        self.speed_factor = 1.0

    def set_speed(self, factor: float) -> None:
        """Degrade (or restore) this core's service speed.

        ``factor`` multiplies nominal service times for work *begun*
        while it is in force: 1.0 is full speed, 3.0 is a 3x straggler.
        This is the only sanctioned way for fault injection to slow a
        core — ``speed_factor`` is engine-owned state.  A factor that is
        not a finite number > 0 is refused: NaN fails every comparison, so
        it would otherwise slip through and turn every later slice time
        into NaN.
        """
        if not 0.0 < factor < math.inf:
            raise SchedulingError(
                f"worker {self.worker_id} speed factor must be finite and > 0, "
                f"got {factor}"
            )
        self.speed_factor = factor

    def begin(self, request: Request, now: float) -> None:
        """Start (or resume) serving ``request``."""
        if self.current is not None:
            raise SchedulingError(
                f"worker {self.worker_id} asked to begin request {request.rid} "
                f"while busy with {self.current.rid}"
            )
        self.current = request
        counts = self.counts
        counts.busy += 1
        counts.free &= ~self.bit
        self._busy_since = now
        request.worker_id = self.worker_id
        if request.first_service_time is None:
            request.first_service_time = now

    def end(self, now: float, overhead: float = 0.0) -> Request:
        """Stop serving; returns the request that was on the core.

        ``overhead`` is the portion of the elapsed busy time that was
        scheduling overhead rather than useful service.
        """
        if self.current is None or self._busy_since is None:
            raise SchedulingError(f"worker {self.worker_id} asked to end while idle")
        elapsed = now - self._busy_since
        self.total_busy_time += elapsed
        self.total_overhead_time += overhead
        request = self.current
        self.current = None
        counts = self.counts
        counts.busy -= 1
        if not self.failed:
            counts.free |= self.bit
        self._busy_since = None
        self.idle_since = now
        return request

    def lap(self, now: float, overhead: float = 0.0) -> None:
        """End the current slice and resume the same request at ``now``.

        The effect is :meth:`end` then :meth:`begin` with the request
        that was on the core, with the same float operations; the core
        is never free in between, so neither ``counts.busy`` nor
        ``counts.free`` moves.
        """
        request = self.current
        if request is None or self._busy_since is None:
            raise SchedulingError(f"worker {self.worker_id} asked to lap while idle")
        elapsed = now - self._busy_since
        self.total_busy_time += elapsed
        self.total_overhead_time += overhead
        self._busy_since = now
        self.idle_since = now
        request.worker_id = self.worker_id
        if request.first_service_time is None:
            request.first_service_time = now

    def laps(self, now: float, count: int, step: float, overhead: float = 0.0) -> None:
        """``count`` calls of :meth:`lap` with the same ``overhead``, the
        last at ``now``, each ``step`` after the one before.

        Takes the same floats as those calls when every lap time is the
        exact sum of the one before and ``step`` (so each elapsed time is
        exactly ``step``); each total takes one add when no sum rounds
        (:func:`~repro.sim.floats.repeat_add`).
        """
        request = self.current
        if request is None or self._busy_since is None:
            raise SchedulingError(f"worker {self.worker_id} asked to lap while idle")
        if not count:
            return
        self.total_busy_time = repeat_add(self.total_busy_time, step, count)
        self.total_overhead_time = repeat_add(self.total_overhead_time, overhead, count)
        self._busy_since = now
        self.idle_since = now
        request.worker_id = self.worker_id
        if request.first_service_time is None:
            request.first_service_time = now

    def utilization(self, now: float) -> float:
        """Fraction of wall time spent busy, counting an in-flight request."""
        if now <= 0:
            return 0.0
        busy = self.total_busy_time
        if self._busy_since is not None:
            busy += now - self._busy_since
        return busy / now

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = f"busy(rid={self.current.rid})" if self.current else "idle"
        return f"Worker({self.worker_id}, {state}, done={self.completed})"


def shared_counts(workers: Sequence[Worker]) -> WorkerCounts:
    """The one tally ``workers`` share, so a scheduler reads its free
    core count in O(1).

    A server's workers already share its tally; that tally is returned
    as is, so listeners registered through it keep firing.  Standalone
    workers (``Worker(i)``, each with a private tally) are moved onto
    one new tally whose busy and crashed counts and free mask are taken
    from their current state.  Any other mix is an error: re-pointing
    workers that belong to a larger tally would desync its owner's
    counters.
    """
    counts = workers[0].counts
    if counts.size == len(workers) and all(w.counts is counts for w in workers):
        return counts
    if any(w.counts.size != 1 for w in workers):
        raise SchedulingError(
            "workers must share one tally or each keep a private one"
        )
    counts = WorkerCounts(len(workers))
    for worker in workers:
        if worker.current is not None:
            counts.busy += 1
        if worker.failed:
            counts.failed += 1
        if worker.is_free:
            counts.free |= worker.bit
        worker.counts = counts
    return counts
