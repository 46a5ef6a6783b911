"""Core-allocator cooperation (§6 "DARC in the datacenter ecosystem").

"Though not a focus of this paper, DARC can cooperate with an allocator
to obtain and release cores, adapting to load changes and updating
reservations during such events."

:class:`CoreAllocator` owns a machine's cores and leases a prefix of
them to a DARC scheduler.  Granting extends the scheduler's schedulable
worker list; revoking is cooperative: DARC is non-preemptive, so a busy
worker beyond the lease finishes its in-flight request and then simply
receives no further work.  Every lease change reinstalls the
reservation, so Algorithm 2 re-partitions the new core count
immediately.

:class:`UtilizationGovernor` is a simple closed-loop policy on top: it
polls queue backlog and idle cores and grows or shrinks the lease — the
"adapting to load changes" loop the paper sketches.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..errors import ConfigurationError, SchedulingError
from ..sim.engine import EventLoop
from .darc import DarcScheduler


class CoreAllocator:
    """Leases cores from a fixed machine-wide pool to one DARC scheduler.

    Construct *after* the scheduler is bound.  The allocator replaces the
    scheduler's worker list with the leased prefix, so every scheduler
    code path (dispatch, reservation updates, waste accounting) sees only
    leased cores; workers outside the lease drain naturally.
    """

    def __init__(self, scheduler: DarcScheduler, min_cores: int = 1):
        if min_cores < 1:
            raise ConfigurationError(f"min_cores must be >= 1, got {min_cores}")
        if not scheduler.workers:
            raise ConfigurationError("scheduler must be bound before attaching an allocator")
        self.scheduler = scheduler
        self.min_cores = min_cores
        self._all_workers = list(scheduler.workers)
        self.grants = 0
        self.revocations = 0
        #: (time, active_cores) lease history.
        self.lease_log: List = []

    @property
    def total_cores(self) -> int:
        return len(self._all_workers)

    @property
    def active_cores(self) -> int:
        return len(self.scheduler.workers)

    def set_active(self, n_cores: int) -> int:
        """Resize the lease to ``n_cores``; returns the applied count.

        Counts are clamped to ``[min_cores, total_cores]``.
        """
        n_cores = max(self.min_cores, min(self.total_cores, n_cores))
        previous = self.active_cores
        if n_cores == previous:
            return n_cores
        if n_cores > previous:
            self.grants += n_cores - previous
        else:
            self.revocations += previous - n_cores
        scheduler = self.scheduler
        scheduler.workers = self._all_workers[:n_cores]
        if scheduler.reservation is not None:
            # Re-run Algorithm 2 over the resized machine; newly granted
            # idle cores pick up pending work immediately.  Right after a
            # window reset the window is empty, so re-plan from the last
            # installed entries, as a crash or recovery does.
            entries = scheduler.profiler.window_entries() or scheduler._last_entries
            if entries:
                scheduler._install_reservation(entries)
        if scheduler.loop is not None:
            self.lease_log.append((scheduler.loop.now, n_cores))
        return n_cores

    def grant(self, n: int = 1) -> int:
        """Lease ``n`` more cores (clamped); returns the new active count."""
        return self.set_active(self.active_cores + n)

    def revoke(self, n: int = 1) -> int:
        """Release ``n`` cores (clamped); returns the new active count.

        Cooperative: a revoked core that is mid-request finishes it (DARC
        never preempts), then idles outside the schedulable set.
        """
        return self.set_active(self.active_cores - n)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CoreAllocator(active={self.active_cores}/{self.total_cores}, "
            f"grants={self.grants}, revocations={self.revocations})"
        )


class UtilizationGovernor:
    """Closed-loop lease sizing from queue pressure.

    Every ``period_us`` it inspects the scheduler: a backlog of at least
    ``grow_backlog`` queued requests grants one core; an empty backlog
    with more than one idle leased core revokes one.  Deliberately simple
    — the point is demonstrating the §6 cooperation hook, not optimal
    autoscaling.
    """

    def __init__(
        self,
        loop: EventLoop,
        allocator: CoreAllocator,
        period_us: float = 1000.0,
        grow_backlog: int = 4,
        on_decision: Optional[Callable[[float, int], None]] = None,
    ):
        if period_us <= 0:
            raise ConfigurationError(f"period_us must be > 0, got {period_us}")
        if grow_backlog < 1:
            raise ConfigurationError(f"grow_backlog must be >= 1, got {grow_backlog}")
        self.loop = loop
        self.allocator = allocator
        self.period_us = period_us
        self.grow_backlog = grow_backlog
        self.on_decision = on_decision
        self.decisions = 0
        self._running = False

    def start(self) -> None:
        if self._running:
            raise SchedulingError("governor already started")
        self._running = True
        self.loop.call_after(self.period_us, self._tick)

    def stop(self) -> None:
        self._running = False

    def _tick(self) -> None:
        if not self._running:
            return
        scheduler = self.allocator.scheduler
        backlog = scheduler.queued
        active = self.allocator.active_cores
        applied = active
        if backlog >= self.grow_backlog:
            applied = self.allocator.grant(1)
        elif backlog == 0:
            idle = 0
            for w in scheduler.workers:
                if w.is_free:
                    idle += 1
            if idle > 1:
                applied = self.allocator.revoke(1)
        if applied != active:
            self.decisions += 1
            if self.on_decision is not None:
                self.on_decision(self.loop.now, applied)
        self.loop.call_after(self.period_us, self._tick)
