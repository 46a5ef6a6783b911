"""Fault plans — the typed, declarative chaos DSL.

A :class:`FaultPlan` is an ordered list of fault events, each pinned to a
simulated timestamp.  Plans are *data*: nothing happens until a
:class:`~repro.faults.injector.FaultInjector` arms one against a live
server.  Because all timing is simulated and all randomness (packet-level
faults) flows through a named :class:`~repro.sim.randomness.RngRegistry`
stream, the same ``(seed, plan)`` pair always produces the same run —
chaos experiments are replayable bug reports, not dice rolls.

Event vocabulary:

* :class:`WorkerCrash` — a core dies; its in-flight request loses all
  progress and is requeued (or dropped, per the event's policy).
* :class:`WorkerRecover` — a crashed core restarts clean, at full speed.
* :class:`WorkerSlowdown` — a straggler: service *begun* on the core runs
  ``factor`` times slower until ``until`` (or forever).
* :class:`PacketDrop` — during ``[at, until)`` each arriving request is
  lost before the server sees it, with probability ``probability``.
* :class:`PacketDup` — during ``[at, until)`` each arriving request is
  additionally delivered a second time (fresh rid), with probability
  ``probability``.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence

from ..errors import ConfigurationError


class FaultEvent:
    """Base class for all plan events; ``at`` is simulated time (us)."""

    __slots__ = ("at",)

    kind = "fault"

    def __init__(self, at: float):
        # Negated comparisons refuse NaN, which fails every comparison.
        if not 0.0 <= at < math.inf:
            raise ConfigurationError(f"fault time must be finite and >= 0, got {at}")
        self.at = float(at)

    def describe(self) -> str:
        return f"{self.kind}@{self.at:.1f}us"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(at={self.at})"


class WorkerFault(FaultEvent):
    """A fault targeting one worker core."""

    __slots__ = ("worker_id",)

    def __init__(self, at: float, worker_id: int):
        super().__init__(at)
        if worker_id < 0:
            raise ConfigurationError(f"worker_id must be >= 0, got {worker_id}")
        self.worker_id = worker_id

    def describe(self) -> str:
        return f"{self.kind}(w{self.worker_id})@{self.at:.1f}us"


class WorkerCrash(WorkerFault):
    """Core ``worker_id`` dies at ``at``.

    ``requeue`` selects the in-flight policy: True re-enters the victim
    through the normal arrival path (progress lost, re-classified);
    False drops it (the client's timeout/retry must rescue it).
    """

    __slots__ = ("requeue",)

    kind = "crash"

    def __init__(self, at: float, worker_id: int, requeue: bool = True):
        super().__init__(at, worker_id)
        self.requeue = requeue


class WorkerRecover(WorkerFault):
    """Core ``worker_id`` restarts at ``at`` (clean, full speed)."""

    kind = "recover"


class WorkerSlowdown(WorkerFault):
    """Core ``worker_id`` straggles: service begun while the slowdown is
    active occupies the core ``factor`` times its nominal service time.
    ``until=None`` means the degradation is permanent."""

    __slots__ = ("factor", "until")

    kind = "slowdown"

    def __init__(
        self, at: float, worker_id: int, factor: float, until: Optional[float] = None
    ):
        super().__init__(at, worker_id)
        if not 0.0 < factor < math.inf:
            raise ConfigurationError(
                f"slowdown factor must be finite and > 0, got {factor}"
            )
        if until is not None and not at < until < math.inf:
            raise ConfigurationError(
                f"slowdown until={until} must be finite and > at={at}"
            )
        self.factor = float(factor)
        self.until = float(until) if until is not None else None

    def describe(self) -> str:
        span = f"..{self.until:.1f}" if self.until is not None else ".."
        return f"slowdown(w{self.worker_id} x{self.factor:g})@{self.at:.1f}{span}us"


class PacketFault(FaultEvent):
    """A probabilistic ingress fault active during ``[at, until)``."""

    __slots__ = ("until", "probability")

    def __init__(self, at: float, until: float, probability: float):
        super().__init__(at)
        if not until > at:
            raise ConfigurationError(f"until={until} must be > at={at}")
        if not 0.0 <= probability <= 1.0:
            raise ConfigurationError(
                f"probability must be in [0, 1], got {probability}"
            )
        self.until = float(until)
        self.probability = float(probability)

    def active(self, now: float) -> bool:
        return self.at <= now < self.until

    def describe(self) -> str:
        return (
            f"{self.kind}(p={self.probability:g})"
            f"@{self.at:.1f}..{self.until:.1f}us"
        )


class PacketDrop(PacketFault):
    """Arriving requests are lost before the server, with probability p."""

    kind = "packet-drop"


class PacketDup(PacketFault):
    """Arriving requests are delivered twice (dup gets a fresh rid)."""

    kind = "packet-dup"


class FaultPlan:
    """An ordered collection of fault events.

    The plan keeps its events sorted by ``(at, insertion order)`` so
    arming is deterministic regardless of construction order.
    """

    def __init__(self, events: Iterable[FaultEvent] = ()):
        staged: List[FaultEvent] = []
        for event in events:
            if not isinstance(event, FaultEvent):
                raise ConfigurationError(
                    f"fault plans hold FaultEvent instances, got {event!r}"
                )
            staged.append(event)
        # Stable sort: same-instant events keep their authored order.
        self.events: List[FaultEvent] = sorted(staged, key=lambda e: e.at)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def crash_recover(
        cls,
        worker_ids: Sequence[int],
        crash_at: float,
        recover_at: Optional[float] = None,
        requeue: bool = True,
    ) -> "FaultPlan":
        """The canonical chaos episode: crash ``worker_ids`` at
        ``crash_at`` and (optionally) bring them all back at
        ``recover_at``."""
        events: List[FaultEvent] = [
            WorkerCrash(crash_at, wid, requeue=requeue) for wid in worker_ids
        ]
        if recover_at is not None:
            if recover_at <= crash_at:
                raise ConfigurationError(
                    f"recover_at={recover_at} must be > crash_at={crash_at}"
                )
            events.extend(WorkerRecover(recover_at, wid) for wid in worker_ids)
        return cls(events)

    def add(self, event: FaultEvent) -> "FaultPlan":
        """Return a new plan with ``event`` added (plans are treated as
        immutable once armed)."""
        return FaultPlan(self.events + [event])

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        return not self.events

    def __len__(self) -> int:
        return len(self.events)

    def worker_events(self) -> List[WorkerFault]:
        return [e for e in self.events if isinstance(e, WorkerFault)]

    def packet_events(self) -> List[PacketFault]:
        return [e for e in self.events if isinstance(e, PacketFault)]

    @property
    def needs_rng(self) -> bool:
        """True when the plan contains probabilistic (packet) faults."""
        return any(isinstance(e, PacketFault) for e in self.events)

    def validate(self, n_workers: int) -> None:
        """Check every worker-targeted event against the server size."""
        for event in self.worker_events():
            if event.worker_id >= n_workers:
                raise ConfigurationError(
                    f"{event.describe()} targets worker {event.worker_id} "
                    f"but the server has only {n_workers} workers"
                )

    def first_fault_time(self) -> Optional[float]:
        """When the first disruption starts (None for an empty plan)."""
        return self.events[0].at if self.events else None

    def describe(self) -> str:
        if self.is_empty:
            return "FaultPlan(empty)"
        return "FaultPlan[" + ", ".join(e.describe() for e in self.events) + "]"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return self.describe()
