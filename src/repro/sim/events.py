"""Event primitives for the discrete-event engine.

An :class:`Event` couples a firing time with a callback.  Events are
ordered by ``(time, seq)`` where ``seq`` is a monotonically increasing
tie-breaker, guaranteeing deterministic FIFO ordering for events scheduled
at the same instant — an important property for reproducible simulations.
"""

from __future__ import annotations

from typing import Any, Callable, Tuple


class Event:
    """A scheduled callback inside the event loop.

    Users normally obtain events from :meth:`repro.sim.engine.EventLoop.call_at`
    and only interact with them to :meth:`cancel` pending work (e.g. a
    preemption timer made obsolete by an early completion).
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: Tuple[Any, ...]):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so the loop skips it; idempotent."""
        self.cancelled = True

    @property
    def pending(self) -> bool:
        """True while the event has not been cancelled (it may have fired)."""
        return not self.cancelled

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.fn, "__name__", repr(self.fn))
        return f"Event(t={self.time:.3f}, seq={self.seq}, fn={name}, {state})"
