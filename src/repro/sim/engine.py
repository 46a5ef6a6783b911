"""The discrete-event simulation engine.

:class:`EventLoop` is a classic calendar/heap-based discrete-event
executor.  Time is a ``float`` in *simulated microseconds* — the natural
unit for the microsecond-scale scheduling this package studies.

Design notes
------------
* Events fire strictly in ``(time, insertion order)`` order, so two events
  scheduled for the same instant run in the order they were scheduled.
  This determinism matters: scheduling policies make tie-breaking
  decisions (e.g. "which worker became idle first") that must be stable
  across runs with the same seed.
* Cancellation is lazy: cancelled events stay in the heap and are skipped
  when popped.  This keeps ``cancel`` O(1), which matters for preemption
  timers that are cancelled far more often than they fire.
* The heap stores ``(time, seq, event)`` tuples rather than bare
  :class:`~repro.sim.events.Event` objects.  Tuple comparison runs in C;
  comparing events via ``Event.__lt__`` was the single hottest function
  in a profile of the loop (one Python call per sift step per
  push/pop).  The ordering is identical — ``Event.__lt__`` uses the same
  ``(time, seq)`` key — and :meth:`peek_event` still hands callers the
  event object.
* The loop never moves time backwards; scheduling in the past, or at a
  NaN time, raises :class:`~repro.errors.SimulationError` instead of
  silently reordering history.
* A policy may settle work without heap events: Shinjuku's time sharing
  replays a certain quantum hand-back in bulk instead of popping one
  event per quantum.  It reports those skipped events through
  :meth:`EventLoop.credit_events`, and :attr:`EventLoop.events_processed`
  counts them, so the count is the same whether or not they were popped.
* An optional :class:`~repro.metrics.sanitizer.SimSanitizer` may be attached
  via :meth:`EventLoop.attach_sanitizer`; the loop then reports every
  executed event (and heap drain) to it.  With no sanitizer attached the
  cost is a single ``is None`` test per event.
* Read-only *observers* — a :class:`~repro.trace.tracer.Tracer`, a
  :class:`~repro.telemetry.probe.TelemetryProbe`, one tracer per rack
  replica — attach with :meth:`EventLoop.attach_observer` and are kept
  in one ordered tuple.  That is how they take periodic samples and
  scrapes *without scheduling events of their own*, so the heap
  contents, and therefore the simulated outcome, are identical with
  observers on or off.  Each observer's ``on_loop_event(loop)`` returns
  the virtual time at which it next needs a call (:func:`due_time`
  computes that for an interval sampler).  The loop keeps the minimum
  of those returns and, after an executed event, calls every observer,
  in attach order, only once the event's time has reached it; an
  observer that is not due yet just returns its due time again.  Every
  run starts with all observers due, so one attached between runs is
  called after the first event.  With none attached the cost is a
  single truthiness test per event.
* The loop does not time itself.  The simulator's own wall-clock cost is
  measured from outside by the benchmark suite (``benchmarks/suite``),
  which wraps handlers per layer rather than the loop.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Optional, Tuple

from ..errors import SimulationError
from .events import Event


def due_time(last: float, interval: float) -> float:
    """The earliest time ``t`` with ``not (t - last < interval)``.

    An observer that samples once ``interval`` has passed since its last
    sample at ``last`` returns this from ``on_loop_event``: the loop then
    calls it at exactly the instants at which the per-event test
    ``now - last < interval`` would first fail.  ``last + interval`` is
    not that time in general, because the sum and the difference round;
    but ``t - last`` rounds monotonically in ``t``, so a few
    :func:`math.nextafter` steps from ``last + interval`` reach it.
    ``last`` must be finite and ``interval`` a positive, non-NaN number.
    """
    t = last + interval
    while t - last < interval:
        t = math.nextafter(t, math.inf)
    below = math.nextafter(t, -math.inf)
    while not below - last < interval:
        t = below
        below = math.nextafter(t, -math.inf)
    return t


def bind_hooks(owner: Any, observer: Any, hooks: Tuple[str, ...]) -> None:
    """Append ``observer``'s bound ``on_<name>`` methods, for each name
    in ``hooks`` it defines, to ``owner``'s ``_<name>_hooks`` slots.

    A slot is None while no attached observer defines its hook, so an
    unobserved site makes one ``is None`` test; otherwise the site calls
    each bound method in the slot's tuple, in attach order.
    """
    for hook in hooks:
        method = getattr(observer, hook, None)
        if method is not None:
            slot = f"_{hook[3:]}_hooks"
            setattr(owner, slot, (getattr(owner, slot) or ()) + (method,))


class EventLoop:
    """A deterministic discrete-event executor.

    Example
    -------
    >>> loop = EventLoop()
    >>> fired = []
    >>> _ = loop.call_at(5.0, fired.append, "b")
    >>> _ = loop.call_at(1.0, fired.append, "a")
    >>> loop.run()
    >>> fired
    ['a', 'b']
    """

    def __init__(self, start_time: float = 0.0):
        if not start_time >= 0:
            raise SimulationError(f"start_time must be >= 0, got {start_time}")
        self._now = float(start_time)
        self._heap: list = []
        self._seq = 0
        self._events_processed = 0
        self._credited = 0
        self._running = False
        self._stopped = False
        self._sanitizer = None
        self._observers: Tuple[Any, ...] = ()

    @property
    def now(self) -> float:
        """Current simulation time in microseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of (non-cancelled) events executed so far, plus the
        events a policy settled without popping them
        (:attr:`credited_events`): the count an event-per-step run of
        the same model reports."""
        return self._events_processed + self._credited

    @property
    def credited_events(self) -> int:
        """Events a policy settled in bulk instead of popping them from
        the heap; ``events_processed - credited_events`` is the number of
        heap pops that ran a callback."""
        return self._credited

    def credit_events(self, count: int) -> None:
        """Count ``count`` events that a policy settled without booking
        them (a negative count retracts a real event that stood in for
        none)."""
        self._credited += count

    @property
    def pending_count(self) -> int:
        """Number of events still in the heap, including cancelled ones."""
        return len(self._heap)

    def call_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulation ``time``.

        Returns the :class:`Event`, whose :meth:`~Event.cancel` method
        revokes the callback if it has not yet fired.
        """
        # Negated so that a NaN time, which fails every comparison, is
        # refused rather than pushed into the heap.
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.3f} before now={self._now:.3f}"
            )
        seq = self._seq
        event = Event(time, seq, fn, args)
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def call_after(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` ``delay`` microseconds from now.

        Inlined rather than delegating to :meth:`call_at`: this is the
        dominant scheduling entry point (one call per arrival and per
        service completion) and ``delay >= 0`` already implies the
        not-in-the-past invariant ``call_at`` would re-check (a NaN
        delay is refused like a negative one).
        """
        if not delay >= 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        time = self._now + delay
        seq = self._seq
        event = Event(time, seq, fn, args)
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    @property
    def sanitizer(self):
        """The attached :class:`SimSanitizer`, or None (the default)."""
        return self._sanitizer

    def attach_sanitizer(self, sanitizer) -> None:
        """Install an invariant checker notified around every event.

        Pass ``None`` to detach.  Only one sanitizer may be attached at a
        time; attaching over an existing one raises.
        """
        if sanitizer is not None and self._sanitizer is not None and sanitizer is not self._sanitizer:
            raise SimulationError("a sanitizer is already attached to this loop")
        self._sanitizer = sanitizer

    @property
    def observers(self) -> Tuple[Any, ...]:
        """The attached observers, in the order they are notified."""
        return self._observers

    def attach_observer(self, observer) -> None:
        """Install an observer notified after executed events.

        An observer defines ``on_loop_event(loop)``, which returns the
        virtual time at which it next needs a call, and is strictly
        read-only: it samples simulated state but never schedules events
        or mutates state, so attaching one cannot change the simulated
        outcome.  Observers are notified in attach order; attaching the
        same observer twice raises.
        """
        if not callable(getattr(observer, "on_loop_event", None)):
            raise SimulationError(f"{observer!r} has no on_loop_event(loop) hook")
        if any(attached is observer for attached in self._observers):
            raise SimulationError(f"{observer!r} is already attached to this loop")
        self._observers += (observer,)

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or None if the heap is drained."""
        event = self.peek_event()
        return event.time if event is not None else None

    def peek_event(self) -> Optional[Event]:
        """The next pending non-cancelled event, or None when drained.

        This is how a sanitizer in shadow mode detects same-timestamp
        *sibling* events: inside a callback (or the sanitizer hooks
        around it) the event being executed has already been popped, so
        the peeked event is the one that will fire next — if its time
        equals the current event's time, the two are an insertion-order
        tie.
        """
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0][2] if heap else None

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run events until the heap drains, ``until`` is reached, or
        ``max_events`` have executed.

        When ``until`` is given, the clock is advanced to exactly
        ``until`` on return even if the last event fired earlier, so
        measurements of "simulated duration" are exact.

        Returns the simulation time at exit.
        """
        if self._running:
            raise SimulationError("EventLoop.run() is not reentrant")
        self._running = True
        self._stopped = False
        heap = self._heap
        heappop = heapq.heappop
        sanitizer = self._sanitizer
        observers = self._observers
        # Every observer is due after the first event of a run.
        due = -math.inf
        executed = 0
        try:
            while heap:
                head = heap[0]
                event = head[2]
                if event.cancelled:
                    heappop(heap)
                    continue
                time = head[0]
                if until is not None and time > until:
                    break
                if max_events is not None and executed >= max_events:
                    break
                heappop(heap)
                if sanitizer is not None:
                    sanitizer.before_event(self, event)
                self._now = time
                event.fn(*event.args)
                self._events_processed += 1
                executed += 1
                if sanitizer is not None:
                    sanitizer.after_event(self, event)
                if observers and time >= due:
                    due = self._notify_observers(observers)
                if self._stopped:
                    break
            if sanitizer is not None:
                drained = True
                for entry in heap:
                    if not entry[2].cancelled:
                        drained = False
                        break
                if drained:
                    sanitizer.on_drain(self)
        finally:
            self._running = False
        if until is not None and not self._stopped and self._now < until:
            if max_events is None or executed < max_events:
                self._now = until
        return self._now

    def _notify_observers(self, observers: Tuple[Any, ...]) -> float:
        """Call every observer in attach order; return the earliest time
        any of them next needs a call."""
        due = math.inf
        for observer in observers:
            when = observer.on_loop_event(self)
            # NaN is the one value unequal to itself.
            if when is None or when != when:
                raise SimulationError(
                    f"{observer!r}.on_loop_event returned {when!r}, not the "
                    "virtual time of its next call"
                )
            if when < due:
                due = when
        return due

    def drain(self) -> None:
        """Discard every pending event without running it."""
        self._heap.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"EventLoop(now={self._now:.3f}us, pending={len(self._heap)}, "
            f"processed={self.events_processed})"
        )
