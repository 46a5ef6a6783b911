"""The simulator self-profiler: wall-clock attribution of hot paths.

Everything else in :mod:`repro.telemetry` lives strictly on virtual
time.  The profiler is the one deliberate exception: it measures how
long the *simulator itself* takes — per-handler-type cumulative wall
time, events per wall-second, peak heap — so regressions in the
simulation engine show up as numbers, not vibes.

It is opt-in, wraps event execution from the outside
(``EventLoop.attach_profiler``), and never touches simulated state, so
a profiled run still produces the exact same virtual-time results; it
just runs a little slower while being measured.  The wall-clock and
allocation-tracking calls below are the *only* allowlisted impurity in
the telemetry package — every line is pragma-tagged for
``repro-analyze`` (A301).

Output is ``BENCH_profile.json`` (same ``BENCH_*`` family the chaos and
analyze benchmarks use, aggregated by ``repro-metrics bench``).
"""

from __future__ import annotations

import json
import time
import tracemalloc
from typing import Any, Dict, List, Optional

from ..errors import TelemetryError
from ..sim.units import US_PER_SECOND

#: Output schema identifier.
PROFILE_KIND = "repro-profile"
PROFILE_VERSION = 1


class HandlerStats:
    """Accumulated wall time for one handler type (``fn.__qualname__``)."""

    __slots__ = ("name", "calls", "cum_s", "alloc_bytes")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.cum_s = 0.0
        #: Net bytes the handler allocated and retained, summed over
        #: calls (positive per-call deltas only; a call that frees more
        #: than it allocates contributes zero).  Only populated when the
        #: profiler tracks the heap.
        self.alloc_bytes = 0

    def as_dict(self) -> Dict[str, Any]:
        mean_us = (self.cum_s / self.calls) * US_PER_SECOND if self.calls else 0.0
        return {
            "name": self.name,
            "calls": self.calls,
            "cum_s": self.cum_s,
            "mean_us": mean_us,
            "alloc_bytes": self.alloc_bytes,
        }


class SelfProfiler:
    """Attributes simulator wall time to event-handler types.

    Usage::

        profiler = SelfProfiler()
        loop.attach_profiler(profiler)
        profiler.start()
        loop.run()
        report = profiler.stop(loop)
        profiler.write("BENCH_profile.json", report)

    ``track_heap=True`` additionally snapshots peak heap usage and
    per-handler allocation deltas via ``tracemalloc`` (slower; off by
    default).
    """

    def __init__(self, track_heap: bool = False):
        self.track_heap = track_heap
        self._handlers: Dict[str, HandlerStats] = {}
        self._started_at: Optional[float] = None
        self._wall_s = 0.0
        self._events = 0
        self._peak_heap = 0
        self._tracing_heap = False
        #: True while heap deltas should be sampled around each event —
        #: a plain flag so the per-event path pays one attribute test,
        #: not an ``is_tracing()`` call, when heap tracking is off.
        self._heap_live = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started_at is not None:
            raise TelemetryError("profiler already started")
        if self.track_heap and not tracemalloc.is_tracing():
            tracemalloc.start()  # repro-analyze: disable=A301
            self._tracing_heap = True
        self._heap_live = self.track_heap and tracemalloc.is_tracing()
        self._started_at = time.perf_counter()  # repro-analyze: disable=A301

    def run_event(self, event) -> None:
        """Execute one event under timing (called by the event loop)."""
        fn = event.fn
        name = getattr(fn, "__qualname__", None) or repr(fn)
        stats = self._handlers.get(name)
        if stats is None:
            stats = HandlerStats(name)
            self._handlers[name] = stats
        heap_live = self._heap_live
        if heap_live:
            heap_before = tracemalloc.get_traced_memory()[0]  # repro-analyze: disable=A301
        t0 = time.perf_counter()  # repro-analyze: disable=A301
        try:
            fn(*event.args)
        finally:
            stats.cum_s += time.perf_counter() - t0  # repro-analyze: disable=A301
            stats.calls += 1
            self._events += 1
            if heap_live:
                delta = tracemalloc.get_traced_memory()[0] - heap_before  # repro-analyze: disable=A301
                if delta > 0:
                    stats.alloc_bytes += delta

    def stop(self, loop=None) -> Dict[str, Any]:
        """Finish timing and return the report dict."""
        if self._started_at is None:
            raise TelemetryError("profiler not started")
        self._wall_s = time.perf_counter() - self._started_at  # repro-analyze: disable=A301
        self._started_at = None
        if self.track_heap and tracemalloc.is_tracing():
            _, self._peak_heap = tracemalloc.get_traced_memory()  # repro-analyze: disable=A301
            if self._tracing_heap:
                tracemalloc.stop()  # repro-analyze: disable=A301
                self._tracing_heap = False
        self._heap_live = False
        return self.report(loop)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def report(self, loop=None, meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        handlers: List[Dict[str, Any]] = [
            stats.as_dict()
            for stats in sorted(
                self._handlers.values(), key=lambda s: (-s.cum_s, s.name)
            )
        ]
        wall = self._wall_s
        return {
            "kind": PROFILE_KIND,
            "version": PROFILE_VERSION,
            "meta": meta or {},
            "wall_s": wall,
            "events": self._events,
            "events_per_sec": self._events / wall if wall > 0 else 0.0,
            "peak_heap_bytes": self._peak_heap,
            "sim_time_us": loop.now if loop is not None else 0.0,
            "handlers": handlers,
        }

    @staticmethod
    def write(path: str, report: Dict[str, Any]) -> None:
        with open(path, "w") as fp:
            json.dump(report, fp, indent=2, sort_keys=True)
            fp.write("\n")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SelfProfiler(events={self._events}, "
            f"handlers={len(self._handlers)}, wall_s={self._wall_s:.3f})"
        )
