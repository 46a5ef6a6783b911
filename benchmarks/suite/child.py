"""One benchmark round, run in a fresh interpreter.

Usage (the orchestrator, ``run.py``, starts this; ``src`` must be on
``PYTHONPATH``)::

    python benchmarks/suite/child.py '{"workload": "server-darc",
        "n_requests": 60000, "seed": 1, "traced": false}'

It imports ``repro``, builds the workload, times the ``run_once`` /
``run_rack`` call, checks the outputs and prints one JSON object on the
last line of stdout.  An untraced round only stamps the first
``EventLoop.run`` entry (the end of set-up); a traced round installs the
per-layer :class:`~ledger.Ledger` first.  Timestamps are
``time.monotonic()``, which is system-wide, so the orchestrator can
subtract the moment it started this interpreter.  Host speed is sampled
all through the round by :class:`SpeedSampler`; the record gives the
speed over set-up and over the call, and the seconds the sampling took
from each, so the orchestrator can take them out.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import itertools
import json
import math
import resource
import signal
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import workloads

#: The ``Recorder.columns()`` arrays that enter the digest, in order.
DIGEST_COLUMNS = (
    "type_ids",
    "arrivals",
    "services",
    "finishes",
    "waits",
    "preemptions",
    "overheads",
)

#: A traced run must account for at least this share of the call.
MIN_COVERAGE = 0.95

#: Iterations per speed sample (about 0.5 ms).
BURST_N = 1_000
#: Seconds between speed samples; sampling takes 5-7% of a round, and
#: set-up gets about twenty samples.
PERIOD_S = 0.01


class SpeedSampler:
    """Samples host speed while the round runs.

    Every :data:`PERIOD_S` a ``SIGALRM`` handler times :data:`BURST_N`
    iterations of a fixed pure-Python loop shaped like the simulator's
    hot path: a tuple heap, a bound-method call and an attribute update
    per iteration.  The handler runs between two bytecodes of whatever
    the round is doing and touches none of its state, so the simulation
    is unchanged; only its wall time grows by the bursts', which
    :meth:`window` reports so they can be taken out.

    The loop is benchmark code, so no change to the program moves it; a
    busy host slows it about as much as it slows a simulation.  Sampling
    during the call, rather than beside it, follows speed changes that
    happen within a round.
    """

    def __init__(self) -> None:
        #: (start, seconds) of every burst, start in ``time.monotonic()``.
        self.bursts: List[Tuple[float, float]] = []
        seq = itertools.count()

        class Item:
            __slots__ = ("hits",)

            def __init__(self) -> None:
                self.hits = 0

            def fire(self, heap: list, now: float) -> None:
                self.hits += 1
                heapq.heappush(heap, (now + 1.0 + self.hits % 7, next(seq), self))

        self._heap = [(float(i), next(seq), Item()) for i in range(64)]
        heapq.heapify(self._heap)
        self._previous: Any = None

    def _burst(self, *_: Any) -> None:
        heap, pop = self._heap, heapq.heappop
        # A collection of the simulation's heap must not land in a burst.
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.monotonic()
        for _ in range(BURST_N):
            now, _, item = pop(heap)
            item.fire(heap, now)
        t1 = time.monotonic()
        if collecting:
            gc.enable()
        self.bursts.append((t0, t1 - t0))

    def start(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._burst)
        self._burst()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def window(self, t0: float, t1: float) -> Tuple[float, float]:
        """(host speed in iterations/s, seconds of sampling) over the
        bursts that started in ``[t0, t1)``.  A window too short to hold
        a burst takes the speed of the whole round."""
        inside = [s for start, s in self.bursts if t0 <= start < t1]
        sampled = inside or [s for _, s in self.bursts]
        return BURST_N * len(sampled) / sum(sampled), sum(inside)


def outcome_digest(columns: Any, completed: int, dropped: int, events: int) -> str:
    """sha256 over the completion columns plus the run's counts."""
    h = hashlib.sha256()
    for name in DIGEST_COLUMNS:
        array = getattr(columns, name)
        h.update(name.encode())
        h.update(array.tobytes())
    h.update(f"completed={completed};dropped={dropped};events={events}".encode())
    return h.hexdigest()


class _RunEntryMark:
    """Stamps the first ``EventLoop.run`` entry without other wrapping."""

    def __init__(self) -> None:
        self.run_entry: Optional[float] = None
        self.missing: List[str] = []
        self._loop_cls = None

    def install(self) -> "_RunEntryMark":
        try:
            from repro.sim.engine import EventLoop

            raw = EventLoop.run
        except (ImportError, AttributeError) as exc:
            self.missing.append("repro.sim.engine.EventLoop.run")
            print(f"warning: cannot stamp EventLoop.run entry ({exc})", file=sys.stderr)
            return self
        mark = self

        def run(loop, *args, **kwargs):
            if mark.run_entry is None:
                mark.run_entry = time.monotonic()
            return raw(loop, *args, **kwargs)

        self._loop_cls, self._raw = EventLoop, raw
        EventLoop.run = run
        return self

    def uninstall(self) -> None:
        if self._loop_cls is not None:
            self._loop_cls.run = self._raw


def run_round(
    workload: str,
    n_requests: int,
    seed: int,
    traced: bool,
    keep_spans: bool = False,
) -> Dict[str, Any]:
    """Build, time and check one simulation; return its record."""
    t_start = time.monotonic()
    sampler = SpeedSampler().start()
    try:
        import numpy as np
        import repro  # noqa: F401  (the import cost is part of set-up)

        t_imports = time.monotonic()
        if traced:
            from ledger import Ledger

            probe: Any = Ledger().install()
        else:
            probe = _RunEntryMark().install()
        try:
            call = workloads.build(workload, n_requests, seed)
            t_call0 = time.monotonic()
            result = call()
            t_call1 = time.monotonic()
        finally:
            probe.uninstall()
    finally:
        sampler.stop()
    t_run_entry = probe.run_entry if probe.run_entry is not None else t_call0
    _, sampled_imports_s = sampler.window(t_start, t_imports)
    setup_speed, sampled_setup_s = sampler.window(t_start, t_run_entry)
    call_speed, sampled_call_s = sampler.window(t_call0, t_call1)

    server = getattr(result, "server", None)
    recorder = getattr(result, "recorder", None) or server.recorder
    loop = getattr(result, "loop", None) or server.loop
    events = loop.events_processed
    columns = recorder.columns()
    completed, dropped = recorder.completed, recorder.dropped
    p999 = float(result.summary.overall_tail_slowdown)
    views = getattr(result, "views", None)
    counters = views.counters() if views is not None else {}
    reads = counters.get("fresh_reads", 0) + counters.get("stale_reads", 0)

    checks: List[str] = []
    if completed + dropped != n_requests:
        checks.append(f"conservation: {completed} completed + {dropped} dropped != {n_requests}")
    if dropped:
        checks.append(f"{dropped} requests dropped")
    latencies = columns.finishes - columns.arrivals
    if len(latencies) and not np.all(latencies >= columns.services * (1 - 1e-9)):
        checks.append("a request finished faster than its service time")
    if not (math.isfinite(p999) and p999 >= 1.0):
        checks.append(f"p99.9 slowdown {p999} is not a finite value >= 1")

    record: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "n_requests": n_requests,
        "traced": traced,
        "t_imports": t_imports,
        "t_run_entry": t_run_entry,
        "t_call0": t_call0,
        "call_s": t_call1 - t_call0,
        "setup_speed": setup_speed,
        "call_speed": call_speed,
        "sampled_imports_s": sampled_imports_s,
        "sampled_setup_s": sampled_setup_s,
        "sampled_call_s": sampled_call_s,
        "completed": completed,
        "dropped": dropped,
        "events": events,
        "digest": outcome_digest(columns, completed, dropped, events),
        "p999_slowdown": p999,
        "fresh_frac": counters.get("fresh_reads", 0) / reads if reads else 0.0,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "missing": list(probe.missing),
        "checks": checks,
    }
    if traced:
        layers = probe.layer_metrics(completed + dropped, events)
        summary_s = layers["metrics.summary_s"]
        covered = (t_run_entry - t_call0) + probe.run_wall_s + summary_s
        coverage = covered / record["call_s"]
        layers["bench.coverage"] = coverage
        if coverage < MIN_COVERAGE:
            checks.append(f"ledger covers {coverage:.3f} of the call (< {MIN_COVERAGE})")
        record["layers"] = layers
        record["self_sum_s"] = sum(probe.run_self_s.values())
        record["run_wall_s"] = probe.run_wall_s
        record["other_layers"] = probe.other_layers()
        if keep_spans:
            record["spans"] = probe.spans
    return record


def main(argv: List[str]) -> int:
    spec = json.loads(argv[1])
    record = run_round(
        spec["workload"],
        int(spec["n_requests"]),
        int(spec["seed"]),
        bool(spec["traced"]),
        keep_spans=bool(spec.get("keep_spans", False)),
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
