"""Overload behaviour (§4.3.3 flow control and §6 overload discussion).

"As a measure of flow control, when the system is under pressure ...
the dispatcher drops requests from typed queues that are full.  This
allows to shed load only for overloaded types without impacting the
rest of the workload."  And §6: "In the event of a system overload,
DARC will keep prioritizing short requests as far as possible,
triggering flow control for longer requests first."

This benchmark drives High Bimodal at 120% of peak into DARC with
bounded typed queues and checks both properties: drops concentrate on
the long type, and short requests keep their microsecond tails even
though the machine as a whole is drowning.
"""

import pytest

from repro.core.darc import DarcScheduler
from repro.experiments.common import run_once
from repro.systems.persephone import PersephoneCfcfsSystem, PersephoneSystem
from repro.workload.presets import high_bimodal

OVERLOAD = 1.2
QUEUE_CAPACITY = 64


class BoundedDarc(PersephoneSystem):
    def __init__(self):
        super().__init__(n_workers=14, oracle=True, name="DARC (bounded queues)")

    def make_scheduler(self, spec, rngs):
        scheduler = super().make_scheduler(spec, rngs)
        scheduler.queue_capacity = QUEUE_CAPACITY
        return scheduler


def test_overload_sheds_longs_first(bench_n_requests):
    spec = high_bimodal()

    def run():
        return run_once(
            BoundedDarc(), spec, OVERLOAD, n_requests=bench_n_requests, seed=1
        )

    result = run()
    summary = result.summary
    recorder = result.server.recorder
    print()
    print(summary.describe())
    print(f"drops by type: {recorder.dropped_by_type}")

    short_drops = recorder.dropped_by_type.get(0, 0)
    long_drops = recorder.dropped_by_type.get(1, 0)

    # Flow control binds: the machine cannot absorb 120% of peak.
    assert recorder.dropped > 0
    # Shedding is per-type: the long queue overflows (its demand exceeds
    # its 13-worker partition) while shorts — whose demand fits their
    # reservation plus stealing — are barely touched.
    assert long_drops > 0
    assert short_drops < long_drops / 10
    # And §6's promise: shorts keep microsecond tails through overload.
    assert summary.per_type[0].tail_latency < 20.0
    # Completed longs see bounded latency (the queue bound is the bound).
    assert summary.per_type[1].tail_latency < QUEUE_CAPACITY * 100.0


def test_overload_cfcfs_collapses_everyone(bench_n_requests):
    """The same overload through c-FCFS (unbounded) drowns shorts too —
    the contrast that motivates typed flow control."""
    spec = high_bimodal()

    def run():
        return run_once(
            PersephoneCfcfsSystem(n_workers=14),
            spec,
            OVERLOAD,
            n_requests=bench_n_requests,
            seed=1,
        )

    result = run()
    summary = result.summary
    print()
    print(summary.describe())
    # Shorts are two orders of magnitude worse than under DARC's shed.
    assert summary.per_type[0].tail_latency > 200.0
