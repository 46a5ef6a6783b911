"""Run fingerprints: one SHA-256 over a run's observable outcome.

:func:`digest_outcome` hashes every completion column of a
:class:`~repro.metrics.recorder.Recorder` plus the engine counters;
:func:`digest_chaos_outcome` also covers the orphan-request ledger and
the fault injector's counters.  Two same-seed runs of a correct
simulator produce byte-identical digests.  The twice-run check
(``repro-analyze determinism``), the sweep executor, the rack and the
pinned-digest tests all fingerprint runs through these two functions,
so a digest is comparable no matter which path produced it.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np


def _columns_sha(recorder) -> "hashlib._Hash":
    """SHA-256 primed with every completion column — the common prefix of
    all outcome digests."""
    columns = recorder.columns()
    sha = hashlib.sha256()
    for array in (
        columns.type_ids,
        columns.arrivals,
        columns.services,
        columns.finishes,
        columns.waits,
        columns.preemptions,
        columns.overheads,
    ):
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha


def digest_outcome(recorder, loop) -> str:
    """Hash one run's observable outcome: completion columns plus engine
    counters.  This is *the* per-run fingerprint — :func:`digest_run`,
    the determinism pytest suite and the sweep executor
    (:mod:`repro.sweep.runner`) all produce their digests through it, so
    a cell's digest is comparable no matter which path executed it."""
    sha = _columns_sha(recorder)
    sha.update(
        struct.pack(
            "<qqqd",
            recorder.completed,
            recorder.dropped,
            loop.events_processed,
            loop.now,
        )
    )
    return sha.hexdigest()


def digest_chaos_outcome(recorder, loop, injector) -> str:
    """Chaos-run fingerprint: additionally covers the orphan-request
    ledger and the fault injector's counters."""
    sha = _columns_sha(recorder)
    sha.update(
        struct.pack(
            "<qqqqqqqd",
            recorder.completed,
            recorder.dropped,
            recorder.timeouts,
            recorder.retries,
            recorder.failures,
            recorder.late_completions,
            loop.events_processed,
            loop.now,
        )
    )
    for key, value in sorted(injector.counters().items()):
        sha.update(key.encode())
        sha.update(struct.pack("<q", value))
    return sha.hexdigest()
