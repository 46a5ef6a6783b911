"""Streaming tail monitoring for long (chaos) runs.

:class:`TailMonitor` keeps one :class:`~repro.metrics.percentiles.P2Quantile`
estimator per request type plus one overall, so a multi-hour chaos run
can expose a live p99.9 without storing every latency sample.  The P²
markers are O(1) memory and O(1) per update; accuracy against the exact
array percentile is covered by ``tests/trace/test_monitor.py`` on
heavy-tailed (bimodal / lognormal) samples.

The monitor is fed by :meth:`Tracer.on_complete` (and by
:meth:`TelemetryProbe.on_complete` when the probe has no tracer's
monitor to share), but is equally usable standalone as a completion
sink.

Feeding is batched: :meth:`TailMonitor.observe` appends to buffers
that drain through the exact :meth:`P2Quantile.update_many` at
:data:`FEED_BLOCK` values and before every read, so reads match
per-value updates and memory stays O(1).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import TraceError
from ..metrics.percentiles import P2Quantile

#: Pseudo type id for the across-all-types estimator.
OVERALL = -2

#: Latencies buffered before the estimators are fed in one block.
FEED_BLOCK = 256


class TailMonitor:
    """Per-type streaming quantile estimates of completed-request latency."""

    def __init__(self, pct: float = 99.9):
        if not 0.0 < pct < 100.0:
            raise TraceError(f"pct must be in (0,100), got {pct}")
        self.pct = pct
        self._q = pct / 100.0
        self._estimators: Dict[int, P2Quantile] = {OVERALL: P2Quantile(self._q)}
        #: type id -> latencies not yet fed to its estimator.
        self._buffers: Dict[int, List[float]] = {OVERALL: []}
        self._overall_buffer = self._buffers[OVERALL]

    def observe(self, type_id: int, latency_us: float) -> None:
        """Feed one completed request's latency."""
        buffer = self._buffers.get(type_id)
        if buffer is None:
            self._estimators[type_id] = P2Quantile(self._q)
            buffer = self._buffers[type_id] = []
        buffer.append(latency_us)
        overall = self._overall_buffer
        overall.append(latency_us)
        if len(overall) >= FEED_BLOCK:
            self._drain()

    def _drain(self) -> None:
        """Feed every buffered latency to its estimator."""
        estimators = self._estimators
        for tid, buffer in self._buffers.items():
            if buffer:
                estimators[tid].update_many(buffer)
                buffer.clear()

    def estimate(self, type_id: Optional[int] = None) -> float:
        """Current tail estimate for ``type_id`` (None = across all
        types); NaN before any samples of that type."""
        self._drain()
        est = self._estimators.get(OVERALL if type_id is None else type_id)
        return float("nan") if est is None else est.value()

    def count(self, type_id: Optional[int] = None) -> int:
        self._drain()
        est = self._estimators.get(OVERALL if type_id is None else type_id)
        return 0 if est is None else est.count

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """JSON-friendly {type: {pct, estimate, count}} digest."""
        self._drain()
        out: Dict[str, Dict[str, float]] = {}
        for tid in sorted(self._estimators):
            est = self._estimators[tid]
            key = "overall" if tid == OVERALL else str(tid)
            out[key] = {
                "pct": self.pct,
                "estimate": est.value(),
                "count": est.count,
            }
        return out

    def register_gauges(self, registry) -> None:
        """Publish the streaming estimates as telemetry gauges.

        Registers a pull source on a
        :class:`~repro.telemetry.registry.MetricsRegistry`: at every
        scrape, each type with at least one sample exports its current
        P² tail estimate as ``repro_tail_latency_us{pct=...,type=...}``
        (plus the cross-type ``type="overall"`` series), so streaming
        tails appear on the dashboard without storing raw samples.
        """
        pct_label = f"{self.pct:g}"
        # type id -> its gauge, bound on the type's first scrape.
        gauges: Dict[int, object] = {}

        def sample(reg, now: float) -> None:
            self._drain()
            for tid in sorted(self._estimators):
                est = self._estimators[tid]
                if est.count == 0:
                    continue
                gauge = gauges.get(tid)
                if gauge is None:
                    gauge = gauges[tid] = reg.gauge(
                        "repro_tail_latency_us",
                        "Streaming P2 tail-latency estimate, by type.",
                        pct=pct_label,
                        type="overall" if tid == OVERALL else str(tid),
                    )
                gauge.set(est.value())

        registry.register_source(sample)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TailMonitor(p{self.pct}, types={len(self._estimators) - 1}, "
            f"n={self.count()})"
        )
