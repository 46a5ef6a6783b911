"""Virtual-time telemetry for the Persephone reproduction.

The aggregate observability plane: a Prometheus-style metrics registry
(:mod:`~repro.telemetry.registry`), a change-compressed scrape timeline
(:mod:`~repro.telemetry.timeline`), the :class:`TelemetryProbe` that
wires both into a run (:mod:`~repro.telemetry.probe`), exporters for
Prometheus text / JSONL / a static HTML dashboard
(:mod:`~repro.telemetry.export`) and the ``repro-metrics`` CLI
(:mod:`~repro.telemetry.cli`).

Everything here runs on **virtual time** only — the observer-purity
analysis in :mod:`repro.analyze` (A301) enforces it statically, and
``tests/telemetry/test_determinism.py`` enforces it dynamically
(bit-identical run digests with metrics on or off).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".probe": ("DEFAULT_SCRAPE_INTERVAL_US", "TelemetryProbe"),
        ".registry": (
            "COUNTER",
            "DEFAULT_BOUNDS",
            "GAUGE",
            "HISTOGRAM",
            "Counter",
            "Gauge",
            "Histogram",
            "MetricsRegistry",
            "log_spaced_bounds",
            "series_key",
        ),
        ".timeline": ("MetricsTimeline", "SeriesTrack"),
    },
)
