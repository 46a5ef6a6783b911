"""Measurement: recorders, percentiles, run summaries, time series."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".percentiles": (
            "P999",
            "P2Quantile",
            "p999",
            "percentile",
            "percentile_profile",
            "tail_credible",
        ),
        ".recorder": ("CompletionColumns", "Recorder"),
        ".summary": ("RunSummary", "TypeSummary"),
        ".timeseries": ("AllocationTimeline", "WindowedStats"),
        ".utilization": ("UtilizationReport",),
    },
)
