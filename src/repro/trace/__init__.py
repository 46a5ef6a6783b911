"""Per-request span tracing and scheduler-decision observability.

Opt-in and zero-overhead when off: construct a :class:`Tracer`, install
it on a run (``run_once(..., tracer=...)`` or :meth:`Tracer.install`),
and every request's pipeline journey, every DARC reservation decision,
steal attempt, preemption and fault event, plus periodic queue/worker
samples, are recorded against monotonic simulated time.  Export with
:func:`write_trace` (Perfetto-loadable JSON + lossless native layer) or
:func:`spans_to_csv`; analyze with :class:`LatencyBreakdown`
(percentile → per-stage attribution) and :class:`TailMonitor`
(streaming P² tail estimates).  The ``repro-trace`` CLI summarizes,
converts and validates trace files.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".breakdown": ("LatencyBreakdown", "StageBreakdown"),
        ".export": (
            "TraceDocument",
            "build_document",
            "build_trace_events",
            "load_trace",
            "spans_to_csv",
            "validate_chrome_trace",
            "write_trace",
        ),
        ".monitor": ("TailMonitor",),
        ".span": (
            "COMPLETE",
            "DISPATCHER_DROP",
            "DROP",
            "STAGE_KEYS",
            "TERMINAL_STATES",
            "Slice",
            "Span",
        ),
        ".tracer": ("Decision", "Tracer", "WorkerSample"),
    },
)
