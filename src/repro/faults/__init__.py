"""repro.faults — deterministic fault injection & resilience (chaos for DARC).

Build a :class:`FaultPlan` of typed events, arm it with a
:class:`FaultInjector`, and run a full episode with :func:`run_chaos`.
Same seed + same plan → identical runs; an empty plan is bit-identical
to no instrumentation at all.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".injector": ("DUP_RID_BASE", "FaultInjector"),
        ".plan": (
            "FaultEvent",
            "FaultPlan",
            "PacketDrop",
            "PacketDup",
            "WorkerCrash",
            "WorkerRecover",
            "WorkerSlowdown",
        ),
        ".runner": ("ChaosResult", "run_chaos"),
    },
)
