"""Two-level rack-scale scheduling (RackSched-style).

Composes inter-server balancing (:mod:`repro.rack.balancers`, driven by
the stale/sampled information model in :mod:`repro.rack.views`) with
intra-server µs-scale scheduling — each replica runs its own complete
SystemModel.  :func:`repro.rack.rack.run_rack` is the entry point;
:mod:`repro.rack.load` shapes rack-scale load (diurnal, flash crowd)
and :mod:`repro.rack.faults` crashes whole servers and partitions the
rack.  See ``docs/rack.md``.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".balancers": (
            "BALANCER_NAMES",
            "EXTRA_BALANCER_NAMES",
            "PowerOfD",
            "RackBalancer",
            "RandomBalancer",
            "RoundRobinBalancer",
            "SessionAffinity",
            "ShortestExpectedDelay",
            "StaleJSQ",
            "TypeAffinity",
            "affinity_assignment",
            "make_balancer",
        ),
        ".faults": (
            "RackFaultInjector",
            "RackFaultPlan",
            "RackPartition",
            "ServerCrash",
            "ServerRecover",
        ),
        ".load": ("diurnal_phases", "flash_crowd_phases"),
        ".rack": ("DEFAULT_N_USERS", "Rack", "RackResult", "run_rack"),
        ".tracing": ("RackTracer", "write_rack_trace"),
        ".views": ("QueueViews",),
    },
)
