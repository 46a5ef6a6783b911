"""Workload modelling: requests, distributions, arrivals, presets, traces."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".arrivals": (
            "ArrivalProcess",
            "BurstyArrivals",
            "DeterministicArrivals",
            "PoissonArrivals",
            "arrival_stream",
        ),
        ".closedloop": ("ClosedLoopClients",),
        ".distributions": (
            "Bimodal",
            "Exponential",
            "Fixed",
            "LogNormal",
            "Pareto",
            "ServiceTimeDistribution",
            "Uniform",
        ),
        ".generator": ("OpenLoopGenerator",),
        ".phases": ("Phase", "PhaseSchedule"),
        ".presets": (
            "PRESETS",
            "TPCC_TRANSACTIONS",
            "by_name",
            "extreme_bimodal",
            "facebook_usr",
            "figure1_workload",
            "high_bimodal",
            "rocksdb",
            "tpcc",
            "ycsb_a",
        ),
        ".request": ("UNKNOWN_TYPE", "Request", "RequestTypeSpec"),
        ".spec": ("TypedClass", "WorkloadSpec", "bimodal_spec", "nmodal_spec"),
        ".trace": ("Trace", "TraceReplayer", "record_trace"),
    },
)
