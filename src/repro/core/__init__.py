"""DARC — the paper's primary contribution.

Request classifiers (§4.2), workload profiling (§4.3.3), type grouping
and worker reservation (Algorithm 2), the DARC dispatcher (Algorithm 1),
and the manually-tuned DARC-static variant (§5.3).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".allocator": ("CoreAllocator", "UtilizationGovernor"),
        ".classifier": (
            "DEFAULT_CLASSIFIER_COST_US",
            "CallableClassifier",
            "ConfusionClassifier",
            "OracleClassifier",
            "PartialClassifier",
            "RandomClassifier",
            "RequestClassifier",
        ),
        ".darc": ("DarcScheduler",),
        ".grouping": ("TypeEntry", "TypeGroup", "group_types"),
        ".profiler": ("ProfileSnapshot", "TypeProfile", "WorkloadProfiler"),
        ".reservation": (
            "GroupAllocation",
            "Reservation",
            "compute_reservation",
            "demand_deviation",
        ),
        ".static": ("DarcStatic",),
    },
)
