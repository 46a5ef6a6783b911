"""Scheduling policies: the Table 1 / Table 5 comparison set.

DARC itself lives in :mod:`repro.core`; this package holds the baselines
and the shared :class:`Scheduler` interface.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".base": ("PolicyTraits", "Scheduler"),
        ".fcfs": ("CentralizedFCFS", "DecentralizedFCFS", "WorkStealingFCFS"),
        ".srpt": ("ShortestRemainingProcessingTime",),
        ".timesharing": ("TimeSharing",),
        ".typed": (
            "CSCQ",
            "DeficitRoundRobin",
            "EarliestDeadlineFirst",
            "FixedPriority",
            "ShortestJobFirst",
            "StaticPartitioning",
        ),
    },
)


def all_policy_traits():
    """Every policy's :class:`PolicyTraits`, for the Table 1/5 benchmarks."""
    from ..core.darc import DarcScheduler
    from ..core.static import DarcStatic
    from .fcfs import CentralizedFCFS, DecentralizedFCFS, WorkStealingFCFS
    from .srpt import ShortestRemainingProcessingTime
    from .timesharing import TimeSharing
    from .typed import (
        CSCQ,
        DeficitRoundRobin,
        EarliestDeadlineFirst,
        FixedPriority,
        ShortestJobFirst,
        StaticPartitioning,
    )

    classes = [
        DecentralizedFCFS,
        CentralizedFCFS,
        WorkStealingFCFS,
        TimeSharing,
        ShortestRemainingProcessingTime,
        FixedPriority,
        ShortestJobFirst,
        EarliestDeadlineFirst,
        DeficitRoundRobin,
        StaticPartitioning,
        CSCQ,
        DarcStatic,
        DarcScheduler,
    ]
    return [cls.traits for cls in classes]
