"""Discrete-event simulation substrate.

Exports the event loop, the event handle type, seeded random streams, and
unit-conversion helpers.  All simulation times are in microseconds.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".engine": ("EventLoop", "due_time"),
        ".events": ("Event",),
        ".randomness": ("RngRegistry",),
        ".units": (
            "DEFAULT_CPU_GHZ",
            "cycles_to_us",
            "krps_to_per_us",
            "milliseconds",
            "mrps_to_per_us",
            "nanoseconds",
            "per_us_to_krps",
            "per_us_to_mrps",
            "seconds",
            "us_to_cycles",
        ),
    },
)
