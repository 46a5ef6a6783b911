"""Discrete-event simulation substrate.

Exports the event loop, the event handle type, seeded random streams, and
unit-conversion helpers.  All simulation times are in microseconds.
"""

from .engine import EventLoop, due_time
from .events import Event
from .randomness import RngRegistry
from .units import (
    DEFAULT_CPU_GHZ,
    cycles_to_us,
    krps_to_per_us,
    milliseconds,
    mrps_to_per_us,
    nanoseconds,
    per_us_to_krps,
    per_us_to_mrps,
    seconds,
    us_to_cycles,
)

__all__ = [
    "EventLoop",
    "due_time",
    "Event",
    "RngRegistry",
    "DEFAULT_CPU_GHZ",
    "cycles_to_us",
    "us_to_cycles",
    "seconds",
    "milliseconds",
    "nanoseconds",
    "mrps_to_per_us",
    "per_us_to_mrps",
    "krps_to_per_us",
    "per_us_to_krps",
]
