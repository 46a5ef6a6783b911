"""Two-level rack-scale scheduling (RackSched-style).

Composes inter-server balancing (:mod:`repro.rack.balancers`, driven by
the stale/sampled information model in :mod:`repro.rack.views`) with
intra-server µs-scale scheduling — each replica runs its own complete
SystemModel.  :func:`repro.rack.rack.run_rack` is the entry point;
:mod:`repro.rack.load` shapes rack-scale load (diurnal, flash crowd)
and :mod:`repro.rack.faults` crashes whole servers and partitions the
rack.  See ``docs/rack.md``.
"""

from .balancers import (
    BALANCER_NAMES,
    EXTRA_BALANCER_NAMES,
    PowerOfD,
    RackBalancer,
    RandomBalancer,
    RoundRobinBalancer,
    SessionAffinity,
    ShortestExpectedDelay,
    StaleJSQ,
    TypeAffinity,
    affinity_assignment,
    make_balancer,
)
from .faults import (
    RackFaultInjector,
    RackFaultPlan,
    RackPartition,
    ServerCrash,
    ServerRecover,
)
from .load import diurnal_phases, flash_crowd_phases
from .rack import DEFAULT_N_USERS, Rack, RackResult, run_rack
from .tracing import RackTracer, write_rack_trace
from .views import QueueViews

__all__ = [
    "BALANCER_NAMES",
    "DEFAULT_N_USERS",
    "EXTRA_BALANCER_NAMES",
    "PowerOfD",
    "QueueViews",
    "Rack",
    "RackBalancer",
    "RackTracer",
    "RackFaultInjector",
    "RackFaultPlan",
    "RackPartition",
    "RackResult",
    "RandomBalancer",
    "RoundRobinBalancer",
    "ServerCrash",
    "ServerRecover",
    "SessionAffinity",
    "ShortestExpectedDelay",
    "StaleJSQ",
    "TypeAffinity",
    "affinity_assignment",
    "diurnal_phases",
    "flash_crowd_phases",
    "make_balancer",
    "run_rack",
    "write_rack_trace",
]
