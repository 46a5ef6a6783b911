"""Server configuration.

Collects the pipeline parameters of §4.3: worker count and the fixed
per-request costs along the ingress path (net worker handling, request
classification, dispatcher→worker channel operation).  The §2/Fig. 10
policy simulations use an "ideal system with no network overheads", i.e.
all costs zero; the Perséphone system model uses the measured prototype
costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigurationError
from ..sim.units import cycles_to_us, nanoseconds

#: §5.1 testbed: 14 worker threads on dedicated physical cores.
TESTBED_WORKERS = 14
#: §2 simulation: 16 workers.
SIMULATION_WORKERS = 16
#: Dispatcher→worker SPSC channel operation: 88 cycles (§4.3.2).
CHANNEL_OP_US = cycles_to_us(88)


@dataclass
class ServerConfig:
    """Static parameters of a simulated server."""

    n_workers: int = TESTBED_WORKERS
    #: Net-worker per-packet handling before the dispatcher sees it.
    net_worker_delay_us: float = 0.0
    #: Classification cost on the dispatch path (§4.2, ≈100 ns measured).
    classifier_delay_us: float = 0.0
    #: One SPSC channel operation per dispatch (§4.3.2, ≈88 cycles).
    channel_delay_us: float = 0.0
    #: Serial dispatcher-core occupancy per request.  The dispatcher is a
    #: single hardware thread (Fig. 2): its throughput ceiling is
    #: ``1 / dispatcher_service_us`` — the paper's prototype sustains
    #: ~7 Mpps (≈0.14 us/req).  0 models an infinitely fast dispatcher.
    dispatcher_service_us: float = 0.0
    #: Bound on the dispatcher's inbound queue; beyond it the NIC drops
    #: (how an overloaded Shinjuku dispatcher "starts dropping packets").
    dispatcher_queue_capacity: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ConfigurationError(f"n_workers must be >= 1, got {self.n_workers}")
        for field in (
            "net_worker_delay_us",
            "classifier_delay_us",
            "channel_delay_us",
            "dispatcher_service_us",
        ):
            if getattr(self, field) < 0:
                raise ConfigurationError(f"{field} must be >= 0")
        if self.dispatcher_queue_capacity is not None and self.dispatcher_queue_capacity < 1:
            raise ConfigurationError("dispatcher_queue_capacity must be >= 1")

    @property
    def ingress_delay_us(self) -> float:
        """Total fixed delay between packet arrival and enqueue."""
        return self.net_worker_delay_us + self.classifier_delay_us + self.channel_delay_us

    @classmethod
    def ideal(cls, n_workers: int = SIMULATION_WORKERS) -> "ServerConfig":
        """The §2 simulation setting: no overheads anywhere."""
        return cls(n_workers=n_workers)

    @classmethod
    def prototype(cls, n_workers: int = TESTBED_WORKERS) -> "ServerConfig":
        """The measured Perséphone prototype costs (§4.2, §4.3.2)."""
        return cls(
            n_workers=n_workers,
            net_worker_delay_us=nanoseconds(50),
            classifier_delay_us=nanoseconds(100),
            channel_delay_us=CHANNEL_OP_US,
            # ~7 Mpps dispatcher ceiling measured in §4.2.
            dispatcher_service_us=1.0 / 7.0,
        )
