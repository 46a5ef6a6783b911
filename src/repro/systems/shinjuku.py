"""The Shinjuku comparator (§5.1).

Shinjuku implements microsecond preemption via Dune.  Per the paper's
experiments we model:

* a 5 µs quantum for the bimodal workloads, 10 µs for TPC-C, 15 µs for
  RocksDB (what the authors could tune Shinjuku to sustain);
* its *multi-queue* policy (per-type queues + BVT, preempted requests to
  the head of their queue) for High Bimodal / TPC-C / RocksDB and its
  *single-queue* policy (preempted to the tail) for Extreme Bimodal —
  matching the per-workload choices in §5.4;
* ≈2 µs of per-preemption cost, split into propagation delay and context
  overhead ("our experiments saw ≈2 µs per interrupt", §1).

The sustainable-load ceilings the paper reports (75% / 55%) are emergent:
preemption overhead inflates effective service demand until queues
diverge.
"""

from __future__ import annotations

from typing import Optional

from ..policies.base import Scheduler
from ..policies.timesharing import TimeSharing, check_quantum_and_costs
from ..sim.randomness import RngRegistry
from ..workload.spec import WorkloadSpec
from .base import SystemModel

#: §1: "our experiments saw ≈2 us per interrupt"; split half/half between
#: signal propagation and the context switch itself.
DEFAULT_PREEMPT_OVERHEAD_US = 1.0
DEFAULT_PREEMPT_DELAY_US = 1.0


class ShinjukuSystem(SystemModel):
    """Shinjuku with a configurable quantum and queue policy."""

    def __init__(
        self,
        n_workers: int = 14,
        quantum_us: float = 5.0,
        preempt_overhead_us: float = DEFAULT_PREEMPT_OVERHEAD_US,
        preempt_delay_us: float = DEFAULT_PREEMPT_DELAY_US,
        mode: str = "multi",
        trigger: str = "timer",
        name: Optional[str] = None,
    ):
        super().__init__(n_workers=n_workers)
        check_quantum_and_costs(quantum_us, preempt_overhead_us, preempt_delay_us)
        self.quantum_us = quantum_us
        self.preempt_overhead_us = preempt_overhead_us
        self.preempt_delay_us = preempt_delay_us
        self.mode = mode
        #: "timer" (real Shinjuku) or "demand" (§2/Fig. 10 simulations).
        self.trigger = trigger
        self.name = name or f"Shinjuku ({mode}-queue, {quantum_us:g}us)"

    def make_scheduler(self, spec: WorkloadSpec, rngs: RngRegistry) -> Scheduler:
        return TimeSharing(
            quantum_us=self.quantum_us,
            preempt_overhead_us=self.preempt_overhead_us,
            preempt_delay_us=self.preempt_delay_us,
            mode=self.mode,
            trigger=self.trigger,
            type_specs=spec.type_specs() if self.mode == "multi" else None,
        )
