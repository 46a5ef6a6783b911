"""Figure 10 (§6): how preemption overheads erode time sharing.

The Fig. 1 workload and 16-worker ideal system, with single-queue
preemptive systems of varying cost: "TS 0 µs" (instant, free preemption),
"TS 1 µs", "TS 2 µs", and "TS 4 µs" (2 µs propagation + 2 µs preemption),
compared against DARC.

Paper findings: the ideal TS 0 µs performs similarly or better than
DARC; at 1 µs of overhead, TS already sustains ~30% less load than the
ideal for a 10x short-request slowdown target — idling beats preemption
once preemption stops being free.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..sweep.planner import ExperimentSpec
from ..systems.base import SystemModel
from ..systems.persephone import PersephoneSystem
from ..systems.shinjuku import ShinjukuSystem
from ..workload.presets import figure1_workload
from .common import collect_forensics, max_typed_slowdown_metric
from .results import FigureResult, capacity_findings, run_load_figure

N_WORKERS = 16
SLO_SLOWDOWN = 10.0
DEFAULT_UTILIZATIONS = (0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 0.95)
#: (label, propagation delay us, preemption overhead us) per Fig. 10.
TS_VARIANTS: Tuple[Tuple[str, float, float], ...] = (
    ("TS 0us", 0.0, 0.0),
    ("TS 1us", 0.5, 0.5),
    ("TS 2us", 1.0, 1.0),
    ("TS 4us", 2.0, 2.0),
)


def default_systems() -> List[SystemModel]:
    systems: List[SystemModel] = [
        # §6: "a preemption event can be triggered as soon as a short
        # request is blocked in the queue" — demand-triggered preemption.
        # Typed queues (BVT) are used so the blocked short actually runs
        # once a worker is freed; with one FIFO queue it would still wait
        # behind requeued longs and even the zero-cost system would be far
        # from ideal, contradicting the paper's "TS 0us ~ DARC" result.
        ShinjukuSystem(
            n_workers=N_WORKERS,
            quantum_us=5.0,
            preempt_delay_us=delay,
            preempt_overhead_us=overhead,
            mode="multi",
            trigger="demand",
            name=label,
        )
        for label, delay, overhead in TS_VARIANTS
    ]
    systems.append(PersephoneSystem(n_workers=N_WORKERS, oracle=True, name="DARC"))
    return systems


def findings(outcomes) -> Dict[str, Dict[str, float]]:
    """Capacities at 10x and the load 1 µs of preemption cost loses."""
    caps = outcomes.capacities("figure1")
    facts = capacity_findings(caps, f"{SLO_SLOWDOWN:g}x")
    ideal = caps.get("TS 0us")
    one_us = caps.get("TS 1us")
    if ideal and one_us:
        facts["load lost by TS 1us vs ideal"] = 1.0 - one_us / ideal
    return {"": facts}


SPEC = ExperimentSpec(
    name="figure10",
    kind="load_sweep",
    workloads=("figure1",),
    spec_for=lambda workload: figure1_workload(),
    systems_for=lambda workload: default_systems(),
    utilizations=DEFAULT_UTILIZATIONS,
    n_requests=60_000,
    slo={"figure1": SLO_SLOWDOWN},
    capacity_metric="max_typed_slowdown",
    findings=findings,
)


def run(
    utilizations: Sequence[float] = DEFAULT_UTILIZATIONS,
    n_requests: int = 60_000,
    seed: int = 1,
    systems: Optional[List[SystemModel]] = None,
    sanitize: bool = False,
    trace_dir: Optional[str] = None,
    metrics_dir: Optional[str] = None,
    seeds: Optional[Sequence[int]] = None,
    forensics_dir: Optional[str] = None,
) -> FigureResult:
    result = run_load_figure(
        SPEC, "Figure 10 [preemption overheads]", utilizations, n_requests,
        seed=seed, seeds=seeds, systems=systems, sanitize=sanitize,
        trace_dir=trace_dir, metrics_dir=metrics_dir,
    )
    collect_forensics(forensics_dir, trace_dir, "figure10")
    return result


def render(result: FigureResult) -> str:
    return (
        result.render_metric(
            max_typed_slowdown_metric, "p99.9 slowdown of the worst type (x)"
        )
        + "\n\n"
        + result.render_findings()
    )
