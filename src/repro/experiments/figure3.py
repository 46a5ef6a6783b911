"""Figure 3 (§5.2): DARC vs c-FCFS vs d-FCFS inside Perséphone.

High Bimodal on the 14-worker testbed model.  Three views: overall p99.9
slowdown, short-request p99.9 latency, long-request p99.9 latency, as a
function of offered load.

Paper findings: DARC improves slowdown over c-FCFS by up to 15.7x and
sustains 2.3x more throughput at a 20 µs short-request SLO, at the cost
of up to 4.2x higher latency for long requests; DARC reserves 1 core;
average CPU waste ≈ 0.86 core.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..sweep.planner import ExperimentSpec
from ..systems.base import SystemModel
from ..systems.persephone import (
    PersephoneCfcfsSystem,
    PersephoneDfcfsSystem,
    PersephoneSystem,
)
from ..workload.presets import high_bimodal
from .common import collect_forensics, overall_slowdown_metric, typed_latency_metric
from .results import FigureResult, run_load_figure, typed_tail_latencies

N_WORKERS = 14
SHORT_TYPE = 0
LONG_TYPE = 1
#: §5.2 evaluates throughput at a 20 us short-request tail-latency SLO.
SHORT_LATENCY_SLO_US = 20.0
DEFAULT_UTILIZATIONS = (0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 0.95)


def default_systems() -> List[SystemModel]:
    return [
        PersephoneDfcfsSystem(n_workers=N_WORKERS, name="d-FCFS"),
        PersephoneCfcfsSystem(n_workers=N_WORKERS, name="c-FCFS"),
        PersephoneSystem(n_workers=N_WORKERS, oracle=False, name="DARC"),
    ]


def cell_metrics(result) -> Dict[str, float]:
    """Per-type tail latencies, plus DARC's reservation state."""
    metrics = typed_tail_latencies(result)
    scheduler = result.scheduler
    if getattr(scheduler, "expected_waste", None) is not None:
        metrics["expected_waste"] = scheduler.expected_waste()
        metrics["reserved_short"] = float(scheduler.reserved_count(SHORT_TYPE))
    return metrics


def findings(outcomes) -> Dict[str, Dict[str, float]]:
    """DARC against c-FCFS: slowdown gain, long-request cost, capacity
    at the short-request SLO, and DARC's reservation at the top load."""
    facts: Dict[str, float] = {}
    systems = outcomes.values("system")
    if "DARC" not in systems or "c-FCFS" not in systems:
        return {"": facts}
    rhos = outcomes.rhos()

    def first(metric, system, rho):
        return outcomes.first(metric, system=system, rho=rho)

    slowdown = "overall_tail_slowdown"
    facts["max slowdown improvement (DARC over c-FCFS)"] = max(
        first(slowdown, "c-FCFS", rho) / first(slowdown, "DARC", rho)
        for rho in rhos
        if first(slowdown, "DARC", rho) > 0
    )
    long_latency = f"type{LONG_TYPE}_tail_latency"
    facts["max long-request latency cost (DARC/c-FCFS)"] = max(
        first(long_latency, "DARC", rho) / first(long_latency, "c-FCFS", rho)
        for rho in rhos
        if first(long_latency, "c-FCFS", rho) > 0
    )
    caps = outcomes.capacities("high_bimodal")
    if caps.get("DARC") and caps.get("c-FCFS"):
        facts[f"capacity ratio @ short p99.9 <= {SHORT_LATENCY_SLO_US:g}us"] = (
            caps["DARC"] / caps["c-FCFS"]
        )
    waste = first("expected_waste", "DARC", rhos[-1])
    if waste == waste:
        facts["DARC expected CPU waste (cores)"] = waste
        facts["DARC reserved cores for SHORT"] = first(
            "reserved_short", "DARC", rhos[-1]
        )
    return {"": facts}


SPEC = ExperimentSpec(
    name="figure3",
    kind="load_sweep",
    workloads=("high_bimodal",),
    spec_for=lambda workload: high_bimodal(),
    systems_for=lambda workload: default_systems(),
    utilizations=DEFAULT_UTILIZATIONS,
    n_requests=60_000,
    slo={"high_bimodal": SHORT_LATENCY_SLO_US},
    capacity_metric=f"type{SHORT_TYPE}_tail_latency",
    findings=findings,
    cell_metrics=cell_metrics,
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
        SPEC, "Figure 3", utilizations, n_requests, seed=seed, seeds=seeds,
        systems=systems, sanitize=sanitize, trace_dir=trace_dir,
        metrics_dir=metrics_dir,
    )
    collect_forensics(forensics_dir, trace_dir, "figure3")
    return result


def render(result: FigureResult) -> str:
    parts = [
        result.render_metric(overall_slowdown_metric, "overall p99.9 slowdown (x)"),
        result.render_metric(typed_latency_metric(SHORT_TYPE), "short p99.9 latency (us)"),
        result.render_metric(typed_latency_metric(LONG_TYPE), "long p99.9 latency (us)"),
        result.render_findings(),
    ]
    return "\n\n".join(parts)
