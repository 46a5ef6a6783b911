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

from typing import List, Optional, Sequence

from ..systems.base import SystemModel
from ..systems.persephone import (
    PersephoneCfcfsSystem,
    PersephoneDfcfsSystem,
    PersephoneSystem,
)
from ..workload.presets import high_bimodal
from .common import collect_forensics, overall_slowdown_metric, typed_latency_metric
from .results import FigureResult, collect_sweep

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
    spec = high_bimodal()
    result = FigureResult("Figure 3", utilizations)
    for system in systems if systems is not None else default_systems():
        collect_sweep(
            result, system, spec, utilizations, experiment="figure3",
            workload="high_bimodal", n_requests=n_requests, seed=seed, seeds=seeds,
            sanitize=sanitize, trace_dir=trace_dir, metrics_dir=metrics_dir,
        )

    # Headline ratios at the highest common load point.
    darc = result.sweeps.get("DARC")
    cfcfs = result.sweeps.get("c-FCFS")
    if darc and cfcfs:
        slow_ratio = max(
            overall_slowdown_metric(c) / overall_slowdown_metric(d)
            for c, d in zip(cfcfs, darc)
            if overall_slowdown_metric(d) > 0
        )
        result.findings["max slowdown improvement (DARC over c-FCFS)"] = slow_ratio
        long_metric = typed_latency_metric(LONG_TYPE)
        long_costs = [
            long_metric(d) / long_metric(c)
            for c, d in zip(cfcfs, darc)
            if long_metric(c) > 0
        ]
        result.findings["max long-request latency cost (DARC/c-FCFS)"] = max(long_costs)
        short_metric = typed_latency_metric(SHORT_TYPE)
        caps = result.capacities(SHORT_LATENCY_SLO_US, short_metric)
        if caps.get("DARC") and caps.get("c-FCFS"):
            result.findings[
                f"capacity ratio @ short p99.9 <= {SHORT_LATENCY_SLO_US:g}us"
            ] = caps["DARC"] / caps["c-FCFS"]
        last_darc = darc[-1]
        waste = getattr(last_darc.scheduler, "expected_waste", None)
        if waste is not None:
            result.findings["DARC expected CPU waste (cores)"] = last_darc.scheduler.expected_waste()
            result.findings["DARC reserved cores for SHORT"] = float(
                last_darc.scheduler.reserved_count(SHORT_TYPE)
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
