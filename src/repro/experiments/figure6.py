"""Figure 6 (§5.4.3): TPC-C across the three systems.

Five transaction types (Table 4), Shinjuku multi-queue with a 10 µs
quantum (its best TPC-C tuning).  Views: overall p99.9 slowdown plus
per-transaction p99.9 latency.

Paper findings at 85% load: Perséphone improves Payment / OrderStatus /
NewOrder p99.9 latency by 9.2x / 7x / 3.6x over Shenango's c-FCFS,
reduces overall slowdown up to 4.6x (up to 3.1x vs Shinjuku), and at a
10x overall-slowdown target sustains 1.2x / 1.05x more throughput than
Shenango / Shinjuku.  DARC's grouping is {Payment, OrderStatus},
{NewOrder}, {Delivery, StockLevel} with workers 1–2 / 3–8 / 9–14.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..apps.tpcc import TXN_PROFILE
from ..sweep.planner import ExperimentSpec
from ..systems.base import SystemModel
from ..systems.persephone import PersephoneSystem
from ..systems.shenango import ShenangoSystem
from ..systems.shinjuku import ShinjukuSystem
from ..workload.presets import tpcc
from .common import collect_forensics, overall_slowdown_metric, typed_latency_metric
from .results import (
    FigureResult,
    capacity_findings,
    run_load_figure,
    typed_tail_latencies,
)

N_WORKERS = 14
SLO_SLOWDOWN = 10.0
DEFAULT_UTILIZATIONS = (0.3, 0.5, 0.65, 0.75, 0.85, 0.95)


def default_systems() -> List[SystemModel]:
    return [
        ShenangoSystem(n_workers=N_WORKERS, work_stealing=True, name="Shenango"),
        ShinjukuSystem(n_workers=N_WORKERS, quantum_us=10.0, mode="multi", name="Shinjuku"),
        PersephoneSystem(n_workers=N_WORKERS, oracle=False, name="Persephone"),
    ]


def cell_metrics(result) -> Dict[str, float]:
    """Per-transaction tail latencies, plus DARC's workers per group."""
    metrics = typed_tail_latencies(result)
    reservation = getattr(result.scheduler, "reservation", None)
    if reservation is not None:
        for gi, alloc in enumerate(reservation.allocations):
            metrics[f"group{gi}_reserved_workers"] = float(len(alloc.reserved))
    return metrics


def findings(outcomes) -> Dict[str, Dict[str, float]]:
    """Capacities at 10x, then Perséphone against Shenango near 85% load
    (first replicate) and DARC's learned grouping at the top load."""
    caps = outcomes.capacities("tpcc")
    facts = capacity_findings(caps, f"{SLO_SLOWDOWN:g}x")
    systems = outcomes.values("system")
    if "Persephone" not in systems or "Shenango" not in systems:
        return {"": facts}
    rhos = outcomes.rhos()
    # Per-transaction improvement at the load point nearest 85%.
    target = min(rhos, key=lambda rho: abs(rho - 0.85))

    def first(metric, system, rho=target):
        return outcomes.first(metric, system=system, rho=rho)

    for txn, (tid, _, _) in TXN_PROFILE.items():
        ours = first(f"type{tid}_tail_latency", "Persephone")
        theirs = first(f"type{tid}_tail_latency", "Shenango")
        if ours > 0:
            facts[f"{txn} p99.9 improvement vs Shenango @~85%"] = theirs / ours
    facts["overall slowdown improvement vs Shenango @~85%"] = first(
        "overall_tail_slowdown", "Shenango"
    ) / max(first("overall_tail_slowdown", "Persephone"), 1e-9)
    for baseline in ("Shenango", "Shinjuku"):
        if caps.get("Persephone") and caps.get(baseline):
            facts[f"capacity ratio vs {baseline}"] = (
                caps["Persephone"] / caps[baseline]
            )
    gi = 0
    workers = first("group0_reserved_workers", "Persephone", rhos[-1])
    while workers == workers:  # NaN once the groups run out
        facts[f"group {gi} reserved workers"] = workers
        gi += 1
        workers = first(f"group{gi}_reserved_workers", "Persephone", rhos[-1])
    return {"": facts}


SPEC = ExperimentSpec(
    name="figure6",
    kind="load_sweep",
    workloads=("tpcc",),
    spec_for=lambda workload: tpcc(),
    systems_for=lambda workload: default_systems(),
    utilizations=DEFAULT_UTILIZATIONS,
    n_requests=60_000,
    slo={"tpcc": SLO_SLOWDOWN},
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
        SPEC, "Figure 6 [TPC-C]", utilizations, n_requests, seed=seed,
        seeds=seeds, systems=systems, sanitize=sanitize, trace_dir=trace_dir,
        metrics_dir=metrics_dir,
    )
    collect_forensics(forensics_dir, trace_dir, "figure6")
    return result


def render(result: FigureResult) -> str:
    parts = [
        result.render_metric(overall_slowdown_metric, "overall p99.9 slowdown (x)")
    ]
    for txn, (tid, _, _) in TXN_PROFILE.items():
        parts.append(
            result.render_metric(typed_latency_metric(tid), f"{txn} p99.9 latency (us)")
        )
    parts.append(result.render_findings())
    return "\n\n".join(parts)
