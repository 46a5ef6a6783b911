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
from ..systems.base import SystemModel
from ..systems.persephone import PersephoneSystem
from ..systems.shenango import ShenangoSystem
from ..systems.shinjuku import ShinjukuSystem
from ..workload.presets import tpcc
from .common import collect_forensics, overall_slowdown_metric, typed_latency_metric
from .results import FigureResult, collect_sweep

N_WORKERS = 14
SLO_SLOWDOWN = 10.0
DEFAULT_UTILIZATIONS = (0.3, 0.5, 0.65, 0.75, 0.85, 0.95)


def default_systems() -> List[SystemModel]:
    return [
        ShenangoSystem(n_workers=N_WORKERS, work_stealing=True, name="Shenango"),
        ShinjukuSystem(n_workers=N_WORKERS, quantum_us=10.0, mode="multi", name="Shinjuku"),
        PersephoneSystem(n_workers=N_WORKERS, oracle=False, name="Persephone"),
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
    spec = tpcc()
    result = FigureResult("Figure 6 [TPC-C]", utilizations)
    for system in systems if systems is not None else default_systems():
        collect_sweep(
            result, system, spec, utilizations, experiment="figure6",
            workload="tpcc", n_requests=n_requests, seed=seed, seeds=seeds,
            sanitize=sanitize, trace_dir=trace_dir, metrics_dir=metrics_dir,
        )

    caps = result.capacities(SLO_SLOWDOWN, overall_slowdown_metric)
    for name, cap in caps.items():
        result.findings[f"capacity@{SLO_SLOWDOWN:g}x [{name}]"] = (
            cap if cap is not None else float("nan")
        )
    persephone = result.sweeps.get("Persephone")
    shenango = result.sweeps.get("Shenango")
    if persephone and shenango:
        # Per-transaction improvement at the load point nearest 85%.
        target = min(
            range(len(result.utilizations)),
            key=lambda i: abs(result.utilizations[i] - 0.85),
        )
        for txn, (tid, _, _) in TXN_PROFILE.items():
            metric = typed_latency_metric(tid)
            ours = metric(persephone[target])
            theirs = metric(shenango[target])
            if ours > 0:
                result.findings[f"{txn} p99.9 improvement vs Shenango @~85%"] = (
                    theirs / ours
                )
        slow_ratio = overall_slowdown_metric(shenango[target]) / max(
            overall_slowdown_metric(persephone[target]), 1e-9
        )
        result.findings["overall slowdown improvement vs Shenango @~85%"] = slow_ratio
        if caps.get("Persephone") and caps.get("Shenango"):
            result.findings["capacity ratio vs Shenango"] = (
                caps["Persephone"] / caps["Shenango"]
            )
        if caps.get("Persephone") and caps.get("Shinjuku"):
            result.findings["capacity ratio vs Shinjuku"] = (
                caps["Persephone"] / caps["Shinjuku"]
            )
        # Record DARC's learned grouping at the highest load point.
        darc = persephone[-1].scheduler
        if getattr(darc, "reservation", None) is not None:
            for gi, alloc in enumerate(darc.reservation.allocations):
                result.findings[f"group {gi} reserved workers"] = float(
                    len(alloc.reserved)
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
