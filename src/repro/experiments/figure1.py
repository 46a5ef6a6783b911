"""Figure 1 (§2): the motivating policy simulation.

16 workers, the 99.5% × 0.5 µs + 0.5% × 500 µs mix, Poisson arrivals,
ideal system (no network/dispatch overheads).  Policies: d-FCFS, c-FCFS,
TS (5 µs quantum, 1 µs overhead — "an optimistically cheap time sharing
policy"), and DARC (oracle reservation).

Paper numbers at a 10x per-type slowdown SLO (peak = 5.34 Mrps):
c-FCFS ≈ 2.1 Mrps (~40% of peak), TS ≈ 3.7 Mrps (~70%), DARC ≈ 5.1 Mrps
(~95%); DARC reserves 1 worker (16-worker machine) for short requests.
At 5.1 Mrps, short p99.9 ≈ 9.87 µs vs 7738 µs (c-FCFS) and 161 µs (TS).
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
from ..systems.shinjuku import ShinjukuSystem
from ..workload.presets import figure1_workload
from .common import collect_forensics, max_typed_slowdown_metric
from .results import FigureResult, run_load_figure

N_WORKERS = 16
SLO_SLOWDOWN = 10.0
DEFAULT_UTILIZATIONS = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95)


def default_systems() -> List[SystemModel]:
    """The four Table 1 policies on an ideal 16-worker machine."""
    return [
        PersephoneDfcfsSystem(n_workers=N_WORKERS, name="d-FCFS"),
        PersephoneCfcfsSystem(n_workers=N_WORKERS, name="c-FCFS"),
        # §2: "TS ... with multiple queues for different request types and
        # interrupts at the microsecond scale ... 5us preemption frequency
        # and 1us overhead per preemption".
        ShinjukuSystem(
            n_workers=N_WORKERS,
            quantum_us=5.0,
            preempt_overhead_us=1.0,
            preempt_delay_us=0.0,
            mode="multi",
            trigger="demand",
            name="TS (5us, 1us)",
        ),
        PersephoneSystem(n_workers=N_WORKERS, oracle=True, name="DARC"),
    ]


def findings(outcomes) -> Dict[str, Dict[str, float]]:
    """Capacities at the 10x per-type SLO and DARC's capacity ratios."""
    caps = outcomes.capacities("figure1")
    peak_mrps = figure1_workload().peak_load(N_WORKERS)
    facts: Dict[str, float] = {}
    for name, cap in caps.items():
        facts[f"capacity@10x [{name}] (frac of peak)"] = (
            cap if cap is not None else float("nan")
        )
        facts[f"capacity@10x [{name}] (Mrps)"] = (
            cap * peak_mrps if cap is not None else float("nan")
        )
    if caps.get("DARC") and caps.get("c-FCFS"):
        facts["DARC vs c-FCFS capacity ratio"] = caps["DARC"] / caps["c-FCFS"]
    ts_name = "TS (5us, 1us)"
    if caps.get("DARC") and caps.get(ts_name):
        facts["DARC vs TS capacity ratio"] = caps["DARC"] / caps[ts_name]
    return {"": facts}


SPEC = ExperimentSpec(
    name="figure1",
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
    """Run the Fig. 1 sweep and derive its headline capacities.

    ``seeds`` replicates every point (derived per-cell seeds, CI
    tables); without it the single raw ``seed`` runs, as always.
    """
    result = run_load_figure(
        SPEC, "Figure 1", utilizations, n_requests, seed=seed, seeds=seeds,
        systems=systems, sanitize=sanitize, trace_dir=trace_dir,
        metrics_dir=metrics_dir,
    )
    collect_forensics(forensics_dir, trace_dir, "figure1")
    return result


def render(result: FigureResult) -> str:
    body = result.render_metric(
        max_typed_slowdown_metric, "p99.9 slowdown of the worst type (x)"
    )
    return body + "\n\n" + result.render_findings()
