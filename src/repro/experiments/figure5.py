"""Figure 5 (§5.4.1–5.4.2): Perséphone vs Shenango vs Shinjuku on the
bimodal workloads.

(a) High Bimodal — Shinjuku multi-queue, 5 µs quantum.  Paper: DARC
    sustains 2.35x / 1.3x more load than Shenango / Shinjuku at a 20x
    slowdown target and reduces slowdown 10.2x / 1.75x at 75% load;
    Shinjuku tops out near 75% load.
(b) Extreme Bimodal — Shinjuku single-queue, 5 µs quantum.  Paper: DARC
    and Shinjuku sustain 1.4x more than Shenango at a 50x target; DARC
    reduces short-request slowdown up to 1.4x vs Shinjuku and sustains
    1.25x more load; Shinjuku tops out near 55%.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..sweep.planner import ExperimentSpec
from ..systems.base import SystemModel
from ..systems.persephone import PersephoneSystem
from ..systems.shenango import ShenangoSystem
from ..systems.shinjuku import ShinjukuSystem
from ..workload.presets import extreme_bimodal, high_bimodal
from .common import collect_forensics, overall_slowdown_metric, typed_latency_metric
from .results import FigureResult, capacity_findings, run_load_figure

N_WORKERS = 14
DEFAULT_UTILIZATIONS = (0.2, 0.35, 0.5, 0.65, 0.75, 0.85, 0.95)
#: Figure 5's slowdown targets per sub-figure.
SLO_HIGH = 20.0
SLO_EXTREME = 50.0


def systems_for(workload_name: str) -> List[SystemModel]:
    """§5.4 system choices: Shinjuku's queue policy depends on workload."""
    shinjuku_mode = "single" if workload_name == "extreme_bimodal" else "multi"
    return [
        ShenangoSystem(n_workers=N_WORKERS, work_stealing=True, name="Shenango"),
        ShinjukuSystem(n_workers=N_WORKERS, quantum_us=5.0, mode=shinjuku_mode, name="Shinjuku"),
        PersephoneSystem(n_workers=N_WORKERS, oracle=False, name="Persephone"),
    ]


def findings(outcomes) -> Dict[str, Dict[str, float]]:
    """Per workload: capacity at its slowdown target, and DARC's
    capacity ratio over Shenango and Shinjuku."""
    sections: Dict[str, Dict[str, float]] = {}
    for workload in outcomes.values("workload"):
        caps = outcomes.capacities(workload)
        facts = capacity_findings(caps, f"{SPEC.slo[workload]:g}x")
        for baseline in ("Shenango", "Shinjuku"):
            if caps.get("Persephone") and caps.get(baseline):
                facts[f"DARC vs {baseline} capacity"] = (
                    caps["Persephone"] / caps[baseline]
                )
        sections[workload] = facts
    return sections


WORKLOADS = {"high_bimodal": high_bimodal, "extreme_bimodal": extreme_bimodal}

SPEC = ExperimentSpec(
    name="figure5",
    kind="load_sweep",
    workloads=tuple(WORKLOADS),
    spec_for=lambda workload: WORKLOADS[workload](),
    systems_for=systems_for,
    utilizations=DEFAULT_UTILIZATIONS,
    n_requests=60_000,
    slo={"high_bimodal": SLO_HIGH, "extreme_bimodal": SLO_EXTREME},
    findings=findings,
)


def run_one_workload(
    workload_name: str,
    utilizations: Sequence[float] = DEFAULT_UTILIZATIONS,
    n_requests: int = 60_000,
    seed: int = 1,
    systems: Optional[List[SystemModel]] = None,
    sanitize: bool = False,
    trace_dir: Optional[str] = None,
    metrics_dir: Optional[str] = None,
    seeds: Optional[Sequence[int]] = None,
) -> FigureResult:
    return run_load_figure(
        SPEC._replace(workloads=(workload_name,)), f"Figure 5 [{workload_name}]",
        utilizations, n_requests, seed=seed, seeds=seeds, systems=systems,
        section=workload_name, sanitize=sanitize, trace_dir=trace_dir,
        metrics_dir=metrics_dir,
    )


def run(
    utilizations: Sequence[float] = DEFAULT_UTILIZATIONS,
    n_requests: int = 60_000,
    seed: int = 1,
    sanitize: bool = False,
    trace_dir: Optional[str] = None,
    metrics_dir: Optional[str] = None,
    seeds: Optional[Sequence[int]] = None,
    forensics_dir: Optional[str] = None,
) -> Dict[str, FigureResult]:
    """Both sub-figures."""
    results = {
        "high_bimodal": run_one_workload(
            "high_bimodal", utilizations, n_requests=n_requests, seed=seed,
            sanitize=sanitize, trace_dir=trace_dir, metrics_dir=metrics_dir,
            seeds=seeds,
        ),
        "extreme_bimodal": run_one_workload(
            "extreme_bimodal", utilizations, n_requests=n_requests, seed=seed,
            sanitize=sanitize, trace_dir=trace_dir, metrics_dir=metrics_dir,
            seeds=seeds,
        ),
    }
    collect_forensics(forensics_dir, trace_dir, "figure5")
    return results


def render(results: Dict[str, FigureResult]) -> str:
    parts = []
    for result in results.values():
        parts.append(
            result.render_metric(overall_slowdown_metric, "overall p99.9 slowdown (x)")
        )
        parts.append(
            result.render_metric(typed_latency_metric(1), "long p99.9 latency (us)")
        )
        parts.append(result.render_findings())
    return "\n\n".join(parts)
