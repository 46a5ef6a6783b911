"""Figure 4 (§5.3): how much non-work-conservation is useful?

DARC-static with 0–14 reserved cores at 95% load, on High Bimodal (a)
and Extreme Bimodal (b), with the c-FCFS slowdown as the reference line.

Paper findings: the best manual setting is 1 reserved core for High
Bimodal (4.4x improvement over c-FCFS) and 2 for Extreme Bimodal (1.5x)
— matching what DARC's reservation algorithm picks automatically.
0 reserved cores equals plain Fixed Priority; too many starve longs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..sweep.planner import ExperimentSpec
from ..sweep.stats import mean_ci
from ..systems.base import SystemModel
from ..systems.persephone import PersephoneCfcfsSystem, PersephoneStaticSystem
from ..workload.presets import extreme_bimodal, high_bimodal
from ..workload.spec import WorkloadSpec
from .common import RunResult, collect_forensics, overall_slowdown_metric
from .results import outcomes_of, run_serial
from .tables import render_table

N_WORKERS = 14
UTILIZATION = 0.95
DEFAULT_RESERVED = tuple(range(0, 15))


class Figure4Result:
    """Per-workload slowdown as a function of reserved cores.

    Multi-seed runs additionally collect per-replicate slowdown samples;
    :meth:`slowdowns` then reports replicate means (``sweeps`` and
    ``references`` always hold the first replicate's runs).
    """

    def __init__(self, utilization: float):
        self.utilization = utilization
        #: workload name -> {n_reserved: RunResult}
        self.sweeps: Dict[str, Dict[int, RunResult]] = {}
        #: workload name -> c-FCFS reference RunResult
        self.references: Dict[str, RunResult] = {}
        #: workload name -> {n_reserved: [slowdown per replicate]}
        self.slowdown_samples: Dict[str, Dict[int, List[float]]] = {}
        #: workload name -> [c-FCFS slowdown per replicate]
        self.reference_samples: Dict[str, List[float]] = {}
        self.n_replicates = 1
        self.findings: Dict[str, float] = {}

    def slowdowns(self, workload: str) -> Dict[int, float]:
        samples = self.slowdown_samples.get(workload)
        if samples:
            return {k: mean_ci(v).mean for k, v in samples.items()}
        return {
            k: overall_slowdown_metric(r) for k, r in self.sweeps[workload].items()
        }

    def reference_slowdown(self, workload: str) -> float:
        samples = self.reference_samples.get(workload)
        if samples:
            return mean_ci(samples).mean
        return overall_slowdown_metric(self.references[workload])

    def best_reserved(self, workload: str) -> int:
        values = self.slowdowns(workload)
        return min(values, key=lambda k: values[k])

    def render(self) -> str:
        parts = []
        for workload, runs in self.sweeps.items():
            ref = self.reference_slowdown(workload)
            values = self.slowdowns(workload)
            rows = [[k, values[k], ref] for k in sorted(runs)]
            note = (
                f" (means over {self.n_replicates} seeds)"
                if self.n_replicates > 1
                else ""
            )
            parts.append(
                render_table(
                    ["reserved", "p99.9 slowdown", "c-FCFS ref"],
                    rows,
                    precision=1,
                    title=(
                        f"Figure 4 [{workload}] at {self.utilization:.0%} "
                        f"load{note}"
                    ),
                )
            )
        if self.findings:
            lines = ["Figure 4: findings"]
            for key, value in self.findings.items():
                lines.append(f"  {key} = {value:.2f}")
            parts.append("\n".join(lines))
        return "\n\n".join(parts)


def systems_for(
    reserved_counts: Sequence[int] = DEFAULT_RESERVED,
) -> List[SystemModel]:
    """The c-FCFS reference and DARC-static at each reserved count (at
    least one worker is left for long requests)."""
    return [PersephoneCfcfsSystem(n_workers=N_WORKERS, name="c-FCFS")] + [
        PersephoneStaticSystem(
            n_reserved=k, n_workers=N_WORKERS, name=f"reserved{k}"
        )
        for k in reserved_counts
        if k < N_WORKERS
    ]


def findings(outcomes) -> Dict[str, Dict[str, float]]:
    """Per workload, the best reserved count and its gain over c-FCFS,
    on replicate-mean slowdowns."""
    facts: Dict[str, float] = {}
    for workload in outcomes.values("workload"):
        slowdowns = {
            int(name[len("reserved"):]): outcomes.mean(
                "overall_tail_slowdown", workload=workload, system=name
            )
            for name in outcomes.values("system", workload=workload)
            if name.startswith("reserved")
        }
        best = min(slowdowns, key=lambda k: slowdowns[k])
        reference = outcomes.mean(
            "overall_tail_slowdown", workload=workload, system="c-FCFS"
        )
        facts[f"best reserved [{workload}]"] = float(best)
        if slowdowns[best] > 0:
            facts[f"improvement over c-FCFS [{workload}]"] = (
                reference / slowdowns[best]
            )
    return {"": facts}


WORKLOADS = {"high_bimodal": high_bimodal, "extreme_bimodal": extreme_bimodal}

SPEC = ExperimentSpec(
    name="figure4",
    kind="load_sweep",
    workloads=tuple(WORKLOADS),
    spec_for=lambda workload: WORKLOADS[workload](),
    systems_for=lambda workload: systems_for(),
    utilizations=(UTILIZATION,),
    n_requests=60_000,
    findings=findings,
)


def run(
    reserved_counts: Sequence[int] = DEFAULT_RESERVED,
    utilization: float = UTILIZATION,
    n_requests: int = 60_000,
    seed: int = 1,
    workloads: Optional[Dict[str, WorkloadSpec]] = None,
    sanitize: bool = False,
    trace_dir: Optional[str] = None,
    metrics_dir: Optional[str] = None,
    seeds: Optional[Sequence[int]] = None,
    forensics_dir: Optional[str] = None,
) -> Figure4Result:
    spec = SPEC._replace(systems_for=lambda workload: systems_for(reserved_counts))
    if workloads is not None:
        spec = spec._replace(
            workloads=tuple(workloads), spec_for=workloads.__getitem__
        )
    runs = run_serial(
        spec, seed, seeds,
        lambda params, tag: ["figure4", params["workload"], params["system"], tag],
        n_requests, (utilization,), sanitize=sanitize, trace_dir=trace_dir,
        metrics_dir=metrics_dir,
    )
    result = Figure4Result(utilization)
    result.n_replicates = len(seeds) if seeds else 1
    first = seeds[0] if seeds else seed
    for cell, live, metrics in runs:
        params = cell.params_dict
        workload, name = params["workload"], params["system"]
        slowdown = metrics["overall_tail_slowdown"]
        if name == "c-FCFS":
            if cell.replicate == first:
                result.references[workload] = live
            if result.n_replicates > 1:
                result.reference_samples.setdefault(workload, []).append(slowdown)
            continue
        k = int(name[len("reserved"):])
        if cell.replicate == first:
            result.sweeps.setdefault(workload, {})[k] = live
        if result.n_replicates > 1:
            result.slowdown_samples.setdefault(workload, {}).setdefault(
                k, []
            ).append(slowdown)
    result.findings = findings(outcomes_of(spec, runs))[""]
    collect_forensics(forensics_dir, trace_dir, "figure4")
    return result


def render(result: Figure4Result) -> str:
    return result.render()
