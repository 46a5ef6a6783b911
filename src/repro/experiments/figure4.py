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

from ..sweep.stats import mean_ci
from ..systems.persephone import PersephoneCfcfsSystem, PersephoneStaticSystem
from ..workload.presets import extreme_bimodal, high_bimodal
from ..workload.spec import WorkloadSpec
from .common import (
    RunResult,
    collect_forensics,
    metrics_target,
    overall_slowdown_metric,
    run_once,
    trace_target,
)
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


def _cell_seed(
    seeds: Optional[Sequence[int]],
    replicate: int,
    raw_seed: int,
    workload: str,
    choice: str,
    utilization: float,
    n_requests: int,
) -> int:
    """Raw seed on the legacy path, derived per-cell seed with ``seeds``
    (matching the pooled ``repro-sweep`` figure4 cells)."""
    if seeds is None:
        return raw_seed
    from ..sweep.cells import derive_seed

    return derive_seed(
        "figure4",
        {
            "system": choice,
            "workload": workload,
            "rho": utilization,
            "n_requests": n_requests,
        },
        replicate,
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
    if workloads is None:
        workloads = {
            "high_bimodal": high_bimodal(),
            "extreme_bimodal": extreme_bimodal(),
        }
    replicates: Sequence[int] = seeds if seeds else (seed,)
    result = Figure4Result(utilization)
    result.n_replicates = len(replicates)
    cfcfs = PersephoneCfcfsSystem(n_workers=N_WORKERS, name="c-FCFS")
    for name, spec in workloads.items():
        ref_samples: List[float] = []
        samples: Dict[int, List[float]] = {}
        for index, replicate in enumerate(replicates):
            first = index == 0
            suffix = () if len(replicates) == 1 else (f"seed{replicate}",)
            ref = run_once(
                cfcfs, spec, utilization, n_requests=n_requests,
                seed=_cell_seed(
                    seeds, replicate, seed, name, "c-FCFS",
                    utilization, n_requests,
                ),
                sanitize=sanitize,
                trace_path=trace_target(
                    trace_dir, "figure4", name, "c-FCFS", *suffix
                ),
                metrics_path=metrics_target(
                    metrics_dir, "figure4", name, "c-FCFS", *suffix
                ),
            )
            ref_samples.append(overall_slowdown_metric(ref))
            if first:
                result.references[name] = ref
            runs: Dict[int, RunResult] = {}
            for k in reserved_counts:
                if k >= N_WORKERS:
                    continue  # must leave at least one worker for long requests
                system = PersephoneStaticSystem(n_reserved=k, n_workers=N_WORKERS)
                run_result = run_once(
                    system, spec, utilization, n_requests=n_requests,
                    seed=_cell_seed(
                        seeds, replicate, seed, name, f"reserved{k}",
                        utilization, n_requests,
                    ),
                    sanitize=sanitize,
                    trace_path=trace_target(
                        trace_dir, "figure4", name, f"reserved{k}", *suffix
                    ),
                    metrics_path=metrics_target(
                        metrics_dir, "figure4", name, f"reserved{k}", *suffix
                    ),
                )
                runs[k] = run_result
                samples.setdefault(k, []).append(
                    overall_slowdown_metric(run_result)
                )
            if first:
                result.sweeps[name] = runs
        if len(replicates) > 1:
            result.slowdown_samples[name] = samples
            result.reference_samples[name] = ref_samples
        best = result.best_reserved(name)
        ref_value = result.reference_slowdown(name)
        best_val = result.slowdowns(name)[best]
        result.findings[f"best reserved [{name}]"] = float(best)
        if best_val > 0:
            result.findings[f"improvement over c-FCFS [{name}]"] = (
                ref_value / best_val
            )
    collect_forensics(forensics_dir, trace_dir, "figure4")
    return result
