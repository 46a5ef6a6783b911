"""Rack experiment: balancer × system × utilization grid (ROADMAP 3).

Does DARC's idling-is-ideal reservation still win when a front-end
balancer spreads load across a rack of servers?  For every balancer in
the catalogue this driver sweeps all three systems over utilization on
a ≥16-server rack (each replica a full 8-core SystemModel) and reports
the rack-level p99.9 slowdown plus DARC-vs-baseline ratios *per
balancer* — the two-level composition RackSched argues for, with the
balancer's information staleness fixed at :data:`STALENESS_US`.

``trace_dir`` records a full rack trace per grid point — every
replica's spans (worker ids remapped to rack-global) plus the
balancer's routing-decision log — via
:class:`~repro.rack.tracing.RackTracer`; ``metrics_dir`` works as on
single-server drivers (the probe has a rack pull source), and
``forensics_dir`` folds the traces into a blame/herding store.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..rack.rack import RackResult, run_rack
from ..systems.base import SystemModel
from ..systems.persephone import PersephoneSystem
from ..systems.shenango import ShenangoSystem
from ..systems.shinjuku import ShinjukuSystem
from ..workload.presets import high_bimodal
from .common import (
    collect_forensics,
    metrics_target,
    overall_slowdown_metric,
    trace_target,
)
from .results import FigureResult

#: Rack geometry: 16 replicas x 8 cores = 128 cores.
N_SERVERS = 16
N_WORKERS = 8

DEFAULT_UTILIZATIONS = (0.5, 0.7, 0.85)
#: Catalogue slice swept by default (>= 3 balancers, incl. affinity).
DEFAULT_BALANCERS = ("pow2", "jsq-stale", "sed", "type-affinity", "session")
#: Balancer view staleness (us) — roughly one RTT of piggybacked state.
STALENESS_US = 50.0
WORKLOAD = "high_bimodal"


def default_systems() -> List[SystemModel]:
    """The three intra-server disciplines, sized for a rack replica."""
    return [
        ShenangoSystem(n_workers=N_WORKERS, work_stealing=True, name="Shenango"),
        ShinjukuSystem(n_workers=N_WORKERS, quantum_us=5.0, mode="multi", name="Shinjuku"),
        PersephoneSystem(n_workers=N_WORKERS, oracle=False, name="Persephone"),
    ]


def _run_grid_point(
    system: SystemModel,
    balancer: str,
    rho: float,
    n_requests: int,
    seed: int,
    n_servers: int,
    staleness_us: float,
    sanitize: "bool | str",
    metrics_dir: Optional[str],
    trace_dir: Optional[str] = None,
    seed_suffix: Optional[int] = None,
) -> RackResult:
    name_parts: List[object] = [
        "rack", balancer, system.name, f"rho{round(rho * 100):03d}"
    ]
    if seed_suffix is not None:
        name_parts.append(f"seed{seed_suffix}")
    return run_rack(
        system,
        high_bimodal(),
        balancer=balancer,
        n_servers=n_servers,
        utilization=rho,
        n_requests=n_requests,
        seed=seed,
        staleness_us=staleness_us,
        sanitize=sanitize,
        metrics_path=metrics_target(metrics_dir, *name_parts),
        trace_path=trace_target(trace_dir, *name_parts),
        trace_meta={"experiment": "rack"},
    )


def _findings(result: FigureResult, utilizations: Sequence[float]) -> None:
    """DARC-vs-baseline tail-slowdown ratios at the highest load point."""
    rho = utilizations[-1]
    series = result.series(overall_slowdown_metric)
    darc = series.get("Persephone")
    if not darc or darc[-1] != darc[-1] or darc[-1] <= 0:
        return
    for baseline in ("Shenango", "Shinjuku"):
        values = series.get(baseline)
        if values and values[-1] == values[-1]:
            result.findings[f"DARC vs {baseline} p99.9 slowdown @{rho:g}"] = (
                values[-1] / darc[-1]
            )


def run(
    n_requests: int = 20_000,
    seed: int = 1,
    sanitize: "bool | str" = False,
    trace_dir: Optional[str] = None,
    metrics_dir: Optional[str] = None,
    seeds: Optional[Sequence[int]] = None,
    n_servers: int = N_SERVERS,
    balancers: Sequence[str] = DEFAULT_BALANCERS,
    utilizations: Sequence[float] = DEFAULT_UTILIZATIONS,
    staleness_us: float = STALENESS_US,
    forensics_dir: Optional[str] = None,
) -> Dict[str, FigureResult]:
    """The full grid: one :class:`FigureResult` per balancer.

    With ``seeds`` every grid point replicates under derived per-cell
    seeds matching the ``repro-sweep`` rack cells (CI tables); without,
    one raw-seed run per point.  ``n_requests`` is the *total* arrival
    count per point (the rack splits it among replicas).
    """
    results: Dict[str, FigureResult] = {}
    for balancer in balancers:
        result = FigureResult(f"Rack [{balancer}]", utilizations)
        for system in default_systems():
            if seeds is None:
                sweep = [
                    _run_grid_point(
                        system, balancer, rho, n_requests, seed, n_servers,
                        staleness_us, sanitize, metrics_dir,
                        trace_dir=trace_dir,
                    )
                    for rho in utilizations
                ]
                result.add_sweep(system.name, sweep)
            else:
                from ..sweep.cells import derive_seed

                replicates: Dict[int, List[RackResult]] = {}
                for replicate in seeds:
                    replicates[replicate] = [
                        _run_grid_point(
                            system, balancer, rho, n_requests,
                            derive_seed(
                                "rack",
                                {
                                    "system": system.name,
                                    "workload": WORKLOAD,
                                    "balancer": balancer,
                                    "rho": rho,
                                    "n_requests": n_requests,
                                    "n_servers": n_servers,
                                },
                                replicate,
                            ),
                            n_servers, staleness_us, sanitize, metrics_dir,
                            trace_dir=trace_dir, seed_suffix=replicate,
                        )
                        for rho in utilizations
                    ]
                result.add_replicated(system.name, replicates)
        _findings(result, utilizations)
        results[balancer] = result
    collect_forensics(forensics_dir, trace_dir, "rack")
    return results


def render(results: Dict[str, FigureResult]) -> str:
    parts = []
    for result in results.values():
        parts.append(
            result.render_metric(
                overall_slowdown_metric, "rack p99.9 slowdown (x)"
            )
        )
        findings = result.render_findings()
        if findings:
            parts.append(findings)
    ratio_lines = ["Rack: DARC advantage by balancer (tail-slowdown ratio)"]
    for balancer, result in results.items():
        ratios = [
            f"{key.split('DARC vs ')[1].split(' ')[0]} {value:.2f}x"
            for key, value in result.findings.items()
            if key.startswith("DARC vs")
        ]
        if ratios:
            ratio_lines.append(f"  {balancer:14s} vs " + ", vs ".join(ratios))
    if len(ratio_lines) > 1:
        parts.append("\n".join(ratio_lines))
    return "\n\n".join(parts)
