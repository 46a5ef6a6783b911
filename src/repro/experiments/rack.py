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

from ..sweep.planner import ExperimentSpec
from ..systems.base import SystemModel
from ..systems.persephone import PersephoneSystem
from ..systems.shenango import ShenangoSystem
from ..systems.shinjuku import ShinjukuSystem
from ..workload.presets import high_bimodal
from .common import collect_forensics, overall_slowdown_metric
from .results import FigureResult, figure_of, outcomes_of, run_serial

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


def findings(outcomes) -> Dict[str, Dict[str, float]]:
    """Per balancer: each baseline's tail slowdown over DARC's at the
    highest load point (replicate means)."""
    sections: Dict[str, Dict[str, float]] = {}
    for balancer in outcomes.values("balancer"):
        facts: Dict[str, float] = {}
        rho = outcomes.rhos(balancer=balancer)[-1]

        def slowdown(system):
            return outcomes.mean(
                "overall_tail_slowdown", balancer=balancer, system=system, rho=rho
            )

        darc = slowdown("Persephone")
        if darc == darc and darc > 0:
            for baseline in ("Shenango", "Shinjuku"):
                value = slowdown(baseline)
                if value == value:
                    facts[f"DARC vs {baseline} p99.9 slowdown @{rho:g}"] = (
                        value / darc
                    )
        sections[balancer] = facts
    return sections


SPEC = ExperimentSpec(
    name="rack",
    kind="rack",
    workloads=(WORKLOAD,),
    spec_for=lambda workload: high_bimodal(),
    systems_for=lambda workload: default_systems(),
    utilizations=DEFAULT_UTILIZATIONS,
    n_requests=20_000,
    table_metrics=(
        "overall_tail_slowdown",
        "overall_tail_latency",
        "throughput",
        "load_imbalance",
    ),
    findings=findings,
    balancers=DEFAULT_BALANCERS,
    cell_params={"n_servers": N_SERVERS},
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
    spec = SPEC._replace(
        balancers=tuple(balancers), cell_params={"n_servers": n_servers}
    )

    def name_parts(params, tag):
        rho = f"rho{round(params['rho'] * 100):03d}"
        # Any --seeds run tags its exports, even a single seed.
        tag = tag or (f"seed{seeds[0]}" if seeds else "")
        return ["rack", params["balancer"], params["system"], rho, tag]

    runs = run_serial(
        spec, seed, seeds, name_parts, n_requests, utilizations,
        sanitize=sanitize, trace_dir=trace_dir, metrics_dir=metrics_dir,
        staleness_us=staleness_us, trace_meta={"experiment": "rack"},
    )
    facts = findings(outcomes_of(spec, runs))
    results: Dict[str, FigureResult] = {}
    for balancer in balancers:
        result = figure_of(
            f"Rack [{balancer}]",
            utilizations,
            [run for run in runs if run[0].params_dict["balancer"] == balancer],
            seeds,
        )
        result.findings = facts.get(balancer, {})
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
