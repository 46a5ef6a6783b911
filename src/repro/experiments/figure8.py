"""Figure 8 (§5.4.4): the RocksDB service.

50% GETs (1.5 µs) / 50% SCANs (635 µs) over a 5000-key store — 420x
dispersion.  Shinjuku uses its multi-queue policy with a 15 µs quantum
(its best RocksDB tuning; ~75% sustainable load).

Paper findings: for a 20x slowdown target, DARC sustains 2.3x / 1.3x
higher throughput than Shenango / Shinjuku; DARC reserves 1 core for
GETs, idling 0.96 cores on average.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..apps.rocksdb import GET_TYPE, RocksDbLike
from ..sweep.planner import ExperimentSpec
from ..systems.base import SystemModel
from ..systems.persephone import PersephoneSystem
from ..systems.shenango import ShenangoSystem
from ..systems.shinjuku import ShinjukuSystem
from .common import collect_forensics, overall_slowdown_metric
from .results import FigureResult, capacity_findings, run_load_figure

N_WORKERS = 14
SLO_SLOWDOWN = 20.0
DEFAULT_UTILIZATIONS = (0.2, 0.35, 0.5, 0.65, 0.75, 0.85, 0.95)


def default_systems() -> List[SystemModel]:
    return [
        ShenangoSystem(n_workers=N_WORKERS, work_stealing=True, name="Shenango"),
        ShinjukuSystem(n_workers=N_WORKERS, quantum_us=15.0, mode="multi", name="Shinjuku"),
        PersephoneSystem(n_workers=N_WORKERS, oracle=False, name="Persephone"),
    ]


def cell_metrics(result) -> Dict[str, float]:
    """DARC's GET reservation and expected idle cores, once it has one."""
    scheduler = result.scheduler
    if getattr(scheduler, "reservation", None) is None:
        return {}
    return {
        "reserved_get": float(scheduler.reserved_count(GET_TYPE)),
        "expected_waste": scheduler.expected_waste(),
    }


def findings(outcomes) -> Dict[str, Dict[str, float]]:
    """Capacities at 20x, DARC's capacity ratios, and its reservation at
    the top load (first replicate)."""
    caps = outcomes.capacities("rocksdb")
    facts = capacity_findings(caps, f"{SLO_SLOWDOWN:g}x")
    for baseline in ("Shenango", "Shinjuku"):
        if caps.get("Persephone") and caps.get(baseline):
            facts[f"DARC vs {baseline} capacity"] = (
                caps["Persephone"] / caps[baseline]
            )
    rhos = outcomes.rhos(system="Persephone")
    if rhos:
        where = dict(system="Persephone", rho=rhos[-1])
        reserved = outcomes.first("reserved_get", **where)
        if reserved == reserved:
            facts["DARC reserved cores for GET"] = reserved
            facts["DARC expected CPU waste (cores)"] = outcomes.first(
                "expected_waste", **where
            )
    return {"": facts}


SPEC = ExperimentSpec(
    name="figure8",
    kind="load_sweep",
    workloads=("rocksdb",),
    spec_for=lambda workload: RocksDbLike().workload_spec(),
    systems_for=lambda workload: default_systems(),
    utilizations=DEFAULT_UTILIZATIONS,
    n_requests=60_000,
    slo={"rocksdb": SLO_SLOWDOWN},
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
        SPEC, "Figure 8 [RocksDB]", utilizations, n_requests, seed=seed,
        seeds=seeds, systems=systems, sanitize=sanitize, trace_dir=trace_dir,
        metrics_dir=metrics_dir,
    )
    collect_forensics(forensics_dir, trace_dir, "figure8")
    return result


def render(result: FigureResult) -> str:
    return (
        result.render_metric(overall_slowdown_metric, "overall p99.9 slowdown (x)")
        + "\n\n"
        + result.render_findings()
    )
