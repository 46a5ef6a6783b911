"""Figure 8 (§5.4.4): the RocksDB service.

50% GETs (1.5 µs) / 50% SCANs (635 µs) over a 5000-key store — 420x
dispersion.  Shinjuku uses its multi-queue policy with a 15 µs quantum
(its best RocksDB tuning; ~75% sustainable load).

Paper findings: for a 20x slowdown target, DARC sustains 2.3x / 1.3x
higher throughput than Shenango / Shinjuku; DARC reserves 1 core for
GETs, idling 0.96 cores on average.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..apps.rocksdb import GET_TYPE, RocksDbLike
from ..systems.base import SystemModel
from ..systems.persephone import PersephoneSystem
from ..systems.shenango import ShenangoSystem
from ..systems.shinjuku import ShinjukuSystem
from .common import collect_forensics, overall_slowdown_metric
from .results import FigureResult, collect_sweep

N_WORKERS = 14
SLO_SLOWDOWN = 20.0
DEFAULT_UTILIZATIONS = (0.2, 0.35, 0.5, 0.65, 0.75, 0.85, 0.95)


def default_systems() -> List[SystemModel]:
    return [
        ShenangoSystem(n_workers=N_WORKERS, work_stealing=True, name="Shenango"),
        ShinjukuSystem(n_workers=N_WORKERS, quantum_us=15.0, mode="multi", name="Shinjuku"),
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
    store = RocksDbLike()
    spec = store.workload_spec()
    result = FigureResult("Figure 8 [RocksDB]", utilizations)
    for system in systems if systems is not None else default_systems():
        collect_sweep(
            result, system, spec, utilizations, experiment="figure8",
            workload="rocksdb", n_requests=n_requests, seed=seed, seeds=seeds,
            sanitize=sanitize, trace_dir=trace_dir, metrics_dir=metrics_dir,
        )
    caps = result.capacities(SLO_SLOWDOWN, overall_slowdown_metric)
    for name, cap in caps.items():
        result.findings[f"capacity@{SLO_SLOWDOWN:g}x [{name}]"] = (
            cap if cap is not None else float("nan")
        )
    if caps.get("Persephone") and caps.get("Shenango"):
        result.findings["DARC vs Shenango capacity"] = (
            caps["Persephone"] / caps["Shenango"]
        )
    if caps.get("Persephone") and caps.get("Shinjuku"):
        result.findings["DARC vs Shinjuku capacity"] = (
            caps["Persephone"] / caps["Shinjuku"]
        )
    persephone = result.sweeps.get("Persephone")
    if persephone:
        darc = persephone[-1].scheduler
        if getattr(darc, "reservation", None) is not None:
            result.findings["DARC reserved cores for GET"] = float(
                darc.reserved_count(GET_TYPE)
            )
            result.findings["DARC expected CPU waste (cores)"] = darc.expected_waste()
    collect_forensics(forensics_dir, trace_dir, "figure8")
    return result


def render(result: FigureResult) -> str:
    return (
        result.render_metric(overall_slowdown_metric, "overall p99.9 slowdown (x)")
        + "\n\n"
        + result.render_findings()
    )
