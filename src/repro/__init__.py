"""repro — a discrete-event reproduction of Perséphone / DARC (SOSP 2021).

Perséphone is a kernel-bypass OS scheduler whose DARC policy reserves
cores for short requests in heavy-tailed microsecond workloads, trading a
little work conservation for far better tail latency.  This package
reimplements the system and its evaluation as a simulation:

* :mod:`repro.sim` — discrete-event engine;
* :mod:`repro.workload` — typed workloads, Poisson open-loop generation;
* :mod:`repro.core` — DARC: classifiers and the §5.1 request header,
  profiling, reservation, dispatch;
* :mod:`repro.policies` — c/d-FCFS, work stealing, time sharing, and the
  rest of the Table 5 baselines;
* :mod:`repro.server` — the Fig. 2 pipeline model;
* :mod:`repro.systems` — Perséphone / Shenango / Shinjuku comparators;
* :mod:`repro.apps` — KV store, RocksDB-like store, TPC-C engine;
* :mod:`repro.metrics` — percentiles, slowdown, per-type summaries;
* :mod:`repro.theory` — the queueing closed forms the simulator is
  checked against;
* :mod:`repro.faults` — deterministic fault injection (crash/recover,
  stragglers, packet loss) and chaos episodes (docs/faults.md);
* :mod:`repro.experiments` — one driver per paper figure/table;
* :mod:`repro.sweep` — seed-replicated sweeps with Student-t intervals.

Quickstart::

    from repro import quick_run
    result = quick_run(policy="darc", workload="high_bimodal", utilization=0.7)
    print(result.summary.describe())
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ._lazy import lazy_exports

if TYPE_CHECKING:
    from .experiments.common import RunResult

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".": ("quick_run",),
        ".core.classifier": ("OracleClassifier", "RandomClassifier"),
        ".core.darc": ("DarcScheduler",),
        ".errors": ("SanitizerViolation",),
        ".experiments.common": ("RunResult", "run_once", "run_sweep"),
        ".faults.injector": ("FaultInjector",),
        ".faults.plan": ("FaultPlan",),
        ".faults.runner": ("ChaosResult", "run_chaos"),
        ".metrics.sanitizer": ("SimSanitizer",),
        ".metrics.summary": ("RunSummary",),
        ".policies.fcfs": ("CentralizedFCFS", "DecentralizedFCFS", "WorkStealingFCFS"),
        ".policies.timesharing": ("TimeSharing",),
        ".server.server": ("Server",),
        ".sim.engine": ("EventLoop",),
        ".systems.persephone": (
            "PersephoneSystem",
            "PersephoneStaticSystem",
            "PersephoneCfcfsSystem",
            "PersephoneDfcfsSystem",
        ),
        ".systems.shenango": ("ShenangoSystem",),
        ".systems.shinjuku": ("ShinjukuSystem",),
        ".workload.presets": ("by_name as workload_by_name",),
        ".workload.resilience": ("ResilientClient", "RetryPolicy"),
        ".workload.spec": ("WorkloadSpec",),
    },
    # The simulator loads with the package: run_once and the shipped
    # systems, which bring the engine, the workload, the server and every
    # scheduler class a system builds.  Tools that patch Scheduler
    # subclasses right after ``import repro`` rely on these being defined.
    eager=(
        ".experiments.common",
        ".systems.persephone",
        ".systems.shenango",
        ".systems.shinjuku",
    ),
)

def quick_run(
    policy: str = "darc",
    workload: str = "high_bimodal",
    utilization: float = 0.7,
    n_workers: int = 14,
    n_requests: int = 40_000,
    seed: int = 1,
) -> RunResult:
    """One-call entry point: run ``policy`` on a preset ``workload``.

    ``policy`` is one of ``darc``, ``darc-profiled``, ``c-fcfs``,
    ``d-fcfs``, ``shenango``, ``shinjuku``.
    """
    from .experiments.common import run_once
    from .systems.persephone import (
        PersephoneCfcfsSystem,
        PersephoneDfcfsSystem,
        PersephoneSystem,
    )
    from .systems.shenango import ShenangoSystem
    from .systems.shinjuku import ShinjukuSystem
    from .workload.presets import by_name

    systems = {
        "darc": lambda w: PersephoneSystem(n_workers=w, oracle=True),
        "darc-profiled": lambda w: PersephoneSystem(n_workers=w, oracle=False),
        "c-fcfs": lambda w: PersephoneCfcfsSystem(n_workers=w),
        "d-fcfs": lambda w: PersephoneDfcfsSystem(n_workers=w),
        "shenango": lambda w: ShenangoSystem(n_workers=w),
        "shinjuku": lambda w: ShinjukuSystem(n_workers=w),
    }
    try:
        factory = systems[policy]
    except KeyError:
        raise KeyError(f"unknown policy {policy!r}; choices: {sorted(systems)}") from None
    system = factory(n_workers)
    spec = by_name(workload)
    return run_once(system, spec, utilization, n_requests=n_requests, seed=seed)
