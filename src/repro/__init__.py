"""repro — a discrete-event reproduction of Perséphone / DARC (SOSP 2021).

Perséphone is a kernel-bypass OS scheduler whose DARC policy reserves
cores for short requests in heavy-tailed microsecond workloads, trading a
little work conservation for far better tail latency.  This package
reimplements the system and its evaluation as a simulation:

* :mod:`repro.sim` — discrete-event engine;
* :mod:`repro.workload` — typed workloads, Poisson open-loop generation;
* :mod:`repro.core` — DARC: classifiers, profiling, reservation, dispatch;
* :mod:`repro.policies` — c/d-FCFS, work stealing, time sharing, and the
  rest of the Table 5 baselines;
* :mod:`repro.server`, :mod:`repro.net` — the Fig. 2 pipeline model;
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

from .core.classifier import OracleClassifier, RandomClassifier
from .core.darc import DarcScheduler
from .errors import SanitizerViolation
from .experiments.common import RunResult, run_once, run_sweep
from .faults import ChaosResult, FaultInjector, FaultPlan, run_chaos
from .metrics.sanitizer import SimSanitizer
from .metrics.summary import RunSummary
from .policies.fcfs import CentralizedFCFS, DecentralizedFCFS, WorkStealingFCFS
from .policies.timesharing import TimeSharing
from .server.server import Server
from .sim.engine import EventLoop
from .systems.persephone import (
    PersephoneCfcfsSystem,
    PersephoneDfcfsSystem,
    PersephoneStaticSystem,
    PersephoneSystem,
)
from .systems.shenango import ShenangoSystem
from .systems.shinjuku import ShinjukuSystem
from .workload.presets import by_name as workload_by_name
from .workload.resilience import ResilientClient, RetryPolicy
from .workload.spec import WorkloadSpec

__version__ = "1.0.0"

__all__ = [
    "DarcScheduler",
    "OracleClassifier",
    "RandomClassifier",
    "RunResult",
    "RunSummary",
    "run_once",
    "run_sweep",
    "quick_run",
    "CentralizedFCFS",
    "DecentralizedFCFS",
    "WorkStealingFCFS",
    "TimeSharing",
    "Server",
    "EventLoop",
    "SimSanitizer",
    "SanitizerViolation",
    "PersephoneSystem",
    "PersephoneStaticSystem",
    "PersephoneCfcfsSystem",
    "PersephoneDfcfsSystem",
    "ShenangoSystem",
    "ShinjukuSystem",
    "WorkloadSpec",
    "workload_by_name",
    "FaultPlan",
    "FaultInjector",
    "ChaosResult",
    "run_chaos",
    "RetryPolicy",
    "ResilientClient",
]

_POLICY_SYSTEMS = {
    "darc": lambda w: PersephoneSystem(n_workers=w, oracle=True),
    "darc-profiled": lambda w: PersephoneSystem(n_workers=w, oracle=False),
    "c-fcfs": lambda w: PersephoneCfcfsSystem(n_workers=w),
    "d-fcfs": lambda w: PersephoneDfcfsSystem(n_workers=w),
    "shenango": lambda w: ShenangoSystem(n_workers=w),
    "shinjuku": lambda w: ShinjukuSystem(n_workers=w),
}


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
    try:
        factory = _POLICY_SYSTEMS[policy]
    except KeyError:
        raise KeyError(
            f"unknown policy {policy!r}; choices: {sorted(_POLICY_SYSTEMS)}"
        ) from None
    system = factory(n_workers)
    spec = workload_by_name(workload)
    return run_once(system, spec, utilization, n_requests=n_requests, seed=seed)
