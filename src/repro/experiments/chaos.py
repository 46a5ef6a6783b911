"""Chaos experiment: persephone vs shenango vs shinjuku through a
crash/recover episode.

A quarter of the way through the run, two of the eight cores crash; at
the halfway point they come back.  The open-loop client keeps sending at
70% of the *original* capacity, so the surviving six cores run at ~93%
while the outage lasts — enough pressure to expose how each system
re-absorbs the lost capacity:

* **Persephone (DARC)** re-runs Algorithm 2 over the surviving cores at
  the instant of each crash/recover (watch ``reservation_updates``
  jump), keeping short requests fenced off from long ones throughout;
* **Shenango (ws-FCFS)** steals its way around the dead cores' queues;
* **Shinjuku (TS)** keeps time-slicing the survivors, paying preemption
  overhead exactly when capacity is scarcest.

Outputs per-system windowed tail latency, goodput through the episode,
time-to-recover, and the orphan-request ledger (timeouts / retries /
late completions) from the resilience layer.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..faults.plan import FaultPlan
from ..faults.runner import ChaosResult
from ..sweep.planner import ExperimentSpec
from ..systems.base import SystemModel
from ..systems.persephone import PersephoneSystem
from ..systems.shenango import ShenangoSystem
from ..systems.shinjuku import ShinjukuSystem
from ..workload.presets import high_bimodal
from ..workload.resilience import RetryPolicy
from .common import collect_forensics
from .results import outcomes_of, run_serial
from .tables import render_series, render_table

N_WORKERS = 8
UTILIZATION = 0.70
#: Cores killed in the episode (the first two — for DARC these hold the
#: short-request reservation, the worst case for its typed fences).
CRASH_WORKERS = (0, 1)
#: SLO for goodput/TTR accounting: 10x the long requests' mean service.
SLO_LATENCY_US = 1000.0


def default_systems() -> List[SystemModel]:
    return [
        PersephoneSystem(n_workers=N_WORKERS, oracle=False, name="Persephone"),
        ShenangoSystem(n_workers=N_WORKERS, name="Shenango"),
        ShinjukuSystem(n_workers=N_WORKERS, name="Shinjuku"),
    ]


def default_retry() -> RetryPolicy:
    return RetryPolicy(
        timeout_us=2.0 * SLO_LATENCY_US,
        max_retries=2,
        backoff_base_us=100.0,
        backoff_factor=2.0,
        jitter_frac=0.1,
    )


class ChaosExperimentResult:
    """Per-system chaos episodes plus the comparison tables."""

    def __init__(self, crash_at: float, recover_at: float, window_us: float):
        self.crash_at = crash_at
        self.recover_at = recover_at
        self.window_us = window_us
        #: system -> first replicate's episode (tables/series render these)
        self.results: Dict[str, ChaosResult] = {}
        #: system -> metric -> per-replicate values (multi-seed only)
        self.samples: Dict[str, Dict[str, List[float]]] = {}
        self.n_replicates = 1
        self.findings: Dict[str, float] = {}

    def render(self) -> str:
        parts = []
        headers = [
            "system",
            "TTR (us)",
            "viol (us)",
            "goodput (req/us)",
            "timeouts",
            "retries",
            "failures",
            "late",
            "resv updates",
        ]
        rows = []
        for name, res in self.results.items():
            ttr = res.time_to_recover()
            deg = res.degradation
            rows.append(
                [
                    name,
                    float("nan") if ttr is None else ttr,
                    deg.violation_time_us(),
                    float(deg.goodput.mean()) if len(deg.times) else 0.0,
                    res.recorder.timeouts,
                    res.recorder.retries,
                    res.recorder.failures,
                    res.recorder.late_completions,
                    getattr(res.scheduler, "reservation_updates", 0),
                ]
            )
        parts.append(
            render_table(
                headers,
                rows,
                precision=1,
                title=(
                    f"Chaos episode: crash w{list(CRASH_WORKERS)} @ "
                    f"{self.crash_at:.0f}us, recover @ {self.recover_at:.0f}us "
                    f"(SLO {SLO_LATENCY_US:.0f}us)"
                ),
            )
        )
        for name, res in self.results.items():
            deg = res.degradation
            if not len(deg.times):
                continue
            parts.append(
                render_series(
                    "t(us)",
                    list(deg.times),
                    {
                        "p99 latency (us)": list(deg.tail_latency),
                        "goodput (req/us)": list(deg.goodput),
                    },
                    precision=2,
                    title=f"Chaos [{name}]",
                )
            )
        return "\n\n".join(parts)


def episode_plan(n_requests: int, spec=None):
    """The crash/recover episode geometry for an ``n_requests``-long run.

    Pins the episode to the expected run length so the same story plays
    out at any ``--n-requests`` scale.  Returns ``(plan, crash_at,
    recover_at, window_us)``; shared by :func:`run` and the sweep runner
    so pooled chaos cells replay exactly the serial episode.
    """
    if spec is None:
        spec = high_bimodal()
    rate = UTILIZATION * spec.peak_load(N_WORKERS)
    expected_us = n_requests / rate
    crash_at = 0.25 * expected_us
    recover_at = 0.50 * expected_us
    window_us = expected_us / 50.0
    plan = FaultPlan.crash_recover(
        list(CRASH_WORKERS), crash_at=crash_at, recover_at=recover_at
    )
    return plan, crash_at, recover_at, window_us


def findings(outcomes) -> Dict[str, Dict[str, float]]:
    """Per system: replicate-mean time-to-recover, SLO-violation time and
    failures (with half-widths over several seeds), and DARC's
    reservation updates in the first replicate."""
    facts: Dict[str, float] = {}
    for system in outcomes.values("system"):
        updates = outcomes.first("reservation_updates", system=system)
        if updates == updates:
            facts["darc_reservation_updates"] = updates
        for metric in ("ttr_us", "violation_us", "failures"):
            stat = outcomes.stat(metric, system=system)
            facts[f"{metric} [{system}]"] = stat.mean
            if outcomes.n_replicates > 1:
                facts[f"{metric} halfwidth [{system}]"] = stat.half_width
    return {"": facts}


SPEC = ExperimentSpec(
    name="chaos",
    kind="chaos",
    workloads=("high_bimodal",),
    spec_for=lambda workload: high_bimodal(),
    systems_for=lambda workload: default_systems(),
    utilizations=(UTILIZATION,),
    n_requests=20_000,
    table_metrics=("ttr_us", "violation_us", "failures", "throughput"),
    findings=findings,
)


def run(
    n_requests: int = 20_000,
    seed: int = 1,
    systems: Optional[List[SystemModel]] = None,
    retry: Optional[RetryPolicy] = None,
    sanitize: "bool | str" = False,
    trace_dir: Optional[str] = None,
    metrics_dir: Optional[str] = None,
    seeds: Optional[Sequence[int]] = None,
    forensics_dir: Optional[str] = None,
) -> ChaosExperimentResult:
    """Run the crash/recover episode for every system.

    ``seeds`` replays each system's episode once per seed (derived
    per-cell seeds matching the pooled ``repro-sweep`` chaos cells);
    tables/series come from the first replicate while the headline
    findings (TTR, violation time, failures) become replicate means with
    ``±half-width`` companions.
    """
    spec = SPEC
    if systems is not None:
        spec = spec._replace(systems_for=lambda workload: list(systems))
    _plan, crash_at, recover_at, window_us = episode_plan(n_requests)
    runs = run_serial(
        spec, seed, seeds,
        lambda params, tag: ["chaos", params["system"], tag],
        n_requests, sanitize=sanitize, trace_dir=trace_dir,
        metrics_dir=metrics_dir, retry=retry or default_retry(),
    )
    result = ChaosExperimentResult(crash_at, recover_at, window_us)
    result.n_replicates = len(seeds) if seeds else 1
    first = seeds[0] if seeds else seed
    for cell, res, metrics in runs:
        name = cell.params_dict["system"]
        if cell.replicate == first:
            result.results[name] = res
        if result.n_replicates > 1:
            samples = result.samples.setdefault(name, {})
            for metric in ("ttr_us", "violation_us", "failures"):
                samples.setdefault(metric, []).append(metrics[metric])
    result.findings = findings(outcomes_of(spec, runs))[""]
    collect_forensics(forensics_dir, trace_dir, "chaos")
    return result


def render(result: ChaosExperimentResult) -> str:
    return result.render()
