"""Seed-determinism checker.

Runs an experiment twice with the same root seed and compares a digest of
the observable event stream — every completion's (type, arrival, service,
finish, wait) plus engine counters and drop totals.  Two same-seed runs
of a correct simulator must produce byte-identical digests; any
divergence means hidden state (wall clock, unseeded RNG, hash-order
iteration, cross-run leakage) reached a scheduling decision.

A third run attaches a :class:`~repro.trace.Tracer` and a
:class:`~repro.telemetry.TelemetryProbe` together and must produce the
same digest too.  Observers never perturb a run, and a traced Shinjuku
run books every quantum boundary as its own event while an untraced one
settles certain hand-backs in bulk, so this run also checks that the two
paths agree.  It runs the observed configuration users get from
``--trace`` with ``--metrics``: the probe shares the tracer's tail
monitor, and the loop calls both only at their sample times.

Exposed as ``repro-analyze determinism``; the pinned-digest pytest suite
(``tests/lint/test_determinism.py``) drives it too.  The digests
themselves live in :mod:`repro.metrics.digest`.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Sequence

from ..experiments.common import run_once
from ..metrics.digest import digest_chaos_outcome, digest_outcome
from ..systems.base import SystemModel
from ..workload.spec import WorkloadSpec


class RunDigest(NamedTuple):
    """Fingerprint of one simulated run."""

    system: str
    seed: int
    digest: str
    completed: int
    dropped: int
    events_processed: int
    final_time: float


class DeterminismReport(NamedTuple):
    """Outcome of one twice-run comparison."""

    system: str
    seed: int
    identical: bool
    first: RunDigest
    second: RunDigest
    #: The same run with a tracer and a probe attached, when one was made.
    traced: Optional[RunDigest] = None

    def describe(self) -> str:
        verdict = "OK " if self.identical else "FAIL"
        line = (
            f"[{verdict}] {self.system}: seed={self.seed} "
            f"digest={self.first.digest[:16]}"
        )
        if self.second.digest != self.first.digest:
            line += (
                f" != {self.second.digest[:16]} "
                f"(completed {self.first.completed}/{self.second.completed}, "
                f"events {self.first.events_processed}/{self.second.events_processed})"
            )
        traced = self.traced
        if traced is not None and traced.digest != self.first.digest:
            line += (
                f" != traced {traced.digest[:16]} "
                f"(completed {self.first.completed}/{traced.completed}, "
                f"events {self.first.events_processed}/{traced.events_processed})"
            )
        return line


def _report(first: RunDigest, second: RunDigest, traced: RunDigest) -> DeterminismReport:
    """Compare a twice-run and its traced run."""
    return DeterminismReport(
        system=first.system,
        seed=first.seed,
        identical=first.digest == second.digest == traced.digest,
        first=first,
        second=second,
        traced=traced,
    )


def digest_run(
    system: SystemModel,
    spec: WorkloadSpec,
    utilization: float = 0.7,
    n_requests: int = 2000,
    seed: int = 1,
    sanitize: "bool | str" = False,
    tracer=None,
    telemetry=None,
) -> RunDigest:
    """Simulate one load point and hash its observable outcome.

    ``tracer`` optionally attaches a :class:`repro.trace.Tracer`;
    ``telemetry`` optionally attaches a
    :class:`repro.telemetry.TelemetryProbe`.  The digest must come out
    identical with or without either (the observers'
    zero-interference contract, asserted by ``tests/trace`` and
    ``tests/telemetry``).
    """
    result = run_once(
        system,
        spec,
        utilization,
        n_requests=n_requests,
        seed=seed,
        sanitize=sanitize,
        tracer=tracer,
        telemetry=telemetry,
    )
    recorder = result.server.recorder
    loop = result.server.loop
    return RunDigest(
        system=result.system_name,
        seed=seed,
        digest=digest_outcome(recorder, loop),
        completed=recorder.completed,
        dropped=recorder.dropped,
        events_processed=loop.events_processed,
        final_time=loop.now,
    )


def check_system(
    system: SystemModel,
    spec: WorkloadSpec,
    utilization: float = 0.7,
    n_requests: int = 2000,
    seed: int = 1,
    sanitize: "bool | str" = False,
) -> DeterminismReport:
    """Run ``system`` twice with the same seed, then once more with a
    tracer and a probe attached, and compare the three digests."""
    from ..telemetry.probe import TelemetryProbe
    from ..trace.tracer import Tracer

    first = digest_run(system, spec, utilization, n_requests, seed, sanitize)
    second = digest_run(system, spec, utilization, n_requests, seed, sanitize)
    traced = digest_run(
        system, spec, utilization, n_requests, seed, sanitize,
        tracer=Tracer(), telemetry=TelemetryProbe(),
    )
    return _report(first, second, traced)


def default_systems() -> List[SystemModel]:
    """The paper's three systems, as checked by CI.  Shinjuku runs in
    three configurations: multi-queue with timer preemption (the default),
    single-queue (the paper's Extreme Bimodal setup) and demand-triggered
    preemption (the Fig. 10 model), so every quantum-boundary path runs
    under the sanitizer."""
    from ..systems.persephone import PersephoneSystem
    from ..systems.shenango import ShenangoSystem
    from ..systems.shinjuku import ShinjukuSystem

    return [
        PersephoneSystem(n_workers=8, min_samples=200),
        ShenangoSystem(n_workers=8),
        ShinjukuSystem(n_workers=8),
        ShinjukuSystem(n_workers=8, mode="single"),
        ShinjukuSystem(
            n_workers=8, trigger="demand", name="Shinjuku (multi-queue, 5us, demand)"
        ),
    ]


def check_all(
    systems: Optional[Sequence[SystemModel]] = None,
    spec_factory: Optional[Callable[[], WorkloadSpec]] = None,
    utilization: float = 0.7,
    n_requests: int = 2000,
    seed: int = 1,
    sanitize: "bool | str" = False,
) -> List[DeterminismReport]:
    """Twice-run every system; a fresh spec per run pair guards against
    workload-spec mutation leaking between runs."""
    if spec_factory is None:
        from ..workload.presets import high_bimodal

        spec_factory = high_bimodal
    reports = []
    for system in systems if systems is not None else default_systems():
        reports.append(
            check_system(
                system,
                spec_factory(),
                utilization=utilization,
                n_requests=n_requests,
                seed=seed,
                sanitize=sanitize,
            )
        )
    return reports


# ----------------------------------------------------------------------
# chaos determinism: same seed + same fault plan -> identical runs
# ----------------------------------------------------------------------
def default_chaos_plan():
    """A plan exercising every fault class inside a short checker run:
    crash/recover, a straggler, and probabilistic packet loss/dup."""
    from ..faults.plan import (
        FaultPlan,
        PacketDrop,
        PacketDup,
        WorkerCrash,
        WorkerRecover,
        WorkerSlowdown,
    )

    return FaultPlan(
        [
            WorkerCrash(1500.0, 0),
            WorkerCrash(1800.0, 1, requeue=False),
            WorkerSlowdown(2000.0, 2, factor=3.0, until=5000.0),
            PacketDrop(2500.0, 4000.0, 0.2),
            PacketDup(3000.0, 4500.0, 0.1),
            WorkerRecover(6000.0, 0),
            WorkerRecover(6000.0, 1),
        ]
    )


def digest_chaos_run(
    system: SystemModel,
    spec: WorkloadSpec,
    utilization: float = 0.7,
    n_requests: int = 2000,
    seed: int = 1,
    sanitize: "bool | str" = False,
    plan=None,
    tracer=None,
    telemetry=None,
) -> RunDigest:
    """Simulate one fault-injected episode and hash its outcome.

    The digest additionally covers the orphan-request ledger (timeouts /
    retries / failures / late completions) and the injector's counters,
    so a divergence anywhere in the fault path shows up.  ``tracer`` and
    ``telemetry`` optionally attach a :class:`repro.trace.Tracer` and a
    :class:`repro.telemetry.TelemetryProbe`."""
    from ..faults.runner import run_chaos
    from ..workload.resilience import RetryPolicy

    if plan is None:
        plan = default_chaos_plan()
    retry = RetryPolicy(
        timeout_us=1500.0,
        max_retries=2,
        backoff_base_us=50.0,
        jitter_frac=0.25,
    )
    result = run_chaos(
        system,
        spec,
        utilization,
        plan,
        n_requests=n_requests,
        seed=seed,
        retry=retry,
        sanitize=sanitize,
        tracer=tracer,
        telemetry=telemetry,
    )
    recorder = result.recorder
    loop = result.server.loop
    return RunDigest(
        system=result.system_name,
        seed=seed,
        digest=digest_chaos_outcome(recorder, loop, result.injector),
        completed=recorder.completed,
        dropped=recorder.dropped,
        events_processed=loop.events_processed,
        final_time=loop.now,
    )


def check_chaos_all(
    systems: Optional[Sequence[SystemModel]] = None,
    spec_factory: Optional[Callable[[], WorkloadSpec]] = None,
    utilization: float = 0.7,
    n_requests: int = 2000,
    seed: int = 1,
    sanitize: "bool | str" = False,
) -> List[DeterminismReport]:
    """Twice-run every system through the default fault plan, then once
    more with a tracer and a probe attached; fresh spec *and* fresh plan
    per run so no state can leak between runs."""
    from ..telemetry.probe import TelemetryProbe
    from ..trace.tracer import Tracer

    if spec_factory is None:
        from ..workload.presets import high_bimodal

        spec_factory = high_bimodal
    reports = []
    for system in systems if systems is not None else default_systems():
        first = digest_chaos_run(
            system, spec_factory(), utilization, n_requests, seed, sanitize,
            plan=default_chaos_plan(),
        )
        second = digest_chaos_run(
            system, spec_factory(), utilization, n_requests, seed, sanitize,
            plan=default_chaos_plan(),
        )
        traced = digest_chaos_run(
            system, spec_factory(), utilization, n_requests, seed, sanitize,
            plan=default_chaos_plan(), tracer=Tracer(), telemetry=TelemetryProbe(),
        )
        reports.append(_report(first, second, traced))
    return reports
