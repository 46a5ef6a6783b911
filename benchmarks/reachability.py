"""Report simulator functions that no paper path ever calls.

Runs every paper path under ``cProfile`` (a ``sys.setprofile`` hook
written in C) and records which functions of ``src/repro`` are ever
entered:

* every experiment, as ``repro-experiments <name> --n-requests 600``
  (figure 7 runs its four phases at 2 ms each, since it takes phases,
  not a request count);
* every paper check ``benchmarks/bench_*.py`` at ``REPRO_BENCH_N=3000``
  (a claim may fail at that size; the code it reached still counts);
* every ``examples/*.py``.

Each path runs in its own interpreter, two at a time.  A simulator
function (one in any module outside ``TOOLING``) that none of them
calls is dead weight unless ``ALLOWED`` names it with a reason.  The
script exits 1 when it finds such a function, when a path crashes, or
when an ``ALLOWED`` entry matches no unreached function (so the list
cannot outlive what it excuses), and 0 otherwise.  It takes about six
minutes on a 2-vCPU VM.

Run:  python benchmarks/reachability.py
"""

from __future__ import annotations

import ast
import fnmatch
import json
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: The tooling around the simulator: reached through its own commands
#: and options, so not scanned.  Every other module under ``repro`` is
#: the simulator, and a paper path should reach each of its functions.
TOOLING = (
    "repro.analyze",
    "repro.cli",
    "repro.experiments",
    "repro.forensics",
    "repro.sweep",
    "repro.telemetry",
    "repro.trace",
)

#: Functions that may stay unreached: reason -> names (``fnmatch``
#: patterns over the dotted qualified name).  "Tests only" entries are
#: the candidates for the next deletion.
ALLOWED: Dict[str, Tuple[str, ...]] = {
    "debug aid: no paper path prints the object": ("*.__repr__",),
    "closed forms the tests check the simulator against": ("repro.theory.*",),
    "dir() of a lazily exporting package": ("repro._lazy.lazy_exports.<locals>.__dir__",),
    "the runtime sanitizer and the state only it reads (--sanitize)": (
        "repro.metrics.sanitizer.*",
        "repro.errors.SanitizerViolation.__init__",
        "repro.sim.engine.EventLoop.attach_sanitizer",
        "repro.sim.engine.EventLoop.sanitizer",
        "*.pending_scan",
        "repro.core.darc.DarcScheduler.worker_may_serve",
        "repro.rack.views.QueueViews.error_drift",
        "repro.server.server.Server.failed_workers",
    ),
    "rack tracing (--trace)": (
        "repro.rack.tracing.*",
        "repro.rack.balancers.RackBalancer.attach_decision_sink",
    ),
    "run digests: sweeps, repro-analyze determinism and the digest pins": (
        "repro.metrics.digest.*",
        "repro.rack.rack.RackResult.digest",
    ),
    "rack-tier faults: CI's faulted-rack step and tests crash servers, no paper path does": (
        "repro.rack.faults.*",
        "repro.rack.balancers.RackBalancer._invalidate_live",
        "repro.rack.balancers.RackBalancer.dead_fallback",
        "repro.rack.balancers.RackBalancer.set_reachable",
        "repro.rack.rack.RackResult.degradation",
        "repro.server.worker.WorkerCounts.alive_changed",
    ),
    "ingress cost presets: prototype_costs=True in CI's faulted-rack step, and tests": (
        "repro.server.config.ServerConfig.ideal",
        "repro.server.config.ServerConfig.prototype",
    ),
    "stragglers and packet loss: fault kinds no chaos episode plans; tests only": (
        "repro.faults.injector.FaultInjector._slowdown_end",
        "repro.faults.injector.FaultInjector._slowdown_start",
        "repro.faults.plan.PacketFault.*",
        "repro.faults.plan.WorkerSlowdown.*",
        "repro.policies.base.Scheduler.on_worker_speed",
        "repro.policies.timesharing.TimeSharing.on_worker_speed",
        "repro.server.worker.Worker.set_speed",
    ),
    "trace record/replay (run_rack(trace=...), run_trace); tests only": (
        "repro.workload.trace.*",
    ),
    "service-time families and vectorized draws no paper workload uses; tests only": (
        "repro.workload.distributions.Bimodal.*",
        "repro.workload.distributions.Exponential.sample_many",
        "repro.workload.distributions.Fixed.sample",
        "repro.workload.distributions.Fixed.sample_many",
        "repro.workload.distributions.LogNormal.sample_many",
        "repro.workload.distributions.Pareto.*",
        "repro.workload.distributions.ServiceTimeDistribution.sample_many",
        "repro.workload.distributions.Uniform.*",
        "repro.workload.spec.WorkloadSpec.sample_type",
        "repro.workload.spec.WorkloadSpec.sample_types",
    ),
    "arrival and unit helpers beside the block-drawing generator; tests only": (
        "repro.workload.arrivals.ArrivalProcess.times",
        "repro.workload.arrivals.DeterministicArrivals.*",
        "repro.workload.arrivals.PoissonArrivals.inter_arrival",
        "repro.workload.arrivals.PoissonArrivals.times",
        "repro.workload.arrivals.arrival_stream",
        "repro.sim.units.krps_to_per_us",
        "repro.sim.units.milliseconds",
        "repro.sim.units.mrps_to_per_us",
        "repro.sim.units.per_us_to_krps",
        "repro.sim.units.per_us_to_mrps",
        "repro.sim.units.seconds",
        "repro.sim.units.us_to_cycles",
    ),
    "preset mixes and store operations no figure or example runs; tests only": (
        "repro.workload.presets.facebook_usr",
        "repro.workload.presets.rocksdb",
        "repro.workload.presets.ycsb_a",
        "repro.apps.kvstore.KvStore.delete",
        "repro.apps.kvstore.KvStore.service_time",
        "repro.apps.rocksdb.RocksDbLike.get",
        "repro.apps.rocksdb.RocksDbLike.scan_cost_scaled",
        "repro.apps.rocksdb.RocksDbLike.service_time",
        "repro.apps.tpcc.TpccDatabase.service_time",
        "repro.apps.tpcc.TpccDatabase.type_id",
    ),
    "classifier, profiler and reservation views no figure reads; tests only": (
        "repro.core.classifier.ConfusionClassifier.*",
        "repro.core.classifier.PartialClassifier.*",
        "repro.core.grouping.TypeGroup.__len__",
        "repro.core.grouping.TypeGroup.max_service",
        "repro.core.grouping.TypeGroup.min_service",
        "repro.core.profiler.ProfileSnapshot.*",
        "repro.core.profiler.WorkloadProfiler.snapshot",
        "repro.core.reservation.GrantPlan.same_grants",
        "repro.core.reservation.demand_deviation",
        "repro.core.static.DarcStatic._queue_for",
    ),
    "summary, time-series and utilization views no figure prints; tests only": (
        "repro.metrics.degradation.DegradationReport.summary_dict",
        "repro.metrics.degradation.DegradationReport.throughput",
        "repro.metrics.degradation.DegradationReport.violation_spans",
        "repro.faults.runner.ChaosResult.report_dict",
        "repro.metrics.percentiles.P2Quantile.update",
        "repro.metrics.percentiles.p999",
        "repro.metrics.percentiles.percentile_profile",
        "repro.metrics.summary.RunSummary.slowdown_view",
        "repro.metrics.summary.RunSummary.type_by_name",
        "repro.metrics.summary.RunSummary.typed_latency_view",
        "repro.metrics.timeseries.AllocationTimeline.update_times",
        "repro.metrics.timeseries.WindowedStats.throughput_series",
        "repro.metrics.utilization.UtilizationReport.*",
        "repro.rack.rack.RackResult.replica_summaries",
        "repro.rack.views.QueueViews.counters",
        "repro.rack.views.QueueViews.peek",
        "repro.workload.request.Request.completed",
        "repro.workload.request.Request.latency",
        "repro.workload.request.Request.slowdown",
        "repro.workload.request.Request.waiting_time",
    ),
    "engine, fault-plan and client API no paper path calls; tests only": (
        "repro.sim.engine.EventLoop.credited_events",
        "repro.sim.engine.EventLoop.drain",
        "repro.sim.engine.EventLoop.pending_count",
        "repro.sim.engine.EventLoop.stop",
        "repro.sim.events.Event.pending",
        "repro.faults.injector.FaultInjector.attach_observer",
        "repro.faults.injector.FaultInjector.counters",
        "repro.faults.plan.FaultEvent.describe",
        "repro.faults.plan.FaultPlan.__len__",
        "repro.faults.plan.FaultPlan.add",
        "repro.faults.plan.FaultPlan.describe",
        "repro.faults.plan.FaultPlan.is_empty",
        "repro.faults.plan.WorkerFault.describe",
        "repro.policies.base.Scheduler.watch_sinks.<locals>.on_drop",
        "repro.policies.srpt.ShortestRemainingProcessingTime.on_worker_crash",
        "repro.workload.phases.PhaseSchedule.cancel",
        "repro.workload.resilience.ResilientClient.on_drop",
        "repro.workload.resilience.ResilientClient.outstanding",
        "repro.workload.spec.WorkloadSpec.demand_shares",
        "repro.rack.rack.Rack.n_servers",
        "repro.rack.rack.RackResult.n_servers",
    ),
    "balancers and samplers the rack experiment does not pick; tests only": (
        "repro.rack.balancers.RoundRobinBalancer.*",
        "repro.rack.balancers._sample_pool",
        "repro.sim.randomness.RawSampler.*",
    ),
}

FIGURE7_PHASE_US = 2_000.0
EXPERIMENT_N = 600
BENCH_N = "3000"

Key = Tuple[str, int]


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _defs(body, prefix: str) -> Iterator[Tuple[int, str, ast.AST]]:
    """``(first line, qualified name, node)`` of every ``def`` below ``body``.

    The first line is the one CPython gives the code object: the first
    decorator's, when there is one.
    """
    for node in body:
        if isinstance(node, ast.FunctionDef):
            name = f"{prefix}{node.name}"
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield first, name, node
            yield from _defs(node.body, f"{name}.<locals>.")
        elif isinstance(node, ast.ClassDef):
            yield from _defs(node.body, f"{prefix}{node.name}.")
        else:
            # Defs nested in if/for/try/with blocks and except handlers.
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _defs(getattr(node, field, ()), prefix)


def _is_abstract(node: ast.FunctionDef) -> bool:
    return any(getattr(d, "id", None) == "abstractmethod" for d in node.decorator_list)


def defined_functions() -> Dict[Key, str]:
    """Every simulator ``def`` by (file, first line); abstract ones excluded."""
    found: Dict[Key, str] = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = _module_name(path)
        if ".".join(module.split(".")[:2]) in TOOLING:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for first, name, node in _defs(tree.body, ""):
            if not _is_abstract(node):
                found[(str(path), first)] = f"{module}.{name}"
    return found


def paths() -> List[Tuple[str, str, str]]:
    """``(label, kind, target)`` for every paper path."""
    sys.path.insert(0, str(SRC))
    from repro.sweep.planner import supported_experiments

    found = [
        (f"repro-experiments {name}", "experiment", name)
        for name in [*supported_experiments(), "tables"]
    ]
    for bench in sorted((ROOT / "benchmarks").glob("bench_*.py")):
        found.append((f"benchmarks/{bench.name}", "bench", str(bench)))
    for example in sorted((ROOT / "examples").glob("*.py")):
        found.append((f"examples/{example.name}", "example", str(example)))
    return found


def _run(kind: str, target: str) -> int:
    if kind == "experiment" and target == "figure7":
        from repro.experiments import figure7

        phases = figure7.default_phases(phase_us=FIGURE7_PHASE_US)
        print(figure7.render(figure7.run(phases=phases)))
        return 0
    if kind == "experiment":
        from repro.cli import main

        return main([target, "--n-requests", str(EXPERIMENT_N)])
    if kind == "bench":
        import pytest

        code = pytest.main([target, "-q", "-p", "no:cacheprovider", "-p", "no:benchmark"])
        # A claim may fail at this size (exit 1); only an error counts.
        return 0 if code in (0, 1) else int(code)
    import runpy

    sys.argv = [target]
    runpy.run_path(target, run_name="__main__")
    return 0


def child(kind: str, target: str, out: str) -> int:
    """Run one paper path under the profiler; write the reached keys."""
    import cProfile

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        status = _run(kind, target)
    finally:
        profiler.disable()
        prefix = str(SRC / "repro")
        reached = sorted(
            {
                (path, entry.code.co_firstlineno)
                for entry in profiler.getstats()
                if not isinstance(entry.code, str)
                for path in [os.path.realpath(entry.code.co_filename)]
                if path.startswith(prefix)
            }
        )
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(reached, fh)
    return status


def reach() -> Tuple[Set[Key], List[str]]:
    """Run every paper path; the reached keys and the paths that crashed."""
    env = dict(os.environ, REPRO_BENCH_N=BENCH_N)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    reached: Set[Key] = set()
    crashed: List[str] = []
    with tempfile.TemporaryDirectory() as tmp:

        def run(i: int, label: str, kind: str, target: str) -> None:
            out = os.path.join(tmp, f"{i}.json")
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, __file__, "--child", kind, target, out],
                cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True,
            )
            print(f"{time.perf_counter() - start:6.1f}s  {label}", flush=True)
            if proc.returncode:
                crashed.append(label)
                print(proc.stderr[-2000:], file=sys.stderr)
            if os.path.exists(out):
                with open(out, encoding="utf-8") as fh:
                    reached.update((path, line) for path, line in json.load(fh))

        # Two at a time: the paths are single-threaded and CI has 2 cores.
        with ThreadPoolExecutor(max_workers=2) as pool:
            for future in [pool.submit(run, i, *p) for i, p in enumerate(paths())]:
                future.result()
    return reached, sorted(crashed)


def main() -> int:
    if sys.argv[1:2] == ["--child"]:
        return child(*sys.argv[2:5])
    defined = defined_functions()
    reached, crashed = reach()
    unreached = sorted(name for key, name in defined.items() if key not in reached)
    patterns = [pattern for names in ALLOWED.values() for pattern in names]
    flagged = [
        name for name in unreached
        if not any(fnmatch.fnmatchcase(name, pattern) for pattern in patterns)
    ]
    stale = [
        pattern for pattern in patterns
        if not any(fnmatch.fnmatchcase(name, pattern) for name in unreached)
    ]
    print(
        f"{len(defined)} simulator functions: "
        f"{len(defined) - len(unreached)} reached, "
        f"{len(unreached) - len(flagged)} unreached but allowed, "
        f"{len(flagged)} unreached"
    )
    for name in flagged:
        print(f"  unreached: {name}")
    for pattern in stale:
        print(f"  stale allow-list entry (matches nothing unreached): {pattern}")
    for label in crashed:
        print(f"  crashed: {label}")
    return 1 if flagged or stale or crashed else 0


if __name__ == "__main__":
    sys.exit(main())
