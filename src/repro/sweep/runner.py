"""Cell execution: turn one :class:`~repro.sweep.cells.Cell` into a
:class:`~repro.sweep.cells.CellResult`.

:func:`run_cell` dispatches on the experiment registry by *name*, so a
cell is runnable from any process that can import :mod:`repro` — the
pool executor ships cell documents, not live objects, and stays
compatible with every ``multiprocessing`` start method.

Every cell's digest comes from
:func:`repro.metrics.digest.digest_outcome` (or its chaos variant) —
the same fingerprint the determinism checker uses — which is what lets
the determinism tests pin that serial, pooled and resumed executions of
one cell are bit-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Any, Dict, Optional, Tuple

from ..errors import ConfigurationError
from ..metrics.digest import digest_chaos_outcome, digest_outcome
from ..sim.units import US_PER_MS
from .cells import Cell, CellResult
from .planner import SELFTEST, experiment_spec


def _summary_metrics(summary) -> Dict[str, float]:
    """Reduce a :class:`~repro.metrics.summary.RunSummary` to the flat
    floats the replication layer aggregates."""
    return {
        "completed": float(summary.completed),
        "dropped": float(summary.dropped),
        "drop_rate": float(summary.drop_rate),
        "throughput": float(summary.throughput),
        "overall_tail_slowdown": float(summary.overall_tail_slowdown),
        "overall_tail_latency": float(summary.overall_tail_latency),
        "overall_mean_latency": float(summary.overall_mean_latency),
        "overall_mean_slowdown": float(summary.overall_mean_slowdown),
        "max_typed_slowdown": float(summary.max_typed_slowdown()),
        "total_preemptions": float(summary.total_preemptions),
        "total_overhead_us": float(summary.total_overhead_us),
    }


def _cell_paths(
    cell: Cell, artifact_dir: Optional[str], observe: Tuple[str, ...]
) -> Tuple[Optional[str], Optional[str], Tuple[str, ...]]:
    """Per-cell trace/metrics targets inside ``artifact_dir``."""
    if artifact_dir is None or not observe:
        return None, None, ()
    os.makedirs(artifact_dir, exist_ok=True)
    trace_path = (
        os.path.join(artifact_dir, f"{cell.cell_id}.trace.json")
        if "trace" in observe
        else None
    )
    metrics_path = (
        os.path.join(artifact_dir, f"{cell.cell_id}.metrics")
        if "metrics" in observe
        else None
    )
    artifacts = tuple(p for p in (trace_path, metrics_path) if p is not None)
    return trace_path, metrics_path, artifacts


def _run_simulated_cell(
    cell: Cell,
    system,
    wspec,
    artifact_dir: Optional[str],
    observe: Tuple[str, ...],
) -> CellResult:
    """The common load-point path: ``run_once`` + outcome digest."""
    from ..experiments.common import run_once

    params = cell.params_dict
    trace_path, metrics_path, artifacts = _cell_paths(cell, artifact_dir, observe)
    meta = {"cell_id": cell.cell_id, "replicate": cell.replicate}
    result = run_once(
        system,
        wspec,
        params["rho"],
        n_requests=params["n_requests"],
        seed=cell.seed,
        trace_path=trace_path,
        trace_meta=meta if trace_path else None,
        metrics_path=metrics_path,
        metrics_meta=meta if metrics_path else None,
    )
    recorder = result.server.recorder
    loop = result.server.loop
    return CellResult.build(
        cell,
        _summary_metrics(result.summary),
        digest_outcome(recorder, loop),
        loop.now,
        artifacts=artifacts,
    )


def _run_load_cell(cell, spec, artifact_dir, observe) -> CellResult:
    params = cell.params_dict
    workload = params["workload"]
    systems = {s.name: s for s in spec.systems_for(workload)}
    system = systems.get(params["system"])
    if system is None:
        raise ConfigurationError(
            f"cell {cell.cell_id}: system {params['system']!r} is not one of "
            f"{sorted(systems)} for {cell.experiment}/{workload}"
        )
    return _run_simulated_cell(cell, system, spec.spec_for(workload), artifact_dir, observe)


def _run_reserved_cell(cell, spec, artifact_dir, observe) -> CellResult:
    from ..experiments import figure4
    from ..systems.persephone import PersephoneCfcfsSystem, PersephoneStaticSystem

    params = cell.params_dict
    choice = params["system"]
    if choice == "c-FCFS":
        system = PersephoneCfcfsSystem(n_workers=figure4.N_WORKERS, name="c-FCFS")
    elif choice.startswith("reserved"):
        k = int(choice[len("reserved"):])
        if not 0 <= k < figure4.N_WORKERS:
            raise ConfigurationError(
                f"cell {cell.cell_id}: reserved count {k} out of range"
            )
        system = PersephoneStaticSystem(n_reserved=k, n_workers=figure4.N_WORKERS)
    else:
        raise ConfigurationError(
            f"cell {cell.cell_id}: unknown figure4 system {choice!r}"
        )
    return _run_simulated_cell(
        cell, system, spec.spec_for(params["workload"]), artifact_dir, observe
    )


def _run_phased_cell(cell, spec, artifact_dir, observe) -> CellResult:
    from ..experiments import figure7
    from ..metrics.summary import RunSummary

    params = cell.params_dict
    systems = {s.name: s for s in spec.systems_for("phased")}
    system = systems.get(params["system"])
    if system is None:
        raise ConfigurationError(
            f"cell {cell.cell_id}: system {params['system']!r} is not one of "
            f"{sorted(systems)} for figure7"
        )
    trace_path, metrics_path, artifacts = _cell_paths(cell, artifact_dir, observe)
    recorder, scheduler, loop = figure7._run_system(
        system,
        figure7.default_phases(),
        cell.seed,
        window_us=10.0 * US_PER_MS,
        trace_path=trace_path,
        metrics_path=metrics_path,
    )
    summary = RunSummary(recorder, duration_us=loop.now, warmup_frac=0.0)
    metrics = _summary_metrics(summary)
    metrics["reservation_updates"] = float(
        getattr(scheduler, "reservation_updates", 0)
    )
    return CellResult.build(
        cell,
        metrics,
        digest_outcome(recorder, loop),
        loop.now,
        artifacts=artifacts,
    )


def _run_chaos_cell(cell, spec, artifact_dir, observe) -> CellResult:
    from ..experiments import chaos
    from ..faults.runner import run_chaos

    params = cell.params_dict
    workload = params["workload"]
    systems = {s.name: s for s in spec.systems_for(workload)}
    system = systems.get(params["system"])
    if system is None:
        raise ConfigurationError(
            f"cell {cell.cell_id}: system {params['system']!r} is not one of "
            f"{sorted(systems)} for chaos"
        )
    wspec = spec.spec_for(workload)
    n_requests = params["n_requests"]
    plan, _crash_at, _recover_at, window_us = chaos.episode_plan(n_requests, wspec)
    trace_path, metrics_path, artifacts = _cell_paths(cell, artifact_dir, observe)
    res = run_chaos(
        system,
        wspec,
        params["rho"],
        plan,
        n_requests=n_requests,
        seed=cell.seed,
        retry=chaos.default_retry(),
        window_us=window_us,
        slo_latency_us=chaos.SLO_LATENCY_US,
        trace_path=trace_path,
        metrics_path=metrics_path,
    )
    recorder = res.recorder
    loop = res.server.loop
    ttr = res.time_to_recover()
    deg = res.degradation
    metrics = {
        "completed": float(recorder.completed),
        "dropped": float(recorder.dropped),
        "throughput": float(recorder.completed / loop.now) if loop.now > 0 else 0.0,
        "ttr_us": float("nan") if ttr is None else float(ttr),
        "violation_us": float(deg.violation_time_us()),
        "goodput": float(deg.goodput.mean()) if len(deg.times) else 0.0,
        "timeouts": float(recorder.timeouts),
        "retries": float(recorder.retries),
        "failures": float(recorder.failures),
        "late_completions": float(recorder.late_completions),
        "reservation_updates": float(
            getattr(res.scheduler, "reservation_updates", 0)
        ),
    }
    return CellResult.build(
        cell,
        metrics,
        digest_chaos_outcome(recorder, loop, res.injector),
        loop.now,
        artifacts=artifacts,
    )


def _run_rack_cell(cell, spec, artifact_dir, observe) -> CellResult:
    from ..rack.rack import run_rack

    params = cell.params_dict
    workload = params["workload"]
    systems = {s.name: s for s in spec.systems_for(workload)}
    system = systems.get(params["system"])
    if system is None:
        raise ConfigurationError(
            f"cell {cell.cell_id}: system {params['system']!r} is not one of "
            f"{sorted(systems)} for rack"
        )
    _trace_path, metrics_path, artifacts = _cell_paths(cell, artifact_dir, observe)
    if metrics_path is None:
        artifacts = ()
    result = run_rack(
        system,
        spec.spec_for(workload),
        balancer=params["balancer"],
        n_servers=params["n_servers"],
        utilization=params["rho"],
        n_requests=params["n_requests"],
        seed=cell.seed,
        metrics_path=metrics_path,
    )
    metrics = _summary_metrics(result.summary)
    metrics["load_imbalance"] = float(result.load_imbalance())
    metrics["spills"] = float(getattr(result.balancer, "spills", 0))
    metrics["stale_reads"] = float(result.views.stale_reads)
    metrics["view_error"] = float(result.views.mean_error())
    return CellResult.build(
        cell,
        metrics,
        digest_outcome(result.recorder, result.loop),
        result.loop.now,
        artifacts=artifacts,
    )


def _run_selftest_cell(cell: Cell) -> CellResult:
    """Executor-infrastructure cells: deterministic toy work.

    ``mode="ok"`` computes a pure value; ``"sleep"`` additionally idles
    for ``duration_ms`` of real time (the latency-bound benchmark cell —
    pool speedup on such a grid measures orchestration overlap and is
    machine-independent); ``"crash"`` raises; ``"hang"`` blocks until
    the executor's per-cell timeout kills it.  The sleeps are real
    wall-clock idling by design — this is worker-management test
    machinery, never simulation or aggregation code.
    """
    params = cell.params_dict
    mode = params["mode"]
    duration_ms = float(params.get("duration_ms", 0.0))
    if mode == "crash":
        raise RuntimeError(f"selftest cell {cell.cell_id} crashed on request")
    if mode == "hang":
        time.sleep(3600.0)  # repro-analyze: disable=A301
    if mode == "sleep" and duration_ms > 0:
        time.sleep(duration_ms / 1e3)  # repro-analyze: disable=A301
    elif mode not in ("ok", "sleep"):
        raise ConfigurationError(f"unknown selftest mode {mode!r}")
    value = float((cell.seed % 1_000) + params["index"])
    payload = json.dumps(
        [cell.experiment, sorted(params.items()), cell.replicate, value],
        sort_keys=True,
        separators=(",", ":"),
    ).encode()
    return CellResult.build(
        cell,
        {"value": value},
        hashlib.sha256(payload).hexdigest(),
        sim_time_us=0.0,
    )


def run_cell(
    cell: Cell,
    artifact_dir: Optional[str] = None,
    observe: Tuple[str, ...] = (),
) -> CellResult:
    """Execute one cell to completion, in the calling process.

    ``observe`` may contain ``"trace"`` and/or ``"metrics"`` to attach
    the zero-interference observer planes, writing per-cell artifacts
    under ``artifact_dir``; digests are identical either way.
    """
    spec = experiment_spec(cell.experiment)
    if spec.kind == "load_sweep":
        return _run_load_cell(cell, spec, artifact_dir, observe)
    if spec.kind == "reserved_grid":
        return _run_reserved_cell(cell, spec, artifact_dir, observe)
    if spec.kind == "phased":
        return _run_phased_cell(cell, spec, artifact_dir, observe)
    if spec.kind == "chaos":
        return _run_chaos_cell(cell, spec, artifact_dir, observe)
    if spec.kind == "rack":
        return _run_rack_cell(cell, spec, artifact_dir, observe)
    if spec.kind == "selftest":
        return _run_selftest_cell(cell)
    raise ConfigurationError(
        f"cell {cell.cell_id}: unrunnable experiment kind {spec.kind!r}"
    )


def run_cell_doc(
    doc: Dict[str, Any],
    artifact_dir: Optional[str] = None,
    observe: Tuple[str, ...] = (),
) -> Dict[str, Any]:
    """Document-in, document-out variant for process boundaries."""
    return run_cell(Cell.from_doc(doc), artifact_dir, tuple(observe)).to_doc()
