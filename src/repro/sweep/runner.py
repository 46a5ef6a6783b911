"""Cell execution: turn one :class:`~repro.sweep.cells.Cell` into a
:class:`~repro.sweep.cells.CellResult`.

:func:`run_cell` dispatches on the experiment registry by *name*, so a
cell is runnable from any process that can import :mod:`repro` — the
pool executor ships cell documents, not live objects, and stays
compatible with every ``multiprocessing`` start method.  Both it and
the serial figure drivers run a grid point through :func:`run_point`.

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
from typing import Any, Dict, Mapping, Optional, Tuple

from ..errors import ConfigurationError
from ..metrics.digest import digest_chaos_outcome, digest_outcome
from .cells import Cell, CellResult
from .planner import ExperimentSpec, experiment_spec


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


def run_point(
    spec: ExperimentSpec,
    system,
    params: Mapping[str, Any],
    seed: int,
    sanitize: "bool | str" = False,
    trace_path: Optional[str] = None,
    metrics_path: Optional[str] = None,
    **options: Any,
) -> Tuple[Any, Dict[str, float]]:
    """Run one grid point of ``spec`` with ``system`` under ``seed``.

    Returns the live result (a ``RunResult``, ``ChaosResult``,
    ``RackResult``, or figure 7's ``(recorder, scheduler, loop)``) and
    the flat metrics a :class:`CellResult` records, including the
    spec's own :attr:`~ExperimentSpec.cell_metrics`.  ``options`` reach
    the kind's run function (trace metadata, a chaos retry policy, a
    rack's view staleness).  Pooled cells and the serial figure drivers
    both run through here.
    """
    workload = spec.spec_for(params["workload"])
    paths = dict(sanitize=sanitize, trace_path=trace_path, metrics_path=metrics_path)
    if spec.kind == "load_sweep":
        from ..experiments.common import run_once

        live = run_once(
            system, workload, params["rho"], n_requests=params["n_requests"],
            seed=seed, **paths, **options,
        )
        metrics = _summary_metrics(live.summary)
    elif spec.kind == "phased":
        from ..experiments import figure7
        from ..metrics.summary import RunSummary

        live = figure7._run_system(system, workload, seed, **paths)
        recorder, scheduler, loop = live
        summary = RunSummary(recorder, duration_us=loop.now, warmup_frac=0.0)
        metrics = _summary_metrics(summary)
        metrics["reservation_updates"] = float(
            getattr(scheduler, "reservation_updates", 0)
        )
    elif spec.kind == "chaos":
        from ..experiments import chaos
        from ..faults.runner import run_chaos

        n_requests = params["n_requests"]
        plan, _crash_at, _recover_at, window_us = chaos.episode_plan(
            n_requests, workload
        )
        options.setdefault("retry", chaos.default_retry())
        live = run_chaos(
            system, workload, params["rho"], plan, n_requests=n_requests,
            seed=seed, window_us=window_us,
            slo_latency_us=chaos.SLO_LATENCY_US, **paths, **options,
        )
        metrics = _chaos_metrics(live)
    elif spec.kind == "rack":
        from ..rack.rack import run_rack

        live = run_rack(
            system, workload, balancer=params["balancer"],
            n_servers=params["n_servers"], utilization=params["rho"],
            n_requests=params["n_requests"], seed=seed, **paths, **options,
        )
        metrics = _summary_metrics(live.summary)
        metrics["load_imbalance"] = float(live.load_imbalance())
        metrics["spills"] = float(getattr(live.balancer, "spills", 0))
        metrics["stale_reads"] = float(live.views.stale_reads)
        metrics["view_error"] = float(live.views.mean_error())
    else:
        raise ConfigurationError(
            f"experiment {spec.name!r}: unrunnable kind {spec.kind!r}"
        )
    if spec.cell_metrics is not None:
        metrics.update(spec.cell_metrics(live))
    return live, metrics


def _chaos_metrics(res) -> Dict[str, float]:
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
    }
    # Only a reserving scheduler counts reservation updates.
    updates = getattr(res.scheduler, "reservation_updates", None)
    if updates is not None:
        metrics["reservation_updates"] = float(updates)
    return metrics


def _digest(kind: str, live) -> Tuple[str, float]:
    """The outcome digest and simulated duration of a live result."""
    if kind == "chaos":
        loop = live.server.loop
        return digest_chaos_outcome(live.recorder, loop, live.injector), loop.now
    if kind == "phased":
        recorder, _scheduler, loop = live
    elif kind == "rack":
        recorder, loop = live.recorder, live.loop
    else:
        recorder, loop = live.server.recorder, live.server.loop
    return digest_outcome(recorder, loop), loop.now


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
    if spec.kind == "selftest":
        return _run_selftest_cell(cell)
    params = cell.params_dict
    systems = {s.name: s for s in spec.systems_for(params["workload"])}
    system = systems.get(params["system"])
    if system is None:
        raise ConfigurationError(
            f"cell {cell.cell_id}: system {params['system']!r} is not one of "
            f"{sorted(systems)} for {cell.experiment}/{params['workload']}"
        )
    trace_path, metrics_path, artifacts = _cell_paths(cell, artifact_dir, observe)
    options: Dict[str, Any] = {}
    if spec.kind == "load_sweep":
        meta = {"cell_id": cell.cell_id, "replicate": cell.replicate}
        options = {
            "trace_meta": meta if trace_path else None,
            "metrics_meta": meta if metrics_path else None,
        }
    elif spec.kind == "rack":
        # Pooled rack cells export metrics only, never rack traces.
        trace_path = None
        artifacts = (metrics_path,) if metrics_path else ()
    live, metrics = run_point(
        spec, system, params, cell.seed, trace_path=trace_path,
        metrics_path=metrics_path, **options,
    )
    digest, sim_time_us = _digest(spec.kind, live)
    return CellResult.build(cell, metrics, digest, sim_time_us, artifacts=artifacts)


def run_cell_doc(
    doc: Dict[str, Any],
    artifact_dir: Optional[str] = None,
    observe: Tuple[str, ...] = (),
) -> Dict[str, Any]:
    """Document-in, document-out variant for process boundaries."""
    return run_cell(Cell.from_doc(doc), artifact_dir, tuple(observe)).to_doc()
