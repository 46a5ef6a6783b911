"""Shared result containers for figure/table drivers.

A :class:`FigureResult` holds, per system, an ordered load sweep of
:class:`~repro.experiments.common.RunResult` plus figure-specific derived
numbers, and renders itself as the text analogue of the paper's plot.
:func:`run_serial` runs an experiment's planned cells in-process for
every serial driver.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..sweep.merge import Outcomes
from ..sweep.planner import plan_experiment
from ..sweep.runner import run_point
from ..sweep.stats import CIStat, capacity_at_slo, mean_ci
from .common import (
    MetricFn,
    RunResult,
    metrics_target,
    trace_target,
    typed_latency_metric,
)
from .tables import render_series


class FigureResult:
    """Sweeps keyed by system name, with helpers to tabulate them.

    Single-seed drivers fill ``sweeps`` directly; multi-seed drivers
    call :meth:`add_replicated`, which additionally stores every
    replicate so the tabulation helpers can put Student-t confidence
    intervals on each point (``mean±half-width`` cells once at least two
    seeds replicated a point).
    """

    #: CI level used for replicated tables.
    CONFIDENCE = 0.95

    def __init__(self, name: str, utilizations: Sequence[float]):
        self.name = name
        self.utilizations = list(utilizations)
        self.sweeps: Dict[str, List[RunResult]] = {}
        #: system name -> replicate seed -> sweep (one RunResult per
        #: load point); filled by :meth:`add_replicated`.
        self.replicates: Dict[str, Dict[int, List[RunResult]]] = {}
        #: Free-form derived findings, filled in by the driver.
        self.findings: Dict[str, float] = {}

    def add_sweep(self, system_name: str, sweep: List[RunResult]) -> None:
        self.sweeps[system_name] = sweep

    def add_replicated(
        self, system_name: str, replicates: Mapping[int, List[RunResult]]
    ) -> None:
        """Store a multi-seed sweep; the first replicate also lands in
        ``sweeps`` so single-seed consumers keep working unchanged."""
        stored = {int(k): list(v) for k, v in replicates.items()}
        if not stored:
            raise ValueError(f"no replicates for {system_name!r}")
        self.replicates[system_name] = stored
        self.sweeps[system_name] = next(iter(stored.values()))

    @property
    def n_replicates(self) -> int:
        return max((len(r) for r in self.replicates.values()), default=1)

    def series(self, metric: MetricFn) -> Dict[str, List[float]]:
        """Evaluate ``metric`` at every point of every sweep (replicated
        systems evaluate to the replicate mean)."""
        return {
            name: [stat.mean for stat in stats]
            for name, stats in self.series_ci(metric).items()
        }

    def _replicate_sweeps(self, name: str) -> List[List[RunResult]]:
        reps = self.replicates.get(name)
        return list(reps.values()) if reps else [self.sweeps[name]]

    def series_ci(self, metric: MetricFn) -> Dict[str, List[CIStat]]:
        """Per-point replicate statistics for ``metric``.

        Systems added via :meth:`add_sweep` yield degenerate ``n=1``
        intervals, so mixed figures still tabulate uniformly.
        """
        out: Dict[str, List[CIStat]] = {}
        for name, sweep in self.sweeps.items():
            reps = self._replicate_sweeps(name)
            out[name] = [
                mean_ci(
                    [metric(r[i]) for r in reps if i < len(r)],
                    confidence=self.CONFIDENCE,
                )
                for i in range(len(sweep))
            ]
        return out

    def capacities(self, slo: float, metric: MetricFn) -> Dict[str, Optional[float]]:
        """Per-system max utilization meeting the SLO
        (:func:`~repro.sweep.stats.capacity_at_slo`).

        A point qualifies on its replicate-mean metric, and a dropped
        request in any replicate disqualifies it.
        """
        stats = self.series_ci(metric)
        out: Dict[str, Optional[float]] = {}
        for name, sweep in self.sweeps.items():
            reps = self._replicate_sweeps(name)
            out[name] = capacity_at_slo(
                (
                    (
                        run.utilization,
                        stat,
                        any(i < len(r) and r[i].summary.drop_rate > 0 for r in reps),
                    )
                    for i, (run, stat) in enumerate(zip(sweep, stats[name]))
                ),
                slo,
            )
        return out

    def render_metric(
        self, metric: MetricFn, label: str, precision: int = 1
    ) -> str:
        if self.replicates and self.n_replicates > 1:
            series = {
                name: [stat.format(precision) for stat in stats]
                for name, stats in self.series_ci(metric).items()
            }
            label = (
                f"{label} (mean±{self.CONFIDENCE:.0%} CI, "
                f"{self.n_replicates} seeds)"
            )
        else:
            series = self.series(metric)
        return render_series(
            "load",
            self.utilizations,
            series,
            precision=precision,
            title=f"{self.name}: {label}",
        )

    def render_findings(self) -> str:
        if not self.findings:
            return ""
        lines = [f"{self.name}: findings"]
        for key, value in self.findings.items():
            shown = f"{value:.2f}" if isinstance(value, float) else str(value)
            lines.append(f"  {key} = {shown}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FigureResult({self.name!r}, systems={sorted(self.sweeps)})"


def run_serial(
    spec,
    seed: int,
    seeds: Optional[Sequence[int]],
    name_parts: Callable[[Dict[str, Any], str], List[Any]],
    n_requests: Optional[int] = None,
    utilizations: Optional[Sequence[float]] = None,
    sanitize: "bool | str" = False,
    trace_dir: Optional[str] = None,
    metrics_dir: Optional[str] = None,
    **options: Any,
) -> List[Tuple[Any, Any, Dict[str, float]]]:
    """Run every cell of ``spec``'s plan in this process, in plan order.

    Returns ``(cell, live result, metrics)`` per cell.  This is where a
    run's seed is chosen: without ``seeds`` the single raw ``seed``
    runs, as it always has; with ``seeds`` each cell runs under its
    derived seed, so a serial multi-seed run and a pooled ``repro-sweep``
    run of one grid execute bit-identical cells.  ``name_parts(params,
    seed_tag)`` names a cell's trace/metrics exports; ``seed_tag`` is
    ``seed<N>`` when several seeds replicate the grid, else empty.
    """
    plan = plan_experiment(
        spec, (seed,) if seeds is None else seeds, n_requests, utilizations
    )
    systems: Dict[str, Dict[str, Any]] = {}
    runs = []
    for cell in plan.cells:
        params = cell.params_dict
        workload = params["workload"]
        if workload not in systems:
            systems[workload] = {s.name: s for s in spec.systems_for(workload)}
        tag = f"seed{cell.replicate}" if seeds and len(seeds) > 1 else ""
        parts = name_parts(params, tag)
        live, metrics = run_point(
            spec,
            systems[workload][params["system"]],
            params,
            seed if seeds is None else cell.seed,
            sanitize=sanitize,
            trace_path=trace_target(trace_dir, *parts),
            metrics_path=metrics_target(metrics_dir, *parts),
            **options,
        )
        runs.append((cell, live, metrics))
    return runs


def outcomes_of(spec, runs) -> Outcomes:
    """The findings input of :func:`run_serial`'s runs."""
    return Outcomes(
        spec, [(cell.params, cell.replicate, metrics) for cell, _, metrics in runs]
    )


def load_name_parts(params: Dict[str, Any], tag: str) -> List[Any]:
    """``<system>_<workload>_rho<load>[_seed<N>]`` export names."""
    rho = f"rho{round(params['rho'] * 100):03d}"
    return [params["system"], params["workload"], rho, tag]


def run_load_figure(
    spec,
    title: str,
    utilizations: Sequence[float],
    n_requests: int,
    seed: int = 1,
    seeds: Optional[Sequence[int]] = None,
    systems: Optional[List[Any]] = None,
    section: str = "",
    **kwargs: Any,
) -> FigureResult:
    """A load-sweep figure: every system over ``utilizations``.

    ``systems`` replaces the spec's own; the findings are the spec's
    ``section`` (a workload for multi-workload figures).
    """
    if systems is not None:
        spec = spec._replace(systems_for=lambda workload: list(systems))
    runs = run_serial(
        spec, seed, seeds, load_name_parts, n_requests, utilizations, **kwargs
    )
    result = figure_of(title, utilizations, runs, seeds)
    if spec.findings is not None:
        result.findings = spec.findings(outcomes_of(spec, runs)).get(section, {})
    return result


def figure_of(
    title: str,
    utilizations: Sequence[float],
    runs: Sequence[Tuple[Any, Any, Dict[str, float]]],
    seeds: Optional[Sequence[int]],
) -> FigureResult:
    """Tabulate :func:`run_serial`'s runs per system (replicated when
    ``seeds`` was given)."""
    by_system: Dict[str, Dict[int, List[Any]]] = {}
    for cell, live, _ in runs:
        by_system.setdefault(cell.params_dict["system"], {}).setdefault(
            cell.replicate, []
        ).append(live)
    result = FigureResult(title, utilizations)
    for name, replicates in by_system.items():
        if seeds is not None:
            result.add_replicated(name, replicates)
        else:
            (sweep,) = replicates.values()
            result.add_sweep(name, sweep)
    return result


def capacity_findings(
    capacities: Mapping[str, Optional[float]], label: str
) -> Dict[str, float]:
    """``capacity@<label> [<system>]`` per system (NaN when none)."""
    return {
        f"capacity@{label} [{name}]": cap if cap is not None else float("nan")
        for name, cap in capacities.items()
    }


def typed_tail_latencies(result: RunResult) -> Dict[str, float]:
    """``type<N>_tail_latency`` for every type of the run's workload."""
    return {
        f"type{tid}_tail_latency": typed_latency_metric(tid)(result)
        for tid in range(result.spec.n_types)
    }
