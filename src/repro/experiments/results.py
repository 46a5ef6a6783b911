"""Shared result containers for figure/table drivers.

A :class:`FigureResult` holds, per system, an ordered load sweep of
:class:`~repro.experiments.common.RunResult` plus figure-specific derived
numbers, and renders itself as the text analogue of the paper's plot.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from ..sweep.stats import CIStat, capacity_at_slo, mean_ci
from .common import MetricFn, RunResult, run_replicated_sweep, run_sweep
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


def collect_sweep(
    result: FigureResult,
    system,
    spec,
    utilizations: Sequence[float],
    experiment: str,
    workload: Optional[str] = None,
    n_requests: int = 60_000,
    seed: int = 1,
    seeds: Optional[Sequence[int]] = None,
    sanitize: "bool | str" = False,
    trace_dir: Optional[str] = None,
    metrics_dir: Optional[str] = None,
) -> None:
    """Run one system's sweep into ``result``, single- or multi-seed.

    Without ``seeds`` this is the legacy path: one raw-seed sweep, byte-
    identical to what the drivers have always produced.  With ``seeds``
    every load point is replicated under the *derived* per-cell seeds
    (:func:`repro.experiments.common.run_replicated_sweep`), matching
    the pooled ``repro-sweep`` cells for ``experiment``/``workload``.
    """
    if seeds is None:
        result.add_sweep(
            system.name,
            run_sweep(
                system, spec, utilizations, n_requests=n_requests,
                sanitize=sanitize, trace_dir=trace_dir,
                metrics_dir=metrics_dir, seed=seed,
            ),
        )
        return
    result.add_replicated(
        system.name,
        run_replicated_sweep(
            system, spec, utilizations, seeds, experiment=experiment,
            workload=workload, n_requests=n_requests, sanitize=sanitize,
            trace_dir=trace_dir, metrics_dir=metrics_dir,
        ),
    )
