"""Merge executed cells into replicated, confidence-intervalled output.

Aggregation here is a **pure function** of the cell results: grouping is
by parameter binding, statistics come from :mod:`repro.sweep.stats`, and
nothing reads the clock, the pid, or an RNG — the observer-purity
contract (analyzer A301) is enforced over this package, so a merged
document depends only on the cells that went in, never on how or
when they were executed.

Grouping model: cells that differ only in ``replicate`` are replicates
of one *group* (grid point).  Each group gets a per-metric
:class:`~repro.sweep.stats.CIStat`; groups that differ only in the
``system`` parameter are then comparable at matched load — they shared a
seed by construction (see :data:`repro.sweep.cells.PAIRED_KEYS`), so
system deltas are paired comparisons, not independent samples.
Capacities and findings come from the experiment's own spec, over an
:class:`Outcomes` view the serial drivers build too.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from ..experiments.tables import render_table
from .cells import CellResult
from .planner import ExperimentSpec, experiment_spec
from .stats import CIStat, capacity_at_slo, mean_ci


class GroupStat(NamedTuple):
    """One grid point's replicated statistics."""

    experiment: str
    params: Tuple[Tuple[str, Any], ...]
    #: replicate token -> outcome digest (determinism evidence).
    digests: Tuple[Tuple[int, str], ...]
    #: metric name -> CI over replicates.
    metrics: Dict[str, CIStat]

    @property
    def params_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    @property
    def n_replicates(self) -> int:
        return len(self.digests)

    def metric(self, name: str) -> CIStat:
        return self.metrics.get(
            name, mean_ci(())
        )


class MergedSweep(NamedTuple):
    """The aggregated output of one sweep."""

    experiment: str
    confidence: float
    n_cells: int
    groups: Tuple[GroupStat, ...]
    #: "(workload, system)" -> capacity utilization (or None).
    capacities: Dict[str, Optional[float]]
    findings: Dict[str, float]

    def to_doc(self) -> Dict[str, Any]:
        return {
            "kind": "repro-sweep-merged",
            "version": 1,
            "experiment": self.experiment,
            "confidence": self.confidence,
            "n_cells": self.n_cells,
            "groups": [
                {
                    "params": g.params_dict,
                    "replicates": g.n_replicates,
                    "digests": {str(r): d for r, d in g.digests},
                    "metrics": {
                        name: {
                            "n": stat.n,
                            "mean": stat.mean,
                            "std": stat.std,
                            "half_width": stat.half_width,
                            "low": stat.low,
                            "high": stat.high,
                        }
                        for name, stat in sorted(g.metrics.items())
                    },
                }
                for g in self.groups
            ],
            "capacities": dict(self.capacities),
            "findings": dict(self.findings),
        }

    def render(self) -> str:
        spec = experiment_spec(self.experiment)
        parts: List[str] = []
        if spec.kind == "load_sweep":
            parts.extend(self._render_load_tables(spec))
        else:
            parts.append(self._render_generic_table(spec))
        if self.capacities:
            lines = [f"{self.experiment}: capacities (mean over replicates)"]
            for key, cap in sorted(self.capacities.items()):
                shown = "-" if cap is None else f"{cap:.2f}"
                lines.append(f"  {key} = {shown}")
            parts.append("\n".join(lines))
        if self.findings:
            lines = [f"{self.experiment}: findings"]
            for key, value in sorted(self.findings.items()):
                lines.append(f"  {key} = {value:.2f}")
            parts.append("\n".join(lines))
        return "\n\n".join(p for p in parts if p)

    def _workloads(self) -> List[str]:
        seen: List[str] = []
        for group in self.groups:
            w = group.params_dict.get("workload", "")
            if w not in seen:
                seen.append(w)
        return seen

    def _render_load_tables(self, spec: ExperimentSpec) -> List[str]:
        parts: List[str] = []
        metric = spec.capacity_metric
        for workload in self._workloads():
            groups = [
                g for g in self.groups if g.params_dict.get("workload") == workload
            ]
            systems: List[str] = []
            rhos: List[float] = []
            for g in groups:
                p = g.params_dict
                if p.get("system") not in systems:
                    systems.append(p.get("system"))
                if p.get("rho") not in rhos:
                    rhos.append(p.get("rho"))
            rhos.sort()
            by_point = {
                (g.params_dict.get("system"), g.params_dict.get("rho")): g
                for g in groups
            }
            rows = []
            for rho in rhos:
                row: List[Any] = [rho]
                for system in systems:
                    g = by_point.get((system, rho))
                    row.append(g.metric(metric).format() if g else "-")
                rows.append(row)
            n_rep = max((g.n_replicates for g in groups), default=0)
            ci_note = (
                f", mean±{self.confidence:.0%} CI over {n_rep} seeds"
                if n_rep > 1
                else ""
            )
            parts.append(
                render_table(
                    ["load"] + systems,
                    rows,
                    precision=2,
                    title=(
                        f"{self.experiment} [{workload}]: {metric}{ci_note}"
                    ),
                )
            )
        return parts

    def _render_generic_table(self, spec: ExperimentSpec) -> str:
        metrics = [
            m
            for m in spec.table_metrics
            if any(m in g.metrics for g in self.groups)
        ]
        rows = []
        for group in self.groups:
            label = " ".join(
                f"{k}={v}"
                for k, v in group.params
                if k not in ("n_requests",)
            )
            rows.append([label] + [group.metric(m).format() for m in metrics])
        n_rep = max((g.n_replicates for g in self.groups), default=0)
        ci_note = (
            f" (mean±{self.confidence:.0%} CI over {n_rep} seeds)"
            if n_rep > 1
            else ""
        )
        return render_table(
            ["cell"] + metrics,
            rows,
            precision=2,
            title=f"{self.experiment}: replicated metrics{ci_note}",
        )


def _group_results(
    results: Sequence[CellResult],
) -> List[Tuple[Tuple[Tuple[str, Any], ...], List[CellResult]]]:
    """Group by parameter binding, preserving first-seen order."""
    order: List[Tuple[Tuple[str, Any], ...]] = []
    grouped: Dict[Tuple[Tuple[str, Any], ...], List[CellResult]] = {}
    for result in results:
        key = result.params
        if key not in grouped:
            grouped[key] = []
            order.append(key)
        grouped[key].append(result)
    return [(key, grouped[key]) for key in order]


class Outcomes:
    """Per-replicate cell metrics of one experiment, by grid point.

    The one input of every figure's findings function: a serial driver
    builds it from its in-process runs, :func:`merge_results` from
    executed cells, so both state each fact from the same code.
    ``rows`` are ``(params, replicate, metrics)`` per cell, replicates of
    one point in replicate order (the first is what "first replicate"
    findings read).
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        rows: Sequence[Tuple[Mapping[str, Any], int, Mapping[str, float]]],
    ):
        self.spec = spec
        self._rows = [(dict(p), int(r), dict(m)) for p, r, m in rows]

    def _select(self, where: Mapping[str, Any]) -> List[Tuple[Dict, int, Dict]]:
        return [
            row for row in self._rows
            if all(row[0].get(k) == v for k, v in where.items())
        ]

    def values(self, key: str, **where: Any) -> List[Any]:
        """Distinct values of parameter ``key``, in first-seen order."""
        seen: List[Any] = []
        for params, _, _ in self._select(where):
            if key in params and params[key] not in seen:
                seen.append(params[key])
        return seen

    def rhos(self, **where: Any) -> List[float]:
        """The load points, ascending."""
        return sorted(self.values("rho", **where))

    @property
    def n_replicates(self) -> int:
        return len({replicate for _, replicate, _ in self._rows})

    def samples(self, metric: str, **where: Any) -> List[float]:
        """``metric`` per replicate of the matching point (NaN if absent)."""
        return [m.get(metric, float("nan")) for _, _, m in self._select(where)]

    def stat(self, metric: str, **where: Any) -> CIStat:
        return mean_ci(self.samples(metric, **where))

    def mean(self, metric: str, **where: Any) -> float:
        return self.stat(metric, **where).mean

    def first(self, metric: str, **where: Any) -> float:
        """``metric`` of the first replicate (NaN if absent)."""
        samples = self.samples(metric, **where)
        return samples[0] if samples else float("nan")

    def capacities(self, workload: str) -> Dict[str, Optional[float]]:
        """Per-system capacity at the workload's SLO, in system order, by
        :func:`~repro.sweep.stats.capacity_at_slo`: a point qualifies on
        its replicate-mean metric, and a drop in any replicate rules it
        out."""
        capacities: Dict[str, Optional[float]] = {}
        for system in self.values("system", workload=workload):
            points = []
            for rho in self.rhos(workload=workload, system=system):
                where = dict(workload=workload, system=system, rho=rho)
                dropped = any(d > 0 for d in self.samples("drop_rate", **where))
                points.append(
                    (rho, self.stat(self.spec.capacity_metric, **where), dropped)
                )
            capacities[system] = capacity_at_slo(points, self.spec.slo[workload])
        return capacities


def merge_results(
    experiment: str,
    results: Sequence[CellResult],
    confidence: float = 0.95,
) -> MergedSweep:
    """Aggregate executed cells into one :class:`MergedSweep`."""
    spec = experiment_spec(experiment)
    groups: List[GroupStat] = []
    rows = []
    for params, replicates in _group_results(results):
        replicates = sorted(replicates, key=lambda r: r.replicate)
        rows.extend((params, r.replicate, r.metrics_dict) for r in replicates)
        names = sorted({name for r in replicates for name in r.metrics_dict})
        metrics = {
            name: mean_ci(
                [r.metrics_dict.get(name, float("nan")) for r in replicates],
                confidence=confidence,
            )
            for name in names
        }
        groups.append(
            GroupStat(
                experiment=experiment,
                params=params,
                digests=tuple((r.replicate, r.digest) for r in replicates),
                metrics=metrics,
            )
        )
    outcomes = Outcomes(spec, rows)
    capacities: Dict[str, Optional[float]] = {}
    if spec.kind == "load_sweep":
        for workload in outcomes.values("workload"):
            if workload in spec.slo:
                slo = spec.slo[workload]
                for system, cap in outcomes.capacities(workload).items():
                    capacities[f"capacity@{slo:g} [{workload}/{system}]"] = cap
    findings: Dict[str, float] = {}
    if spec.findings is not None:
        for section, facts in spec.findings(outcomes).items():
            for key, value in facts.items():
                # Capacities are merged output's own section.
                if not key.startswith("capacity@"):
                    findings[f"{key} [{section}]" if section else key] = value
    return MergedSweep(
        experiment=experiment,
        confidence=confidence,
        n_cells=len(results),
        groups=tuple(groups),
        capacities=capacities,
        findings=findings,
    )
