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
        if spec.kind in ("load_sweep", "reserved_grid"):
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


def merge_results(
    experiment: str,
    results: Sequence[CellResult],
    confidence: float = 0.95,
) -> MergedSweep:
    """Aggregate executed cells into one :class:`MergedSweep`."""
    spec = experiment_spec(experiment)
    groups: List[GroupStat] = []
    for params, replicates in _group_results(results):
        replicates = sorted(replicates, key=lambda r: r.replicate)
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
    capacities = _capacities(spec, groups)
    findings = _findings(spec, capacities)
    findings.update(_rack_findings(spec, groups))
    return MergedSweep(
        experiment=experiment,
        confidence=confidence,
        n_cells=len(results),
        groups=tuple(groups),
        capacities=capacities,
        findings=findings,
    )


def _capacities(
    spec: ExperimentSpec, groups: Sequence[GroupStat]
) -> Dict[str, Optional[float]]:
    """Per (workload, system) capacity from replicate-mean metrics, by
    :func:`~repro.sweep.stats.capacity_at_slo` at the workload's SLO."""
    if spec.kind != "load_sweep" or not spec.slo:
        return {}
    capacities: Dict[str, Optional[float]] = {}
    pairs = sorted(
        {
            (g.params_dict.get("workload"), g.params_dict.get("system"))
            for g in groups
        }
    )
    for workload, system in pairs:
        slo = spec.slo.get(workload)
        if slo is None:
            continue
        points = []
        for g in groups:
            p = g.params_dict
            if p.get("workload") != workload or p.get("system") != system:
                continue
            drops = g.metric("drop_rate")
            points.append(
                (
                    float(p.get("rho", float("nan"))),
                    g.metric(spec.capacity_metric),
                    bool(drops.n and drops.mean > 0),
                )
            )
        capacities[f"capacity@{slo:g} [{workload}/{system}]"] = capacity_at_slo(
            points, slo
        )
    return capacities


def _rack_findings(
    spec: ExperimentSpec, groups: Sequence[GroupStat]
) -> Dict[str, float]:
    """Rack headline: DARC-vs-baseline tail slowdown, per balancer.

    Mirrors :func:`repro.experiments.rack._findings` — at the highest
    swept load point, the ratio of each baseline's mean tail slowdown
    (``spec.capacity_metric``) to Persephone's, computed separately for
    every balancer so the two-level composition's effect is visible.
    """
    if spec.kind != "rack":
        return {}
    metric = spec.capacity_metric
    rhos = sorted(
        {
            g.params_dict["rho"]
            for g in groups
            if g.params_dict.get("rho") is not None
        }
    )
    if not rhos:
        return {}
    rho = rhos[-1]
    findings: Dict[str, float] = {}
    balancers: List[str] = []
    for g in groups:
        b = g.params_dict.get("balancer")
        if b is not None and b not in balancers:
            balancers.append(b)
    for balancer in balancers:
        by_system: Dict[str, float] = {}
        for g in groups:
            p = g.params_dict
            if p.get("balancer") != balancer or p.get("rho") != rho:
                continue
            stat = g.metric(metric)
            if stat.n and stat.mean == stat.mean:
                by_system[p.get("system")] = stat.mean
        darc = by_system.get("Persephone")
        if not darc or darc <= 0:
            continue
        for system, value in sorted(by_system.items()):
            if system == "Persephone":
                continue
            findings[f"DARC vs {system} slowdown [{balancer}] @{rho:g}"] = (
                value / darc
            )
    return findings


def _findings(
    spec: ExperimentSpec, capacities: Mapping[str, Optional[float]]
) -> Dict[str, float]:
    """Headline ratios: DARC (Persephone) capacity vs each baseline."""
    findings: Dict[str, float] = {}
    by_pair: Dict[Tuple[str, str], float] = {}
    for key, cap in capacities.items():
        if cap is None or "[" not in key:
            continue
        inside = key[key.index("[") + 1 : key.rindex("]")]
        workload, _, system = inside.partition("/")
        by_pair[(workload, system)] = cap
    for (workload, system), cap in sorted(by_pair.items()):
        darc = by_pair.get((workload, "Persephone"))
        if system == "Persephone" or darc is None or cap == 0:
            continue
        findings[f"DARC vs {system} capacity [{workload}]"] = darc / cap
    return findings
