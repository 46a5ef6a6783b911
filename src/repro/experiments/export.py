"""Result export: figures and summaries as CSV / plain dicts.

Experiment drivers return rich Python objects; these helpers flatten
them for spreadsheets, plotting scripts, and archival alongside
EXPERIMENTS.md.  No third-party dependencies — the CSV dialect is plain
comma-separated with a header row.
"""

from __future__ import annotations

import io
from typing import Dict, List, Optional, TextIO

from ..metrics.summary import RunSummary
from .common import MetricFn, RunResult, overall_slowdown_metric
from .results import FigureResult


def summary_to_dict(summary: RunSummary) -> Dict[str, object]:
    """Flatten a RunSummary into JSON-able scalars."""
    out: Dict[str, object] = {
        "completed": summary.completed,
        "dropped": summary.dropped,
        "drop_rate": summary.drop_rate,
        "throughput_mrps": summary.throughput,
        "tail_pct": summary.pct,
        "overall_tail_slowdown": summary.overall_tail_slowdown,
        "overall_tail_latency_us": summary.overall_tail_latency,
        "overall_mean_latency_us": summary.overall_mean_latency,
    }
    for tid, ts in sorted(summary.per_type.items()):
        prefix = f"type{tid}_{ts.name}"
        out[f"{prefix}_count"] = ts.count
        out[f"{prefix}_tail_latency_us"] = ts.tail_latency
        out[f"{prefix}_tail_slowdown"] = ts.tail_slowdown
        out[f"{prefix}_mean_latency_us"] = ts.mean_latency
    return out


def result_to_dict(result: RunResult) -> Dict[str, object]:
    """Flatten a RunResult (run metadata + its summary)."""
    out: Dict[str, object] = {
        "system": result.system_name,
        "workload": result.spec.name,
        "utilization": result.utilization,
        "offered_rate_mrps": result.offered_rate,
        "mean_worker_utilization": result.util_report.mean_utilization,
        "idle_cores": result.util_report.idle_cores,
    }
    out.update(summary_to_dict(result.summary))
    return out


def rack_result_to_dict(system_name: str, result) -> Dict[str, object]:
    """Flatten a :class:`~repro.rack.rack.RackResult` (its metadata, the
    replicas' system, and its rack-wide summary)."""
    out: Dict[str, object] = {
        "system": system_name,
        "balancer": result.balancer_name,
        "workload": result.spec.name,
        "utilization": result.utilization,
        "n_servers": result.n_servers,
        "load_imbalance": result.load_imbalance(),
    }
    out.update(summary_to_dict(result.summary))
    return out


def _write_csv(fp: TextIO, rows: List[Dict[str, object]]) -> None:
    if not rows:
        return
    # Union of keys, first-row order first (stable, readable columns).
    columns: List[str] = list(rows[0].keys())
    for row in rows[1:]:
        for key in row:
            if key not in columns:
                columns.append(key)
    fp.write(",".join(columns) + "\n")
    for row in rows:
        cells = []
        for col in columns:
            value = row.get(col, "")
            if isinstance(value, float):
                cells.append(repr(value))
            else:
                cells.append(str(value))
        fp.write(",".join(cells) + "\n")


def figure_to_csv(
    figure: FigureResult,
    fp: Optional[TextIO] = None,
    metric: MetricFn = overall_slowdown_metric,
) -> str:
    """Write one row per (system, load point) with the full flat summary.
    A rack figure's points are rack results, one row each.

    Returns the CSV text (also written to ``fp`` when given).
    """
    rows: List[Dict[str, object]] = []
    for system_name, sweep in figure.sweeps.items():
        for result in sweep:
            if isinstance(result, RunResult):
                row = result_to_dict(result)
            else:
                row = rack_result_to_dict(system_name, result)
            row["figure"] = figure.name
            row["metric"] = metric(result)
            rows.append(row)
    buf = io.StringIO()
    _write_csv(buf, rows)
    text = buf.getvalue()
    if fp is not None:
        fp.write(text)
    return text


def findings_to_csv(figure: FigureResult, fp: Optional[TextIO] = None) -> str:
    """The figure's derived findings as two-column CSV."""
    buf = io.StringIO()
    buf.write("finding,value\n")
    for key, value in figure.findings.items():
        shown = repr(value) if isinstance(value, float) else str(value)
        buf.write(f"\"{key}\",{shown}\n")
    text = buf.getvalue()
    if fp is not None:
        fp.write(text)
    return text
