"""The forensics observatory report: one self-contained HTML page.

Renders a registry store as a static, no-JS page (same philosophy as
the telemetry dashboard): the run table, per-run blame matrices
(victim-type rows × blocker columns, shaded by share), herding verdicts
with an inline-SVG burst timeline per rack run, and — when the caller
points it at benchmark-suite results (``benchmarks/suite/run.py
--out``) — each workload's throughput and per-layer cost, so one
artifact answers "what got slower, who blocked whom, and did the
balancer herd" at a glance.
"""

from __future__ import annotations

import glob
import json
import os
from html import escape
from typing import Any, Dict, List, Optional, Sequence

from ..errors import ForensicsError
from .registry import RunRegistry

#: The suite's end-to-end metrics, listed first for every workload.
_SUITE_END_TO_END = ("sim_rps", "setup_s", "peak_rss_mb")

_CSS = """
body { font-family: ui-monospace, Menlo, Consolas, monospace;
       margin: 2em; color: #1b1f24; }
h1, h2, h3 { font-weight: 600; }
table { border-collapse: collapse; margin: 0.8em 0 1.6em; }
th, td { border: 1px solid #d0d7de; padding: 0.25em 0.7em;
         text-align: right; font-size: 13px; }
th { background: #f6f8fa; text-align: center; }
td.label { text-align: left; background: #f6f8fa; }
.flag { color: #b30000; font-weight: 700; }
.ok { color: #0a6e31; }
.meta { color: #57606a; font-size: 12px; }
svg { border: 1px solid #d0d7de; background: #fff; }
"""

#: Replica stripe colors for the herding timeline (cycled).
_COLORS = (
    "#4c78a8", "#f58518", "#54a24b", "#e45756",
    "#72b7b2", "#b279a2", "#9d755d", "#bab0ac",
)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return escape(str(value))


def _shade(share: float) -> str:
    """Background shading for a blame cell by its share of the wait."""
    alpha = max(0.0, min(1.0, share))
    return f"background: rgba(214, 39, 40, {alpha * 0.65:.3f});"


def _blame_table(blame: Dict[str, Any]) -> List[str]:
    hol = blame.get("hol_us", {})
    preempt = blame.get("preempt_us", {})
    pipeline = blame.get("pipeline_us", {})
    victim_types = sorted(set(hol) | set(preempt), key=str)
    blockers: List[str] = sorted(
        {k for row in list(hol.values()) + list(preempt.values()) for k in row},
        key=str,
    )
    parts = ["<table><tr><th>victim \\ blocker</th>"]
    parts.extend(f"<th>{escape(b)}</th>" for b in blockers)
    parts.append("<th>pipeline</th></tr>")
    for vt in victim_types:
        row_hol = hol.get(vt, {})
        row_pre = preempt.get(vt, {})
        total = sum(row_hol.values()) + sum(row_pre.values())
        parts.append(f"<tr><td class='label'>type {escape(vt)}</td>")
        for b in blockers:
            cell = row_hol.get(b, 0.0) + row_pre.get(b, 0.0)
            share = cell / total if total > 0 else 0.0
            parts.append(
                f"<td style='{_shade(share)}' title='share {share * 100:.1f}%'>"
                f"{cell:.1f}</td>"
            )
        parts.append(f"<td>{pipeline.get(vt, 0.0):.1f}</td></tr>")
    parts.append("</table>")
    return parts


def _herding_svg(herding: Dict[str, Any], width: int = 720, height: int = 60) -> str:
    """Burst timeline: one colored rect per burst, x = virtual time."""
    bursts = herding.get("bursts", [])
    if not bursts:
        return ""
    t0 = min(b[0] for b in bursts)
    t1 = max(b[1] for b in bursts)
    span = max(t1 - t0, 1e-9)
    parts = [f"<svg width='{width}' height='{height}'>"]
    for start, end, replica, length, _stale in bursts:
        x = (start - t0) / span * (width - 2) + 1
        w = max((end - start) / span * (width - 2), 1.0)
        color = _COLORS[int(replica) % len(_COLORS)]
        parts.append(
            f"<rect x='{x:.1f}' y='8' width='{w:.1f}' height='{height - 16}' "
            f"fill='{color}'><title>replica {replica} x{length} "
            f"[{start:.0f}..{end:.0f}us]</title></rect>"
        )
    parts.append("</svg>")
    return "".join(parts)


def _bench_tables(bench_paths: Sequence[str]) -> List[str]:
    """One table per suite results file: each workload's end-to-end
    metrics and each layer's self time per request, median [q1, q3]."""
    parts: List[str] = ["<h2>Benchmark trajectory</h2>"]
    for path in bench_paths:
        try:
            with open(path) as fp:
                doc = json.load(fp)
        except (OSError, json.JSONDecodeError) as exc:
            raise ForensicsError(f"cannot read benchmark results {path}: {exc}") from exc
        workloads = doc.get("workloads") if isinstance(doc, dict) else None
        if not isinstance(workloads, dict):
            raise ForensicsError(
                f"{path} is not a benchmarks/suite/run.py --out document"
            )
        parts.append(f"<h3>{escape(os.path.basename(path))}</h3><table>")
        parts.append(
            "<tr><th>workload</th><th>metric</th><th>median</th>"
            "<th>[q1, q3]</th><th>unit</th></tr>"
        )
        for name in sorted(workloads):
            end_to_end = workloads[name].get("end_to_end", {})
            layers = workloads[name].get("per_layer", {})
            rows = [(m, end_to_end[m]) for m in _SUITE_END_TO_END if m in end_to_end]
            rows += [(m, v) for m, v in layers.items() if m.endswith(".self_us_per_req")]
            for metric, stat in rows:
                parts.append(
                    f"<tr><td class='label'>{escape(name)}</td>"
                    f"<td class='label'>{escape(metric)}</td>"
                    f"<td>{stat['median']:.6g}</td>"
                    f"<td>[{stat['q1']:.6g}, {stat['q3']:.6g}]</td>"
                    f"<td class='label'>{escape(stat['unit'])}</td></tr>"
                )
        parts.append("</table>")
    return parts


def observatory_html(
    registry: RunRegistry,
    bench_glob: Optional[str] = None,
    title: str = "repro forensics observatory",
) -> str:
    """Render the whole store as one self-contained HTML page."""
    records = [registry.load(run_id) for run_id in registry.run_ids()]
    parts = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'>",
        f"<title>{escape(title)}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>{escape(title)}</h1>",
        f"<p class='meta'>{len(records)} run(s) in {escape(registry.root)}</p>",
    ]

    # -- run table ------------------------------------------------------
    parts.append(
        "<h2>Runs</h2><table><tr><th>run</th><th>completed</th>"
        "<th>dropped</th><th>p99.9 latency (us)</th><th>p99.9 slowdown</th>"
        "<th>victims</th><th>herding</th></tr>"
    )
    for record in records:
        summary = record.get("summary", {})
        overall = summary.get("overall", {})
        herding = record.get("herding")
        if herding is None:
            verdict = "<td>n/a</td>"
        elif herding.get("flagged"):
            verdict = "<td class='flag'>HERDING</td>"
        else:
            verdict = "<td class='ok'>clean</td>"
        parts.append(
            f"<tr><td class='label'>{escape(record['run_id'])}</td>"
            f"<td>{summary.get('completed', 0)}</td>"
            f"<td>{summary.get('dropped', 0)}</td>"
            f"<td>{_fmt(overall.get('tail_latency_us', ''))}</td>"
            f"<td>{_fmt(overall.get('tail_slowdown', ''))}</td>"
            f"<td>{record.get('blame', {}).get('reconciliation', {}).get('n_victims', 0)}</td>"
            f"{verdict}</tr>"
        )
    parts.append("</table>")

    # -- per-run blame + herding ---------------------------------------
    for record in records:
        parts.append(f"<h2>{escape(record['run_id'])}</h2>")
        meta = record.get("meta", {})
        parts.append(
            "<p class='meta'>"
            + escape(", ".join(f"{k}={meta[k]}" for k in sorted(meta, key=str)))
            + "</p>"
        )
        parts.append("<h3>Blame matrix (HOL + preempt interference, us)</h3>")
        parts.extend(_blame_table(record.get("blame", {})))
        herding = record.get("herding")
        if herding is not None:
            verdict = "HERDING" if herding.get("flagged") else "no herding"
            cls = "flag" if herding.get("flagged") else "ok"
            parts.append(
                f"<h3>Herding: <span class='{cls}'>{verdict}</span> "
                f"(fraction {herding.get('herding_fraction', 0.0) * 100:.1f}%, "
                f"max burst {herding.get('max_burst', 0)}, "
                f"stale {herding.get('stale_fraction', 0.0) * 100:.1f}%)</h3>"
            )
            parts.append(_herding_svg(herding))

    # -- bench trajectory ----------------------------------------------
    if bench_glob:
        bench_paths = sorted(glob.glob(bench_glob))
        if bench_paths:
            parts.extend(_bench_tables(bench_paths))

    parts.append("</body></html>")
    return "\n".join(parts)


def write_report(
    path: str,
    store: str,
    bench_glob: Optional[str] = None,
    title: str = "repro forensics observatory",
) -> str:
    """Render the store at ``store`` into an HTML file at ``path``."""
    registry = RunRegistry(store)
    with open(path, "w") as fp:
        fp.write(observatory_html(registry, bench_glob=bench_glob, title=title))
    return path
