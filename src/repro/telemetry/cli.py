"""``repro-metrics`` — inspect, convert and diff telemetry artifacts.

Usage::

    repro-metrics summary run.metrics.jsonl       # final values + recon
    repro-metrics export run.metrics.jsonl out.prom
    repro-metrics dashboard run.metrics.jsonl out.html
    repro-metrics compare a.metrics.jsonl b.metrics.jsonl --tolerance 0.1

The simulator's own speed is measured by ``benchmarks/suite/run.py``,
not here.

Exit codes: 0 ok, 1 reconciliation / drift failure, 2 usage or parse
errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from ..errors import TelemetryError
from .export import dashboard_html, prometheus_text, read_metrics


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-metrics",
        description="Virtual-time metrics for the Persephone reproduction: "
        "summarize, re-export, render and diff.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summary", help="print a metrics digest")
    p.add_argument("path", help="metrics JSONL written with --metrics")
    p.add_argument(
        "--family", action="append", default=None,
        help="only show series of this family (repeatable)",
    )

    p = sub.add_parser("export", help="re-export the final registry as "
                       "Prometheus text")
    p.add_argument("path")
    p.add_argument("out", help="output .prom path")

    p = sub.add_parser("dashboard", help="re-render the static HTML dashboard")
    p.add_argument("path")
    p.add_argument("out", help="output .html path")

    p = sub.add_parser("compare", help="diff two runs' metrics and flag drift")
    p.add_argument("a", help="baseline metrics JSONL")
    p.add_argument("b", help="candidate metrics JSONL")
    p.add_argument(
        "--tolerance", type=float, default=0.0,
        help="relative drift allowed per series (0 = exact)",
    )
    p.add_argument(
        "--counters-only", action="store_true",
        help="compare monotonic counter series only (gauges are "
        "load-dependent snapshots)",
    )

    return parser


def _fmt_counters(counters: dict) -> str:
    return ", ".join(f"{key}={value}" for key, value in counters.items())


def cmd_summary(args: argparse.Namespace) -> int:
    doc = read_metrics(args.path)
    lines = [f"metrics: {args.path}"]
    if doc.meta:
        lines.append("meta: " + _fmt_counters(doc.meta))
    span = doc.timeline.times[-1] if doc.timeline.times else 0.0
    lines.append(
        f"scrapes: {doc.timeline.n_scrapes} over {span:.0f} us virtual, "
        f"{len(doc.timeline.series)} series"
    )
    if doc.counters:
        lines.append("push counters: " + _fmt_counters(doc.counters))
    wanted = set(args.family) if args.family else None
    lines.append("final values:")
    for key, track in doc.timeline.series.items():
        if wanted is not None and track.family not in wanted:
            continue
        if track.last_value is not None:
            lines.append(f"  {key} = {track.last_value:g}")
    status = 0
    if doc.reconciliation is not None:
        verdict = "OK" if doc.reconciliation.get("ok") else "MISMATCH"
        lines.append(f"telemetry/recorder reconciliation: {verdict}")
        if not doc.reconciliation.get("ok"):
            lines.append("  " + _fmt_counters(doc.reconciliation))
            status = 1
    print("\n".join(lines))
    return status


def cmd_export(args: argparse.Namespace) -> int:
    doc = read_metrics(args.path)
    if doc.registry is None:
        print("error: no registry dump in this metrics file", file=sys.stderr)
        return 2
    with open(args.out, "w") as fp:
        fp.write(prometheus_text(doc.registry))
    print(f"wrote {args.out}: {len(doc.registry)} series")
    return 0


def cmd_dashboard(args: argparse.Namespace) -> int:
    doc = read_metrics(args.path)
    with open(args.out, "w") as fp:
        fp.write(dashboard_html(doc.timeline, meta=doc.meta))
    print(
        f"wrote {args.out}: {len(doc.timeline.series)} series over "
        f"{doc.timeline.n_scrapes} scrapes"
    )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    doc_a = read_metrics(args.a)
    doc_b = read_metrics(args.b)
    final_a = doc_a.timeline.final_values()
    final_b = doc_b.timeline.final_values()
    counter_families: Dict[str, bool] = {}
    if args.counters_only:
        for doc in (doc_a, doc_b):
            if doc.registry is None:
                print(
                    "error: --counters-only needs registry dumps in both files",
                    file=sys.stderr,
                )
                return 2
            for name, kind, _help, _series in doc.registry.families():
                counter_families[name] = kind == "counter"

    def keep(doc, key: str) -> bool:
        if not args.counters_only:
            return True
        family = doc.timeline.series[key].family
        return counter_families.get(family, False)

    drift: List[str] = []
    for key in sorted(set(final_a) | set(final_b)):
        in_a, in_b = key in final_a, key in final_b
        if not in_a:
            if keep(doc_b, key):
                drift.append(f"only in {args.b}: {key} = {final_b[key]:g}")
            continue
        if not in_b:
            if keep(doc_a, key):
                drift.append(f"only in {args.a}: {key} = {final_a[key]:g}")
            continue
        if not keep(doc_a, key):
            continue
        va, vb = final_a[key], final_b[key]
        if va == vb:
            continue
        denom = max(abs(va), abs(vb))
        rel = abs(vb - va) / denom if denom else 0.0
        if rel > args.tolerance:
            drift.append(f"{key}: {va:g} -> {vb:g} (drift {rel:.1%})")
    common = len(set(final_a) & set(final_b))
    print(
        f"compared {common} common series "
        f"({len(final_a)} in a, {len(final_b)} in b), "
        f"tolerance {args.tolerance:.1%}"
    )
    if drift:
        for line in drift:
            print("  " + line)
        print(f"DRIFT: {len(drift)} series differ")
        return 1
    print("OK: no metric drift")
    return 0


_COMMANDS = {
    "summary": cmd_summary,
    "export": cmd_export,
    "dashboard": cmd_dashboard,
    "compare": cmd_compare,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except TelemetryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
