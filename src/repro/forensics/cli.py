"""``repro-forensics`` — tail forensics over trace exports.

Usage::

    repro-forensics blame run.trace.json                # blame matrices
    repro-forensics blame run.trace.json --pct 99.9 --json
    repro-forensics herding rack.trace.json             # herding verdict
    repro-forensics herding rack.trace.json --fail-on-herding
    repro-forensics collect --store F --trace-dir T     # traces -> registry
    repro-forensics registry F                          # list the store
    repro-forensics diff F system=Persephone system=Shenango
    repro-forensics diff F <run-id-prefix-a> <run-id-prefix-b>
    repro-forensics report F -o observatory.html --bench 'suite-*.json'

Exit codes: 0 clean, 1 gate failure (``--fail-on-herding`` with a
flagged log), 2 usage or data errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..errors import ReproError
from .blame import DEFAULT_PCT, DEFAULT_WARMUP_FRAC, analyze_blame, render_blame
from .collect import collect_directory
from .herding import (
    DEFAULT_BURST_MIN,
    DEFAULT_FLAG_FRACTION,
    detect_herding,
    render_herding,
)
from .registry import RunRegistry, diff_groups, render_diff


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-forensics",
        description="Causal tail forensics for the Persephone reproduction: "
        "blame attribution, rack herding detection, and the cross-run "
        "regression observatory.",
    )
    sub = parser.add_subparsers(dest="command")

    blame = sub.add_parser("blame", help="per-victim blame attribution")
    blame.add_argument("trace", help="trace file (repro-trace native export)")
    blame.add_argument(
        "--pct", type=float, default=DEFAULT_PCT,
        help=f"victim threshold percentile per type (default {DEFAULT_PCT:g})",
    )
    blame.add_argument(
        "--warmup", type=float, default=DEFAULT_WARMUP_FRAC, metavar="FRAC",
        help="fraction of earliest arrivals discarded before picking "
        f"victims, as in the paper's §5.1 (default {DEFAULT_WARMUP_FRAC:g})",
    )
    blame.add_argument("--json", action="store_true", help="machine-readable output")

    herd = sub.add_parser("herding", help="balancer herding detection")
    herd.add_argument("trace", help="rack trace file (carries the route log)")
    herd.add_argument(
        "--burst-min", type=int, default=DEFAULT_BURST_MIN,
        help=f"minimum counted burst length (default {DEFAULT_BURST_MIN})",
    )
    herd.add_argument(
        "--flag-fraction", type=float, default=DEFAULT_FLAG_FRACTION,
        help="herded-decision fraction that trips the flag "
        f"(default {DEFAULT_FLAG_FRACTION:g})",
    )
    herd.add_argument("--json", action="store_true", help="machine-readable output")
    herd.add_argument(
        "--fail-on-herding", action="store_true",
        help="exit 1 when the log is flagged (CI gate)",
    )

    collect = sub.add_parser("collect", help="fold trace exports into a store")
    collect.add_argument("--store", required=True, help="forensics store directory")
    collect.add_argument(
        "--trace-dir", required=True, help="directory of *.trace.json exports"
    )
    collect.add_argument(
        "--experiment", default=None, help="experiment tag for the run records"
    )
    collect.add_argument(
        "--pct", type=float, default=DEFAULT_PCT,
        help=f"victim threshold percentile (default {DEFAULT_PCT:g})",
    )
    collect.add_argument(
        "--warmup", type=float, default=DEFAULT_WARMUP_FRAC, metavar="FRAC",
        help=f"warmup discard fraction (default {DEFAULT_WARMUP_FRAC:g})",
    )

    registry = sub.add_parser("registry", help="list the runs in a store")
    registry.add_argument("store", help="forensics store directory")
    registry.add_argument("--json", action="store_true", help="machine-readable output")

    diff = sub.add_parser("diff", help="compare two run groups")
    diff.add_argument("store", help="forensics store directory")
    diff.add_argument("a", help="baseline selector (run-id prefix or k=v,... filter)")
    diff.add_argument("b", help="candidate selector")
    diff.add_argument(
        "--confidence", type=float, default=0.95,
        help="Student-t confidence level for replicated groups (default 0.95)",
    )
    diff.add_argument(
        "--significant-only", action="store_true",
        help="show only deltas beyond the combined half-widths",
    )
    diff.add_argument("--json", action="store_true", help="machine-readable output")

    report = sub.add_parser("report", help="render the observatory HTML page")
    report.add_argument("store", help="forensics store directory")
    report.add_argument("-o", "--output", required=True, help="HTML file to write")
    report.add_argument(
        "--bench", default=None, metavar="GLOB",
        help="glob of benchmarks/suite/run.py --out results for the "
        "benchmark-trajectory section",
    )
    report.add_argument(
        "--title", default="repro forensics observatory", help="page title"
    )
    return parser


def _cmd_blame(args) -> int:
    from ..trace.export import load_trace

    doc = load_trace(args.trace)
    report = analyze_blame(doc.spans, pct=args.pct, warmup_frac=args.warmup)
    report.verify()
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_blame(report))
    return 0


def _cmd_herding(args) -> int:
    from ..trace.export import load_trace

    doc = load_trace(args.trace)
    report = detect_herding(
        doc.decisions, burst_min=args.burst_min, flag_fraction=args.flag_fraction
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_herding(report, balancer=doc.meta.get("balancer")))
    if args.fail_on_herding and report.flagged:
        return 1
    return 0


def _cmd_collect(args) -> int:
    run_ids = collect_directory(
        args.store, args.trace_dir, experiment=args.experiment,
        pct=args.pct, warmup_frac=args.warmup,
    )
    for run_id in run_ids:
        print(f"registered {run_id}")
    print(f"repro-forensics: {len(run_ids)} run(s) collected into {args.store}")
    return 0


def _cmd_registry(args) -> int:
    registry = RunRegistry(args.store)
    if args.json:
        print(json.dumps(registry.run_ids(), indent=2))
        return 0
    for run_id in registry.run_ids():
        record = registry.load(run_id)
        digests = record.get("digests", {})
        herd = digests.get("herding_flagged")
        herd_text = "n/a" if herd is None else ("HERDING" if herd else "clean")
        print(f"{run_id}  blame={digests.get('blame', '?')[:12]}  herding={herd_text}")
    print(f"repro-forensics: {len(registry.run_ids())} run(s) in {args.store}")
    return 0


def _cmd_diff(args) -> int:
    registry = RunRegistry(args.store)
    group_a = registry.match(args.a)
    group_b = registry.match(args.b)
    diff = diff_groups(group_a, group_b, confidence=args.confidence)
    if args.json:
        print(json.dumps(diff, indent=2, sort_keys=True))
    else:
        print(render_diff(diff, only_significant=args.significant_only))
    return 0


def _cmd_report(args) -> int:
    from .report import write_report

    path = write_report(
        args.output, args.store, bench_glob=args.bench, title=args.title
    )
    print(f"repro-forensics: wrote {path}")
    return 0


_COMMANDS = {
    "blame": _cmd_blame,
    "herding": _cmd_herding,
    "collect": _cmd_collect,
    "registry": _cmd_registry,
    "diff": _cmd_diff,
    "report": _cmd_report,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"repro-forensics: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"repro-forensics: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
