"""``repro-analyze`` — the whole-program static analyzer CLI.

Usage::

    repro-analyze scan src/repro                      # full scan, text output
    repro-analyze scan src/repro --format json        # machine-readable
    repro-analyze scan src/repro --sarif out.sarif    # also write SARIF 2.1.0
    repro-analyze scan src/repro --baseline analyze-baseline.json
                                                      # gate: new findings fail
    repro-analyze scan src/repro --purity-audit       # + sanctioned-impurity
                                                      # ledger (A301)
    repro-analyze baseline src/repro -o analyze-baseline.json
                                                      # (re)write the baseline
    repro-analyze diff src/repro --baseline analyze-baseline.json
                                                      # show new + resolved
    repro-analyze sarif src/repro -o out.sarif        # SARIF only
    repro-analyze hotpath src/repro --profile spans.jsonl
                                                      # A401-A406 only,
                                                      # cost-ranked output
                                                      # (suite run.py --spans)
    repro-analyze units src/repro --strict            # A501-A505 only
    repro-analyze forksafety src/repro --strict       # A601-A604 only
    repro-analyze selfcheck                           # scan this package's
                                                      # own source tree
    repro-analyze list-rules                          # finding catalogue
    repro-analyze determinism --sanitize --n-requests 12000
                                                      # twice-run same-seed
                                                      # digest check
    repro-analyze determinism --chaos                 # + fault-injected runs

Exit codes: 0 clean, 1 gate failure (unbaselined findings / severity
errors / any finding with ``--strict``) or a determinism mismatch, 2
usage or internal errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

from ..errors import ReproError
from .baseline import diff_baseline, load_baseline, write_baseline
from .findings import ANALYSIS_RULES, AnalysisFinding
from .hotpath import load_profile, rank_findings, unmatched_spans
from .model import build_program, iter_python_files
from .runner import analyze_paths, analyze_program, has_errors
from .sarif import sarif_text

#: The rule ids the ``hotpath`` subcommand restricts itself to.
HOTPATH_SELECT = ["A000", "A401", "A402", "A403", "A404", "A405", "A406"]

#: The rule ids the ``units`` subcommand restricts itself to.
UNITS_SELECT = ["A000", "A501", "A502", "A503", "A504", "A505"]

#: The rule ids the ``forksafety`` subcommand restricts itself to.
FORKSAFETY_SELECT = ["A000", "A601", "A602", "A603", "A604"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-analyze",
        description="Static analyzer for the Persephone reproduction: "
        "simulated-time races, RNG-stream escapes, contract violations, "
        "observer purity, hot paths, units, fork safety and single-module "
        "determinism rules, plus the twice-run same-seed digest check.",
    )
    sub = parser.add_subparsers(dest="command")

    def add_scan_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("paths", nargs="+", help="files or directories to analyze")
        p.add_argument(
            "--select",
            metavar="IDS",
            default=None,
            help="comma-separated finding ids to run (default: all)",
        )
        p.add_argument(
            "--root",
            default=None,
            help="root directory for module naming of non-repro trees",
        )

    scan = sub.add_parser("scan", help="analyze and report findings")
    add_scan_args(scan)
    scan.add_argument(
        "--format", choices=("text", "json"), default="text", help="findings format"
    )
    scan.add_argument(
        "--baseline",
        default=None,
        help="baseline JSON; findings in it are tolerated, new ones fail",
    )
    scan.add_argument("--sarif", default=None, help="also write SARIF 2.1.0 here")
    scan.add_argument(
        "--strict", action="store_true", help="warnings also fail the run"
    )
    scan.add_argument(
        "--purity-audit",
        action="store_true",
        help="also print the sanctioned-impurity ledger: every A301 "
        "suppression pragma with its file:line and code",
    )

    base = sub.add_parser("baseline", help="write the current findings as baseline")
    add_scan_args(base)
    base.add_argument("-o", "--output", required=True, help="baseline file to write")

    diff = sub.add_parser("diff", help="compare findings against a baseline")
    add_scan_args(diff)
    diff.add_argument("--baseline", required=True, help="baseline JSON to diff against")
    diff.add_argument(
        "--format", choices=("text", "json"), default="text", help="diff format"
    )

    sarif = sub.add_parser("sarif", help="analyze and write SARIF 2.1.0 only")
    add_scan_args(sarif)
    sarif.add_argument("-o", "--output", required=True, help="SARIF file to write")

    hot = sub.add_parser(
        "hotpath",
        help="profile-guided hot-path performance scan (A401-A406 only)",
    )
    add_scan_args(hot)
    hot.add_argument(
        "--profile",
        default=None,
        metavar="SPANS",
        help="benchmarks/suite/run.py --spans output to rank findings "
        "by measured span cost",
    )
    hot.add_argument(
        "--format", choices=("text", "json"), default="text", help="findings format"
    )
    hot.add_argument(
        "--baseline",
        default=None,
        help="baseline JSON; findings in it are tolerated, new ones fail",
    )
    hot.add_argument("--sarif", default=None, help="also write SARIF 2.1.0 here")
    hot.add_argument(
        "--strict", action="store_true", help="warnings also fail the run"
    )

    for name, help_text in (
        ("units", "virtual-time unit-flow scan (A501-A505 only)"),
        ("forksafety", "process-boundary determinism scan (A601-A604 only)"),
    ):
        family = sub.add_parser(name, help=help_text)
        add_scan_args(family)
        family.add_argument(
            "--format", choices=("text", "json"), default="text", help="findings format"
        )
        family.add_argument(
            "--baseline",
            default=None,
            help="baseline JSON; findings in it are tolerated, new ones fail",
        )
        family.add_argument("--sarif", default=None, help="also write SARIF 2.1.0 here")
        family.add_argument(
            "--strict", action="store_true", help="warnings also fail the run"
        )

    self_p = sub.add_parser(
        "selfcheck", help="scan the installed repro package's own source"
    )
    self_p.add_argument(
        "--baseline", default=None, help="baseline JSON to gate against"
    )
    self_p.add_argument(
        "--format", choices=("text", "json"), default="text", help="findings format"
    )
    self_p.add_argument("--sarif", default=None, help="also write SARIF 2.1.0 here")
    self_p.add_argument(
        "--strict", action="store_true", help="warnings also fail the run"
    )

    sub.add_parser("list-rules", help="print the finding catalogue and exit")

    det = sub.add_parser(
        "determinism",
        help="twice-run each system with the same seed and compare digests",
    )
    det.add_argument(
        "--chaos",
        action="store_true",
        help="also twice-run each system through a fault-injected episode "
        "(crash/recover, straggler, packet loss/dup, retries)",
    )
    det.add_argument(
        "--sanitize",
        action="store_true",
        help="attach the runtime SimSanitizer to every run",
    )
    det.add_argument(
        "--n-requests",
        type=int,
        default=2000,
        help="arrivals per run, at least 1 (default 2000)",
    )
    det.add_argument("--seed", type=int, default=1, help="root seed, at least 0")
    return parser


def _split_select(select: Optional[str]) -> Optional[List[str]]:
    if select is None:
        return None
    return [s.strip() for s in select.split(",") if s.strip()]


def _package_root() -> str:
    """Directory of the installed ``repro`` package (selfcheck target)."""
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _emit(findings: Sequence[AnalysisFinding], fmt: str) -> None:
    if fmt == "json":
        print(
            json.dumps(
                [dict(f._asdict(), fingerprint=f.fingerprint) for f in findings],
                indent=2,
            )
        )
        return
    for finding in findings:
        print(finding.format())
    errors = sum(1 for f in findings if f.severity == "error")
    warnings = len(findings) - errors
    print(f"repro-analyze: {errors} error(s), {warnings} warning(s)")


def _print_purity_audit(paths: Sequence[str]) -> None:
    """The sanctioned-impurity ledger (``scan --purity-audit``)."""
    from .purity import purity_pragma_ledger

    entries = purity_pragma_ledger(paths)
    print("Sanctioned observer impurities (A301 suppression pragmas):")
    for entry in entries:
        print(f"  {entry['path']}:{entry['line']} {entry['code']}")
    print(f"repro-analyze: {len(entries)} sanctioned impurity pragma(s)")


def _print_rules() -> None:
    for meta in ANALYSIS_RULES.values():
        print(f"{meta.id} {meta.name} [{meta.severity}] (analysis: {meta.analysis})")
        for line in meta.description.splitlines():
            print(f"    {line.strip()}")
        print()


def _run_determinism(args: argparse.Namespace) -> int:
    """``repro-analyze determinism``: one line per twice-run comparison.

    Bad arguments are refused before any run; an error raised by a run
    itself (a sanitizer violation, say) propagates as a crash."""
    for flag, value, least in (
        ("--n-requests", args.n_requests, 1),
        ("--seed", args.seed, 0),
    ):
        if value < least:
            print(
                f"repro-analyze: {flag} must be at least {least}, got {value}",
                file=sys.stderr,
            )
            return 2
    from .determinism import check_all, check_chaos_all

    reports = check_all(n_requests=args.n_requests, seed=args.seed, sanitize=args.sanitize)
    if args.chaos:
        reports += check_chaos_all(
            n_requests=args.n_requests, seed=args.seed, sanitize=args.sanitize
        )
    for report in reports:
        print(report.describe())
    mismatches = [r for r in reports if not r.identical]
    print(
        f"repro-analyze: determinism {len(reports) - len(mismatches)}/{len(reports)} "
        "system(s) reproducible"
    )
    return 1 if mismatches else 0


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fp:
        return fp.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(text)


def _gate(
    findings: List[AnalysisFinding],
    baseline_path: Optional[str],
    fmt: str,
    sarif_path: Optional[str],
    strict: bool,
    emit=None,
) -> int:
    """Shared scan/selfcheck/hotpath reporting + gating logic."""
    emit = emit or _emit
    if sarif_path:
        _write(sarif_path, sarif_text(findings))
    if baseline_path:
        baseline = load_baseline(_read(baseline_path))
        result = diff_baseline(findings, baseline)
        emit(result.new, fmt)
        if result.resolved:
            print(
                f"repro-analyze: {len(result.resolved)} baselined finding(s) "
                "no longer fire — ratchet the baseline down "
                "(repro-analyze baseline ... -o <file>)"
            )
        if result.new:
            print(
                f"repro-analyze: {len(result.new)} finding(s) not in baseline "
                f"({len(result.known)} tolerated)"
            )
            return 1
        print(
            f"repro-analyze: clean against baseline "
            f"({len(result.known)} tolerated finding(s))"
        )
        return 0
    emit(findings, fmt)
    return 1 if has_errors(findings, strict=strict) else 0


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:
        sys.stderr.close()
        return 1


def _main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    if args.command == "list-rules":
        _print_rules()
        return 0
    if args.command == "determinism":
        return _run_determinism(args)
    try:
        if args.command == "selfcheck":
            findings = analyze_paths([_package_root()])
            return _gate(findings, args.baseline, args.format, args.sarif, args.strict)
        if args.command == "hotpath":
            select = _split_select(args.select) or HOTPATH_SELECT
            files = iter_python_files(args.paths)
            if not files:
                raise ReproError("no Python files to analyze")
            program = build_program(files, root=args.root)
            findings = analyze_program(program, select=select)
            profile = load_profile(args.profile) if args.profile else None

            def emit_ranked(shown: Sequence[AnalysisFinding], fmt: str) -> None:
                if profile is None or fmt != "text":
                    _emit(shown, fmt)
                else:
                    for weight, finding in rank_findings(program, shown, profile):
                        print(f"{weight * 1e3:9.3f}ms {finding.format()}")
                    print(
                        f"repro-analyze: {len(shown)} hot-path finding(s), "
                        "ranked by measured span cost"
                    )
                unmatched = unmatched_spans(program, profile) if profile else {}
                if unmatched:
                    # A JSON report stays parseable: the list goes to stderr.
                    out = sys.stdout if fmt == "text" else sys.stderr
                    print(
                        f"repro-analyze: {len(unmatched)} span name(s) match no "
                        "function; their time ranks no finding:",
                        file=out,
                    )
                    for name, seconds in unmatched.items():
                        print(f"{seconds * 1e3:9.3f}ms {name}", file=out)

            return _gate(
                findings,
                args.baseline,
                args.format,
                args.sarif,
                args.strict,
                emit=emit_ranked,
            )
        if args.command in ("units", "forksafety"):
            family = UNITS_SELECT if args.command == "units" else FORKSAFETY_SELECT
            select = _split_select(args.select) or family
            findings = analyze_paths(args.paths, select=select, root=args.root)
            return _gate(findings, args.baseline, args.format, args.sarif, args.strict)
        select = _split_select(args.select)
        findings = analyze_paths(args.paths, select=select, root=args.root)
        if args.command == "scan":
            code = _gate(findings, args.baseline, args.format, args.sarif, args.strict)
            if args.purity_audit:
                _print_purity_audit(args.paths)
            return code
        if args.command == "baseline":
            _write(args.output, write_baseline(findings))
            print(
                f"repro-analyze: wrote {len(findings)} finding(s) to {args.output}"
            )
            return 0
        if args.command == "diff":
            baseline = load_baseline(_read(args.baseline))
            result = diff_baseline(findings, baseline)
            if args.format == "json":
                print(
                    json.dumps(
                        {
                            "new": [
                                dict(f._asdict(), fingerprint=f.fingerprint)
                                for f in result.new
                            ],
                            "resolved": result.resolved,
                            "known": len(result.known),
                        },
                        indent=2,
                    )
                )
            else:
                for finding in result.new:
                    print(f"NEW      {finding.format()}")
                for entry in result.resolved:
                    print(
                        f"RESOLVED {entry.get('rule_id', '?')} {entry.get('path', '?')} "
                        f"{entry.get('symbol', '')} [{entry.get('fingerprint', '')}]"
                    )
                print(
                    f"repro-analyze: {len(result.new)} new, "
                    f"{len(result.resolved)} resolved, {len(result.known)} known"
                )
            return 1 if result.new else 0
        if args.command == "sarif":
            _write(args.output, sarif_text(findings))
            print(f"repro-analyze: wrote SARIF for {len(findings)} finding(s) to {args.output}")
            return 0
    except ReproError as exc:
        print(f"repro-analyze: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"repro-analyze: {exc}", file=sys.stderr)
        return 2
    parser.print_usage(sys.stderr)  # pragma: no cover - unreachable
    return 2


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
