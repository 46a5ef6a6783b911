"""``repro-lint`` — the simulation-correctness analyzer CLI.

Usage::

    repro-lint src/repro                # static AST lint
    repro-lint --list-rules             # rule catalogue with docstrings
    repro-lint --determinism            # twice-run digest check (3 systems)
    repro-lint --determinism --chaos    # also digest fault-injected runs
    repro-lint src/repro --determinism  # both; exit 1 on any failure
    repro-lint src/ --select R001,R003  # subset of rules
    repro-lint src/ --format json       # machine-readable findings

Exit codes: 0 clean, 1 findings of severity *error* (or any finding with
``--strict``) or a determinism mismatch, 2 usage/internal errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..errors import LintError
from .determinism import check_all, check_chaos_all
from .rules import ALL_RULES
from .runner import Finding, has_errors, lint_paths


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Static + dynamic correctness analyzer for the Persephone "
        "reproduction's discrete-event simulator.",
    )
    parser.add_argument("paths", nargs="*", help="files or directories to lint")
    parser.add_argument(
        "--select",
        metavar="IDS",
        default=None,
        help="comma-separated rule ids to run (default: all rules)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    parser.add_argument(
        "--strict", action="store_true", help="warnings also fail the run"
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="findings output format"
    )
    parser.add_argument(
        "--determinism",
        action="store_true",
        help="run the twice-run same-seed digest check over the three systems "
        "(five configurations: Shinjuku in three)",
    )
    parser.add_argument(
        "--n-requests",
        type=int,
        default=2000,
        help="arrivals per determinism run (default 2000)",
    )
    parser.add_argument("--seed", type=int, default=1, help="determinism root seed")
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="also attach the runtime SimSanitizer during determinism runs",
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="with --determinism: additionally twice-run each system "
        "through a fault-injected episode (crash/recover, straggler, "
        "packet loss/dup, retries) and compare digests",
    )
    return parser


def _print_rules() -> None:
    for rule in ALL_RULES:
        scope = "sim-critical packages" if rule.scoped else "all files"
        print(f"{rule.id} {rule.name} [{rule.severity}] (scope: {scope})")
        for line in rule.describe().splitlines():
            print(f"    {line.strip()}")
        print()


def _emit(findings: List[Finding], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps([finding._asdict() for finding in findings], indent=2))
        return
    for finding in findings:
        print(finding.format())
    errors = sum(1 for f in findings if f.severity == "error")
    warnings = len(findings) - errors
    print(f"repro-lint: {errors} error(s), {warnings} warning(s)")


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:
        # Downstream consumer (e.g. ``repro-lint ... | head``) closed the
        # pipe; exit quietly like any well-behaved filter.
        sys.stderr.close()
        return 1


def _main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        _print_rules()
        return 0
    if not args.paths and not args.determinism:
        print("repro-lint: nothing to do (give paths and/or --determinism)", file=sys.stderr)
        return 2

    failed = False
    if args.paths:
        select = [s.strip() for s in args.select.split(",")] if args.select else None
        try:
            findings = lint_paths(args.paths, select=select)
        except LintError as exc:
            print(f"repro-lint: {exc}", file=sys.stderr)
            return 2
        _emit(findings, args.format)
        failed |= has_errors(findings, strict=args.strict)

    if args.determinism:
        reports = check_all(
            n_requests=args.n_requests, seed=args.seed, sanitize=args.sanitize
        )
        if args.chaos:
            reports = reports + check_chaos_all(
                n_requests=args.n_requests, seed=args.seed, sanitize=args.sanitize
            )
        for report in reports:
            print(report.describe())
        mismatches = [r for r in reports if not r.identical]
        print(
            f"repro-lint: determinism {len(reports) - len(mismatches)}/{len(reports)} "
            "system(s) reproducible"
        )
        failed |= bool(mismatches)
    elif args.chaos:
        print("repro-lint: --chaos requires --determinism", file=sys.stderr)
        return 2

    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
