"""Analysis driver: build the program, run analyses, honour pragmas.

The runner loops the analyses over one parsed file set, then applies
each file's ``# repro-analyze:`` suppression pragmas
(:mod:`repro.analyze.pragmas`).  Unknown-id and misplaced pragmas are
not fatal (the tree under analysis may be broken in exactly the ways
we are reporting) — they surface as A000 findings instead, as do stale
pragmas that absorb no finding.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from ..errors import AnalysisError
from .contracts import analyze_contracts
from .eventflow import analyze_eventflow
from .filerules import analyze_filerules
from .findings import ANALYSIS_RULES, AnalysisFinding, make_finding
from .forksafety import analyze_forksafety
from .hotpath import analyze_hotpath
from .model import Program, build_program, iter_python_files
from .pragmas import PragmaSuppressions
from .purity import analyze_purity
from .rngflow import analyze_rngflow
from .unitsflow import analyze_unitsflow

#: analysis name -> callable; ``--select`` filters on rule ids, not on
#: these names, but running only the analyses that can produce selected
#: ids keeps big scans cheap.
ANALYSES = {
    "eventflow": analyze_eventflow,
    "rngflow": analyze_rngflow,
    "contracts": analyze_contracts,
    "purity": analyze_purity,
    "hotpath": analyze_hotpath,
    "unitsflow": analyze_unitsflow,
    "forksafety": analyze_forksafety,
    "filerules": analyze_filerules,
}


def _selected_rule_ids(select: Optional[Sequence[str]]) -> List[str]:
    if select is None:
        return list(ANALYSIS_RULES)
    out: List[str] = []
    for rule_id in select:
        rid = rule_id.upper()
        if rid not in ANALYSIS_RULES:
            raise AnalysisError(f"unknown analysis rule id {rule_id!r}")
        out.append(rid)
    return out


def analyze_program(
    program: Program, select: Optional[Sequence[str]] = None
) -> List[AnalysisFinding]:
    """Run every (selected) analysis over an already-built program.

    Pragma suppression happens here so in-memory callers (tests) get the
    same semantics as the CLI.
    """
    selected = set(_selected_rule_ids(select))
    raw: List[AnalysisFinding] = []
    for name, analysis in ANALYSES.items():
        produces = {
            rid for rid, meta in ANALYSIS_RULES.items() if meta.analysis == name
        }
        if produces & selected:
            raw.extend(f for f in analysis(program) if f.rule_id in selected)

    # Per-file pragma pass: absorb suppressed findings, then report
    # pragma problems (unknown ids, misplaced disable-file, staleness)
    # as A000 on the file they live in.
    by_path: Dict[str, List[AnalysisFinding]] = {}
    for finding in raw:
        by_path.setdefault(finding.path, []).append(finding)

    known_ids = list(ANALYSIS_RULES)
    kept: List[AnalysisFinding] = []
    for module in program.modules.values():
        path = module.path
        pragmas = PragmaSuppressions(module.source, known_ids)
        for finding in by_path.pop(path, []):
            if not pragmas.is_suppressed(finding.line, finding.rule_id):
                kept.append(finding)
        if "A000" not in selected:
            continue
        for error in pragmas.errors:
            kept.append(
                make_finding(
                    "A000",
                    path,
                    error.line,
                    0,
                    error.message,
                    symbol=f"{module.name}:pragma",
                )
            )
        for line, rule_id in pragmas.unused(sorted(selected)):
            if rule_id == "A000":
                continue  # suppressing the hygiene checker is self-justifying
            anchor = 1 if line == 0 else line
            if pragmas.is_suppressed(anchor, "A000"):
                continue
            where = "file-wide pragma" if line == 0 else "pragma"
            kept.append(
                make_finding(
                    "A000",
                    path,
                    anchor,
                    0,
                    f"stale suppression: {where} disables "
                    f"{'every rule' if rule_id == 'ALL' else rule_id} but no "
                    "such finding fires; remove it",
                    symbol=f"{module.name}:stale:{rule_id}",
                )
            )
    # Findings on paths not in the program (cannot happen unless an
    # analysis mislabels a path) are kept rather than dropped.
    for leftovers in by_path.values():
        kept.extend(leftovers)
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return kept


def analyze_paths(
    paths: Iterable[str],
    select: Optional[Sequence[str]] = None,
    root: Optional[str] = None,
) -> List[AnalysisFinding]:
    """Build a program from files/directories and analyze it."""
    files = iter_python_files(paths)
    if not files:
        raise AnalysisError("no Python files to analyze")
    program = build_program(files, root=root)
    return analyze_program(program, select=select)


def has_errors(findings: Sequence[AnalysisFinding], strict: bool = False) -> bool:
    """True when the findings should fail the run (errors always;
    warnings only under ``strict``)."""
    if strict:
        return bool(findings)
    return any(f.severity == "error" for f in findings)
