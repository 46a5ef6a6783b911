"""Observer-purity analysis (finding A301).

The trace, telemetry, sweep, rack and forensics packages are held to
the observer contract: attaching an observer must not change a run,
and observer output must be a pure function of simulated events.  This
analysis resolves every call through the module's import table, so
``from time import perf_counter as clock`` does not slip past a textual
check.

One finding:

* **A301** — a module in an observer package (``repro/trace/``,
  ``repro/telemetry/``, ``repro/sweep/``, ``repro/rack/``,
  ``repro/forensics/``) calls a wall clock, a host-entropy source, a
  direct RNG function, or a ``tracemalloc`` heap-tracking function.

There are two sanctioned exceptions.  The self-profiler
(:mod:`repro.telemetry.profiler`) deliberately measures the simulator's
own wall time and heap.  The sweep executor's worker-management lines
(pool timeouts, the latency selftest's sleep) steer worker processes
without touching any recorded result.  Each such line carries its own
``# repro-analyze: disable=A301`` pragma, so every allowlisted impurity
stays visible and individually justified; ``scan --purity-audit``
lists them.  ``tracemalloc.is_tracing()`` is not flagged: it is a pure
query used to guard start/stop, not a measurement.

The forbidden-name sets are the A701/A702/A707 rules' own
(:mod:`repro.analyze.filerules`), which leave observer modules to this
analysis, so each impure call is reported once.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from .filerules import (
    ENTROPY,
    ENTROPY_PREFIXES,
    RNG_PREFIXES,
    WALL_CLOCK,
    ModuleNodes,
    observer_package,
)
from .findings import AnalysisFinding, make_finding
from .model import Program, iter_python_files
from .pragmas import iter_comments, pragma_ids

#: ``tracemalloc`` calls that start, stop, or read a heap measurement.
#: ``is_tracing`` is deliberately absent (pure guard query).
_HEAP_TRACKING = frozenset(
    {
        "tracemalloc.start",
        "tracemalloc.stop",
        "tracemalloc.get_traced_memory",
        "tracemalloc.take_snapshot",
        "tracemalloc.reset_peak",
        "tracemalloc.clear_traces",
    }
)


def _classify(dotted: str) -> str:
    """Impurity kind for a resolved dotted callee name, or ``""``."""
    if dotted in WALL_CLOCK:
        return "wall-clock read"
    if dotted in ENTROPY or dotted.startswith(ENTROPY_PREFIXES):
        return "host-entropy source"
    if dotted.startswith(RNG_PREFIXES):
        return "direct RNG draw"
    if dotted in _HEAP_TRACKING:
        return "heap-tracking call"
    return ""


def analyze_purity(program: Program) -> List[AnalysisFinding]:
    """Flag impure calls in observer-package modules."""
    findings: List[AnalysisFinding] = []
    for module in program.modules.values():
        package = observer_package(module)
        if not package:
            continue
        for call, scope, dotted in ModuleNodes(module).calls:
            kind = _classify(dotted) if dotted is not None else ""
            if not kind:
                continue
            findings.append(
                make_finding(
                    "A301",
                    module.path,
                    call.lineno,
                    call.col_offset,
                    f"{kind} {dotted}() in observer package "
                    f"'repro/{package}/'; observers must be pure functions "
                    "of simulated time — every sanctioned exception must "
                    "carry its own A301 pragma",
                    symbol=f"{module.name}.{scope.name}:{dotted}",
                )
            )
    return findings


def purity_pragma_ledger(paths: Sequence[str]) -> List[Dict[str, object]]:
    """Every sanctioned observer impurity, as an auditable ledger.

    Walks the given trees for ``A301`` suppression pragmas — each one a
    line where an observer module is *allowed* to touch the wall clock,
    host entropy or the heap tracker — and returns ``{path, line, code}``
    entries sorted by location.  The point is visibility: the purity
    contract is only as strong as its exception list, so
    ``repro-analyze scan --purity-audit`` prints the full list instead
    of letting exceptions hide in comments.
    """
    entries: List[Dict[str, object]] = []
    for path in iter_python_files(paths):
        with open(path, "r", encoding="utf-8") as fp:
            source = fp.read()
        lines = source.splitlines()
        for lineno, comment in iter_comments(source):
            parsed = pragma_ids(comment)
            if parsed is None or "A301" not in parsed[1]:
                continue
            code = lines[lineno - 1].split("#", 1)[0].strip()
            entries.append({"path": path, "line": lineno, "code": code})
    entries.sort(key=lambda e: (e["path"], e["line"]))
    return entries
