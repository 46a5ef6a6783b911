"""Static analysis for the Persephone reproduction.

This package parses the entire tree once into a symbol table and call
graph (:mod:`repro.analyze.model`) and runs eight analyses over it:

* :mod:`repro.analyze.eventflow` — simulated-time race detection
  (A001/A002): same-timestamp event pairs whose handlers touch
  overlapping state, i.e. outcomes decided only by heap insertion order.
* :mod:`repro.analyze.rngflow` — RNG-stream ownership and escape
  analysis (A101–A103): subsystem-scoped streams created or consumed
  across subsystem boundaries.
* :mod:`repro.analyze.contracts` — Policy/System/Balancer contract
  verification (A201–A203): required overrides, mandatory ``super()``
  chains, reserved engine-owned field writes.
* :mod:`repro.analyze.purity` — observer-purity verification (A301):
  wall-clock, entropy, RNG, and heap-tracking calls inside the observer
  packages (trace, telemetry, sweep, rack, forensics), resolved through
  each module's import table.
* :mod:`repro.analyze.hotpath` — profile-guided hot-path performance
  analysis (A401–A406): allocations, missing ``__slots__``, repeated
  attribute lookups, string formatting, exception-driven control flow,
  and trivial delegation inside the set of functions transitively
  reachable from event dispatch, optionally ranked by measured span
  cost from a benchmark-suite ``run.py --spans`` file.
* :mod:`repro.analyze.unitsflow` — virtual-time unit checking
  (A501–A505): an abstract interpretation over the unit lattice in
  :mod:`repro.analyze.dataflow` (``Duration_us`` / ``Timestamp_us`` /
  ``Rate_per_us`` / ``Fraction`` / ``Bytes``) that catches mixed units
  at scheduler sinks, rate-vs-duration confusion, percent-scaled
  fractions, unclamped timestamp subtractions, and unit-less big
  literals at time sites.
* :mod:`repro.analyze.forksafety` — process-boundary determinism
  checks (A601–A604) for the sweep/rack multiprocessing era:
  unpicklable spawn payloads, worker reads of runtime-mutated
  module-level state, unprefixed RNG streams in fork-adjacent
  packages, and checkpoint writes that bypass the single-writer
  store.
* :mod:`repro.analyze.filerules` — single-module determinism rules
  (A701–A708): direct RNG calls, wall clocks, mutable defaults, set
  iteration, raw unit literals, handler global mutation, host entropy,
  and builtin ``hash()``, all from one shared walk per module.

Findings carry an error/warning severity, honour one pragma grammar
(``# repro-analyze: disable=A102``, :mod:`repro.analyze.pragmas`),
serialize to text, JSON and SARIF 2.1.0 (:mod:`repro.analyze.sarif`),
and gate in CI against a checked-in baseline
(:mod:`repro.analyze.baseline`).  The CLI is ``repro-analyze``
(:mod:`repro.analyze.cli`); its ``determinism`` subcommand runs the
twice-run same-seed digest check (:mod:`repro.analyze.determinism`).
The runtime twin of the eventflow analysis is the tie-break shadow check
in :class:`repro.metrics.sanitizer.SimSanitizer`.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".baseline": (
            "BaselineDiff",
            "diff_baseline",
            "load_baseline",
            "write_baseline",
        ),
        ".contracts": ("analyze_contracts",),
        ".dataflow": (
            "AbstractValue",
            "FunctionSummary",
            "analyze_function",
            "compute_summaries",
            "join",
            "transfer_binop",
        ),
        ".eventflow": ("analyze_eventflow", "collect_schedule_sites"),
        ".filerules": ("analyze_filerules",),
        ".findings": (
            "ANALYSIS_RULES",
            "AnalysisFinding",
            "RuleMeta",
            "fingerprint",
            "make_finding",
        ),
        ".forksafety": ("analyze_forksafety",),
        ".hotpath": (
            "analyze_hotpath",
            "function_weights",
            "hot_functions",
            "hot_roots",
            "load_profile",
            "rank_findings",
        ),
        ".model": ("Program", "build_program", "iter_python_files"),
        ".purity": ("analyze_purity",),
        ".rngflow": ("analyze_rngflow",),
        ".runner": ("analyze_paths", "analyze_program", "has_errors"),
        ".sarif": ("findings_from_sarif", "sarif_text", "to_sarif"),
        ".unitsflow": ("analyze_unitsflow",),
    },
)
