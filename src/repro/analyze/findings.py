"""Finding model for the whole-program analyzer.

A ``repro-analyze`` finding is a path, line, rule id, severity and
message, plus two things a baseline ratchet needs:

* a **symbol** — the dotted program entity the finding is about (a
  handler pair, a stream name, a class) — so a finding survives the file
  being reformatted;
* a **fingerprint** — a stable hash of (rule, path, symbol, message)
  *excluding line numbers*, which is what the baseline ratchet keys on:
  moving code around does not churn ``analyze-baseline.json``; changing
  behaviour does.

This module is deliberately standalone (no imports from the rest of
``repro``) so every analysis can import the rule registry without
creating an import cycle.
"""

from __future__ import annotations

import hashlib
import re
from typing import Dict, NamedTuple


class RuleMeta(NamedTuple):
    """Catalogue entry for one finding id."""

    id: str
    name: str
    severity: str  # "error" | "warning"
    analysis: str  # which analysis emits it
    description: str


#: The finding-id catalogue.  A0xx — analyzer hygiene; A1xx — RNG-stream
#: flow; A2xx — policy/system/balancer contracts; A3xx — observer
#: purity; A4xx — hot-path performance; A5xx — units flow; A6xx —
#: fork safety; A7xx — single-module determinism rules; A001/A002 —
#: event-flow.
ANALYSIS_RULES: Dict[str, RuleMeta] = {
    meta.id: meta
    for meta in (
        RuleMeta(
            "A000",
            "suppression-hygiene",
            "warning",
            "runner",
            "A repro-analyze pragma is unknown, misplaced, or stale — it "
            "names a finding that no longer fires on that line.  Stale "
            "suppressions silently mask the next real regression.",
        ),
        RuleMeta(
            "A001",
            "same-time-race",
            "warning",
            "eventflow",
            "Two schedule sites book events with equal constant delays "
            "(typically both immediate), and their handlers read/write "
            "overlapping state.  When both fire at the same simulated "
            "timestamp, only heap insertion order decides the outcome — "
            "a tie-break the code never states.  Make the ordering "
            "explicit (distinct delays, one combined handler, or a "
            "documented commutation) or suppress with justification.",
        ),
        RuleMeta(
            "A002",
            "absolute-time-race",
            "warning",
            "eventflow",
            "An absolute-time schedule site (call_at with an externally "
            "supplied time, e.g. a fault-plan timestamp) can land on the "
            "same instant as another handler that touches the same "
            "state.  Crash-vs-dispatch and recover-vs-complete ties are "
            "the canonical instances: behaviour is deterministic only by "
            "insertion order, which external data controls.",
        ),
        RuleMeta(
            "A101",
            "stream-foreign-prefix",
            "error",
            "rngflow",
            "A dotted RNG stream name ('faults.net') declares its owning "
            "subsystem in its prefix, but the stream is created in a "
            "different package.  The prefix convention is what keeps one "
            "subsystem's draws from perturbing another's; a mismatched "
            "creation site breaks the audit trail.",
        ),
        RuleMeta(
            "A102",
            "stream-escape",
            "error",
            "rngflow",
            "A subsystem-scoped RNG stream (dotted name) is passed into "
            "a function or constructor belonging to a different "
            "subsystem.  The receiving code's draw pattern now silently "
            "couples to the owning subsystem's seed schedule: adding one "
            "draw on either side perturbs both.",
        ),
        RuleMeta(
            "A103",
            "dynamic-stream-name",
            "warning",
            "rngflow",
            "An RNG stream is requested with a non-literal name, which "
            "defeats static stream-ownership tracking (and makes the "
            "stream registry's contents depend on runtime values).  Use "
            "a string literal, or a literal prefix plus a deterministic "
            "suffix built at one audited site.",
        ),
        RuleMeta(
            "A201",
            "missing-override",
            "error",
            "contracts",
            "A concrete Policy/System/Balancer subclass does not provide "
            "a required member of its contract (e.g. a Scheduler without "
            "on_request/on_worker_free or traits).  The gap surfaces at "
            "runtime as an abstract-instantiation error at best, or as "
            "silently inherited wrong behaviour at worst.",
        ),
        RuleMeta(
            "A202",
            "broken-super-chain",
            "error",
            "contracts",
            "An override of a chained contract method (__init__, "
            "on_worker_crash, on_worker_recover, attach_observer) never "
            "calls super().  The base class maintains engine-side state "
            "in these methods (service-event registry, capacity "
            "bookkeeping, observer hook binding); skipping the chain strands "
            "that state.",
        ),
        RuleMeta(
            "A203",
            "reserved-field-write",
            "error",
            "contracts",
            "Code outside the owning module writes an engine-owned field "
            "(EventLoop internals, Worker.current/failed/speed_factor, "
            "Scheduler wiring).  These fields have single designated "
            "writers; outside writes bypass the invariants the "
            "sanitizer checks and the accounting the recorder trusts.",
        ),
        RuleMeta(
            "A301",
            "observer-impurity",
            "error",
            "purity",
            "A module in an observer package (repro/trace/, "
            "repro/telemetry/, repro/sweep/, repro/rack/, "
            "repro/forensics/) calls a wall clock, host-entropy source, "
            "direct RNG function, or tracemalloc heap-tracking function.  "
            "Observers promise that attaching them cannot change a run "
            "and that their output is a pure function of simulated "
            "events.  One exception is sanctioned: the sweep "
            "executor's worker-management lines (pool timeouts, the "
            "latency selftest's sleep), which steer processes, never "
            "results.  Each such line carries its own pragma so every "
            "impurity stays individually justified (scan "
            "--purity-audit lists them).",
        ),
        RuleMeta(
            "A401",
            "allocation-in-hot-loop",
            "warning",
            "hotpath",
            "A comprehension, sorted() call, collection literal, slice, "
            "or allocating builtin sits on the event-dispatch hot path "
            "(inside a loop of a reachable handler, or anywhere in one "
            "for comprehensions).  Each event pays an allocation and a "
            "garbage-collection debt; build the structure once outside "
            "the hot path or maintain it incrementally.",
        ),
        RuleMeta(
            "A402",
            "missing-slots-on-hot-path",
            "warning",
            "hotpath",
            "A class instantiated by hot-path code declares no __slots__ "
            "anywhere in its ancestry.  Every instance then carries a "
            "__dict__ (56+ bytes) and every attribute read is a hash "
            "probe instead of an index; at thousands of instances per "
            "simulated second this dominates allocator time.",
        ),
        RuleMeta(
            "A403",
            "repeated-attribute-lookup",
            "warning",
            "hotpath",
            "A depth->=2 attribute chain (self.x.y) is loaded repeatedly "
            "in one hot-path function with no intervening store.  Each "
            "load re-walks the chain through two dict probes; hoist the "
            "value to a local, or cache it at construction when the "
            "middle object never changes.",
        ),
        RuleMeta(
            "A404",
            "string-formatting-on-hot-path",
            "warning",
            "hotpath",
            "An f-string, str.format/%-formatting, print, or logging "
            "call executes per event on the hot path.  String building "
            "costs even when the output is discarded (and logging "
            "formats before the level check); error paths (raise/assert) "
            "are exempt.",
        ),
        RuleMeta(
            "A405",
            "exception-driven-control-flow",
            "warning",
            "hotpath",
            "A try/except around a single lookup catches only "
            "KeyError/IndexError/AttributeError/StopIteration on the hot "
            "path.  Setting up the handler is cheap but each *miss* "
            "costs an exception instance plus a traceback; dict.get or a "
            "membership precheck is both faster and clearer.",
        ),
        RuleMeta(
            "A406",
            "trivial-delegation-on-hot-path",
            "warning",
            "hotpath",
            "A hot-path function's entire body is `return other(args)` "
            "with pass-through arguments.  The indirection costs one "
            "Python call frame per event and buys nothing; inline the "
            "callee or bind the target directly where it is called.",
        ),
        RuleMeta(
            "A501",
            "unit-mixing-at-time-sink",
            "error",
            "unitsflow",
            "A value of the wrong unit — or one tainted by an ill-typed "
            "arithmetic mix (timestamp+timestamp, duration-timestamp, "
            "duration+rate) — reaches a time-typed parameter.  Virtual "
            "time is float microseconds everywhere; a unit slip here "
            "does not crash, it silently reschedules the simulation and "
            "corrupts every µs-scale figure downstream.",
        ),
        RuleMeta(
            "A502",
            "rate-duration-confusion",
            "error",
            "unitsflow",
            "A rate (req/µs) flows where a duration/timestamp is "
            "expected, or vice versa.  The two are reciprocals: at "
            "rate 0.5 the confusion books 0.5 µs gaps instead of 2 µs "
            "ones, quietly quadrupling offered load.",
        ),
        RuleMeta(
            "A503",
            "fraction-percent-confusion",
            "error",
            "unitsflow",
            "A percent-scale constant (85) or a unit-bearing value "
            "reaches a fraction parameter (utilization, probability, "
            "warmup share).  Fractions here are of 1.0; the cutoff is "
            "1.5 — matching the phase-validation cap — so deliberate "
            "overload fractions like 1.2 stay legal.",
        ),
        RuleMeta(
            "A504",
            "unclamped-subtraction-at-scheduler",
            "warning",
            "unitsflow",
            "A subtraction-derived time reaches a scheduling sink "
            "(call_at/call_after/schedule_service_event) without "
            "passing through a clamping max().  When the operands "
            "cross — an event fires later than assumed — the delay "
            "goes negative or the absolute time lands in the past, and "
            "the engine raises only at the instant the bug fires.",
        ),
        RuleMeta(
            "A505",
            "unitless-literal-at-time-site",
            "warning",
            "unitsflow",
            "A bare numeric literal of run-length scale (>= 0.1 "
            "simulated seconds) sits directly at a time-typed call "
            "site or parameter default.  Big raw literals are where "
            "dropped *US_PER_S conversions hide; name the constant "
            "via repro.sim.units so the unit is visible and checkable.",
        ),
        RuleMeta(
            "A601",
            "unpicklable-spawn-payload",
            "error",
            "forksafety",
            "A lambda or nested function is shipped as a worker target "
            "or buried in a spawn args payload.  Closures pickle under "
            "the fork start method by accident and fail under spawn — "
            "the sweep works on Linux and crashes on macOS/Windows CI. "
            "Worker entry points must be module top-level functions "
            "taking plain documents.",
        ),
        RuleMeta(
            "A602",
            "worker-reads-mutable-module-state",
            "warning",
            "forksafety",
            "Code reachable from a pool-worker entry point reads a "
            "module-level dict/list/set that is mutated at runtime. "
            "Spawned workers never see the parent's mutations and "
            "fork-inherited copies go stale; pass the state through "
            "the cell document, or make the table import-time-only. "
            "Import-time registration patterns are exempt — every "
            "process rebuilds those identically.",
        ),
        RuleMeta(
            "A603",
            "unprefixed-stream-in-fork-package",
            "error",
            "forksafety",
            "An RNG stream is acquired inside a fork-sensitive package "
            "(rack/sweep/faults) without its owning dotted prefix. "
            "Cross-process determinism audits trace draws by stream "
            "name; an unprefixed stream created on the worker side is "
            "invisible to the ownership checks that keep one "
            "subsystem's draws from perturbing another's.  The one "
            "sanctioned pattern — handing a workload-shared stream "
            "directly into a foreign constructor — is exempt.",
        ),
        RuleMeta(
            "A604",
            "checkpoint-write-outside-store",
            "error",
            "forksafety",
            "A raw open(..., 'w')/os.replace write occurs in the sweep "
            "package outside checkpoint.py, or a checkpoint-store path "
            "(plan_path/manifest_path/merged_path/cells_dir) is "
            "written anywhere outside the single-writer store.  Every "
            "resumable byte must go through write_json_atomic so a "
            "crash mid-write cannot corrupt a sweep.",
        ),
        RuleMeta(
            "A701",
            "direct-random",
            "error",
            "filerules",
            "A direct random.* / numpy.random.* call bypasses the seeded "
            "stream registry.  All randomness must flow through "
            "repro.sim.randomness.RngRegistry so that a single root seed "
            "reproduces the whole run and one component's draws never "
            "perturb another's.  Any randomness.py module is exempt (it "
            "is the sanctioned wrapper); observer packages are A301's.",
        ),
        RuleMeta(
            "A702",
            "wall-clock",
            "error",
            "filerules",
            "A wall-clock read inside simulation code leaks host time "
            "into simulated time: results stop depending only on the "
            "seed, and two same-seed runs diverge.  Simulation "
            "components must read EventLoop.now; only driver code (CLI, "
            "experiments, metrics) may time itself with the host "
            "clock.  Observer packages are A301's.",
        ),
        RuleMeta(
            "A703",
            "mutable-default",
            "error",
            "filerules",
            "A mutable default argument is created once at function "
            "definition and shared across every call — hidden global "
            "state.  In a simulator it also couples runs: state from run "
            "N leaks into run N+1 through the default object, silently "
            "breaking seed reproducibility.",
        ),
        RuleMeta(
            "A704",
            "unordered-iteration",
            "error",
            "filerules",
            "Iterating a set in simulation code makes dispatch order "
            "depend on hash order.  Integer hashing is stable today, but "
            "one refactor to string keys (hash-salted per process) "
            "silently breaks cross-run determinism.  Iterate a sorted() "
            "view or an explicitly ordered structure (list, deque, "
            "dict).",
        ),
        RuleMeta(
            "A705",
            "raw-unit-literal",
            "error",
            "filerules",
            "Multiplying or dividing by a bare 1e6 / 1e9 style constant "
            "is almost always a hand-rolled seconds/microseconds/"
            "nanoseconds conversion.  Unit bugs are invisible in "
            "queueing output (everything just shifts); conversions must "
            "go through repro.sim.units helpers, which name the units at "
            "the call site.  Any units.py module is exempt.",
        ),
        RuleMeta(
            "A706",
            "handler-global-mutation",
            "error",
            "filerules",
            "Event handlers that mutate module-level state make "
            "behaviour depend on what ran earlier in the process, not "
            "earlier in the simulation: back-to-back runs in one process "
            "diverge from fresh runs.  Flags a global declaration in any "
            "function, and in-place mutation of module-level names "
            "(STATE[...] = ..., STATE.append(...)) inside on_* / "
            "handle_* handlers.  Per-run state belongs on the "
            "scheduler or server object.",
        ),
        RuleMeta(
            "A707",
            "nondeterministic-source",
            "error",
            "filerules",
            "Host entropy sources (uuid.uuid4, os.urandom, secrets.*, "
            "os.getpid) can never be replayed from a seed.  Any "
            "identifier or sample a simulation needs must be derived "
            "from the run's RngRegistry or a deterministic counter.  "
            "Observer packages are A301's.",
        ),
        RuleMeta(
            "A708",
            "builtin-hash-order",
            "warning",
            "filerules",
            "hash() of str/bytes is salted per process (PYTHONHASHSEED), "
            "so anything ordered or steered by it — RSS-style request "
            "steering, sort keys, bucket choice — differs between "
            "processes with the same seed.  Use an explicit stable "
            "digest (e.g. zlib.crc32) or integer keys.",
        ),
    )
}


class AnalysisFinding(NamedTuple):
    """One whole-program finding, after suppression filtering."""

    path: str
    line: int
    col: int
    rule_id: str
    severity: str
    message: str
    #: Dotted program entity the finding is about (stable across moves).
    symbol: str

    def format(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: {self.rule_id} "
            f"[{self.severity}] {self.message}"
        )

    @property
    def fingerprint(self) -> str:
        return fingerprint(self.rule_id, self.path, self.symbol, self.message)


_WS = re.compile(r"\s+")


def _anchor_path(path: str) -> str:
    """Normalize a path for fingerprinting: forward slashes, anchored at
    the last ``repro`` component when present, so the same finding hashes
    identically whether the tree was scanned as ``src/repro`` or by an
    absolute installed-package path (``repro-analyze selfcheck``)."""
    normalized = path.replace("\\", "/")
    parts = normalized.split("/")
    if "repro" in parts:
        idx = len(parts) - 1 - parts[::-1].index("repro")
        return "/".join(parts[idx:])
    return normalized


def fingerprint(rule_id: str, path: str, symbol: str, message: str) -> str:
    """Line-independent identity of a finding, for baseline ratcheting.

    When the finding names a symbol, the symbol *is* the identity —
    messages embed "scheduled at file:line" context that would churn the
    baseline on every unrelated edit above the site.  Symbol-less
    findings fall back to the whitespace-normalized message.
    """
    tail = symbol if symbol else _WS.sub(" ", message).strip()
    payload = "\x1f".join((rule_id, _anchor_path(path), symbol, tail))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]


def make_finding(
    rule_id: str, path: str, line: int, col: int, message: str, symbol: str = ""
) -> AnalysisFinding:
    """Construct a finding with the catalogue's severity for ``rule_id``."""
    meta = ANALYSIS_RULES[rule_id]
    return AnalysisFinding(path, line, col, rule_id, meta.severity, message, symbol)
