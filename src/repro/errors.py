"""Exception hierarchy for the Persephone/DARC reproduction.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything raised by this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class SimulationError(ReproError):
    """Raised for invalid simulator operations (e.g. scheduling in the past)."""


class ConfigurationError(ReproError):
    """Raised when a component is constructed with invalid parameters."""


class WorkloadError(ReproError):
    """Raised for ill-formed workload specifications."""


class SchedulingError(ReproError):
    """Raised when a scheduling policy reaches an inconsistent state."""


class ClassifierError(ReproError):
    """Raised when a request classifier misbehaves in a detectable way."""


class TraceError(ReproError):
    """Raised when the ``repro.trace`` subsystem reaches an inconsistent
    state: a span receives a second terminal transition, a slice closes
    with none open, or a trace file fails to parse.  Tracing is
    observational, so a TraceError always means either an instrumentation
    bug or a genuine conservation violation in the pipeline — never a
    scheduling decision gone wrong."""


class TelemetryError(ReproError):
    """Raised when the ``repro.telemetry`` subsystem reaches an
    inconsistent state: a metric name is re-registered with a different
    kind, a counter moves backwards, a probe is installed twice, or a
    metrics file fails to parse.  Telemetry is observational, so a
    TelemetryError always means an instrumentation bug or a genuine
    conservation violation — never a scheduling decision gone wrong."""


class ForensicsError(ReproError):
    """Raised when the ``repro.forensics`` subsystem reaches an
    inconsistent state: a blame report fails to reconcile against the
    span stage partition, a registry store is malformed, or a trace
    document lacks the sections an analysis needs.  Forensics is
    post-hoc — it only ever reads exported artifacts — so a
    ForensicsError always means a broken artifact or an analyzer bug,
    never a scheduling decision gone wrong."""


class UsageError(ReproError):
    """Raised when a driver or CLI entry point is invoked with flags it
    cannot honor (e.g. ``--forensics`` without ``--trace``).  Distinct
    from :class:`ConfigurationError` — the *components* are fine; the
    invocation asked for an unsupported combination — so callers can
    map it to an exit-code-2 usage failure instead of a crash."""


class AnalysisError(ReproError):
    """Raised for fatal problems inside the ``repro.analyze`` whole-program
    analyzer (unparseable source, malformed baseline files, impossible
    configurations) — *not* for analysis findings, which are reported as
    data, never raised."""


class SanitizerViolation(ReproError):
    """A simulation invariant was broken at runtime.

    Raised by :class:`repro.metrics.sanitizer.SimSanitizer` the moment an
    invariant check fails.  Carries structured context so test harnesses
    and CI logs can pinpoint the offending event:

    ``invariant``
        Stable identifier of the broken invariant (e.g.
        ``"monotonic-time"``, ``"request-conservation"``).
    ``time``
        Simulation time (us) at which the violation was detected, or
        ``None`` when no loop was attached.
    ``context``
        Free-form dict of supporting values (counters, worker ids, ...).
    """

    def __init__(
        self,
        invariant: str,
        message: str,
        time: "float | None" = None,
        context: "dict | None" = None,
    ):
        self.invariant = invariant
        self.time = time
        self.context = dict(context) if context else {}
        at = f" at t={time:.3f}us" if time is not None else ""
        detail = f" ({', '.join(f'{k}={v}' for k, v in self.context.items())})" if self.context else ""
        super().__init__(f"[{invariant}]{at}: {message}{detail}")
