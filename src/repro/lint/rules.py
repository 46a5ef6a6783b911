"""AST lint rules for simulation correctness.

Each rule is a :class:`Rule` subclass with a stable id (``R0xx``), a
severity, and a ``check`` generator yielding :class:`RawFinding` tuples.
Rules are deliberately *domain* rules, not style rules: every one of them
guards a property the discrete-event simulation needs to stay credible —
determinism under a fixed seed, simulated-time purity, and explicit
units.

Scoping
-------
Some rules only make sense inside the simulation core.  A file's
*package* is the first path component under ``repro/`` (``sim``,
``core``, ``policies``, ...).  Driver/reporting code (``cli``,
``experiments``, ``metrics``, ``analysis``, and this ``lint`` package)
may legitimately touch wall clocks and host state, so scoped rules skip
it.  Files outside a ``repro`` tree are treated as sim-critical, which
errs toward reporting.

Suppression
-----------
A finding on line *L* is suppressed by a trailing comment on that line::

    t = time.time()  # repro-lint: disable=R002

or for a whole file by a comment in the first ten lines::

    # repro-lint: disable-file=R005

``disable=all`` suppresses every rule.  Suppressions are honoured by
:mod:`repro.lint.runner`, not here.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

#: Packages whose code runs *inside* simulated time.  Scoped rules apply
#: only here; wall clocks and host entropy are fine in driver code.
SIM_CRITICAL_PACKAGES = frozenset(
    {
        "sim",
        "core",
        "policies",
        "systems",
        "server",
        "workload",
        "net",
        "rack",
        "apps",
        "faults",
    }
)

#: Packages under ``repro/`` that are *not* sim-critical (reporting,
#: drivers, and the analyzers themselves).
_NONCRITICAL_PACKAGES = frozenset(
    {"cli", "experiments", "metrics", "analysis", "lint", "analyze"}
)


class RawFinding(NamedTuple):
    """A rule hit before suppression filtering (runner adds path/severity)."""

    line: int
    col: int
    message: str


class ModuleContext:
    """Everything a rule needs to know about one parsed module."""

    def __init__(self, path: str, source: str, tree: ast.Module):
        self.path = path
        self.source = source
        self.tree = tree
        # Normalized, forward-slash path parts for package detection.
        parts = path.replace("\\", "/").split("/")
        self.package: Optional[str] = None
        if "repro" in parts:
            idx = len(parts) - 1 - parts[::-1].index("repro")
            rest = parts[idx + 1:]
            if len(rest) >= 2:
                self.package = rest[0]
            elif len(rest) == 1:
                self.package = rest[0].rsplit(".py", 1)[0]
        #: alias -> fully dotted module/name, built from the import table
        #: (``import numpy as np`` => ``np -> numpy``;
        #: ``from datetime import datetime`` => ``datetime -> datetime.datetime``).
        self.aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"

    @property
    def is_sim_critical(self) -> bool:
        """True when scoped rules should apply to this module."""
        if self.package is None:
            return True
        return self.package not in _NONCRITICAL_PACKAGES

    @property
    def module_basename(self) -> str:
        return self.path.replace("\\", "/").rsplit("/", 1)[-1]

    def dotted_name(self, node: ast.AST) -> Optional[str]:
        """Resolve an attribute chain to a dotted name, expanding import
        aliases at the root (``np.random.default_rng`` ->
        ``numpy.random.default_rng``).  Returns None for non-name roots."""
        chain: List[str] = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        chain.append(self.aliases.get(node.id, node.id))
        return ".".join(reversed(chain))


class Rule:
    """Base class: subclasses set the metadata and implement ``check``."""

    id: str = ""
    name: str = ""
    #: "error" findings fail the lint run; "warning" findings are reported
    #: but only fail under ``--strict``.
    severity: str = "error"
    #: When True the rule only runs on sim-critical packages.
    scoped: bool = False

    def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:
        raise NotImplementedError

    @classmethod
    def describe(cls) -> str:
        """One-paragraph rule description (the class docstring)."""
        return (cls.__doc__ or "").strip()


class DirectRandomRule(Rule):
    """Direct ``random.*`` / ``numpy.random.*`` calls bypass the seeded
    stream registry.  All randomness must flow through
    :class:`repro.sim.randomness.RngRegistry` so that (a) a single root
    seed reproduces the whole run and (b) one component's draws never
    perturb another's.  ``repro/sim/randomness.py`` itself is exempt — it
    is the sanctioned wrapper."""

    id = "R001"
    name = "direct-random"
    severity = "error"
    scoped = False

    _EXEMPT_FILES = ("randomness.py",)

    def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:
        if ctx.module_basename in self._EXEMPT_FILES:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.dotted_name(node.func)
            if dotted is None:
                continue
            if dotted.startswith("random.") or dotted.startswith("numpy.random."):
                yield RawFinding(
                    node.lineno,
                    node.col_offset,
                    f"direct RNG call {dotted}() bypasses sim.randomness; "
                    "draw from an RngRegistry stream instead",
                )


class WallClockRule(Rule):
    """Wall-clock reads inside simulation code leak host time into
    simulated time: results stop depending only on the seed, and two
    same-seed runs diverge.  Simulation components must read
    ``EventLoop.now``; only driver code (CLI, experiments) may time
    itself with the host clock."""

    id = "R002"
    name = "wall-clock"
    severity = "error"
    scoped = True

    _FORBIDDEN = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "time.process_time",
            "time.process_time_ns",
            "time.sleep",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
        }
    )

    def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.dotted_name(node.func)
            if dotted in self._FORBIDDEN:
                yield RawFinding(
                    node.lineno,
                    node.col_offset,
                    f"wall-clock call {dotted}() inside simulation code; "
                    "use the event loop's simulated time (EventLoop.now)",
                )


class MutableDefaultRule(Rule):
    """A mutable default argument is created once at function definition
    and shared across every call — classic hidden global state.  In a
    simulator it also couples runs: state from run N leaks into run N+1
    through the default object, silently breaking seed reproducibility."""

    id = "R003"
    name = "mutable-default"
    severity = "error"
    scoped = False

    _MUTABLE_CALLS = frozenset(
        {
            "list",
            "dict",
            "set",
            "bytearray",
            "collections.deque",
            "collections.defaultdict",
            "collections.OrderedDict",
            "collections.Counter",
        }
    )

    def _is_mutable(self, node: ast.AST, ctx: ModuleContext) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            dotted = ctx.dotted_name(node.func)
            return dotted in self._MUTABLE_CALLS
        return False

    def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default, ctx):
                    yield RawFinding(
                        default.lineno,
                        default.col_offset,
                        f"mutable default argument in {node.name}(); "
                        "default to None and create the object in the body",
                    )


class UnorderedIterationRule(Rule):
    """Iterating a ``set`` in a scheduling decision loop makes dispatch
    order depend on hash order.  Integer hashing is stable today, but one
    refactor to string keys (hash-salted per process) silently breaks
    cross-run determinism.  Scheduling loops must iterate a ``sorted()``
    view or an explicitly ordered structure (list / deque / dict)."""

    id = "R004"
    name = "unordered-iteration"
    severity = "error"
    scoped = True

    def _set_typed_names(self, ctx: ModuleContext) -> Set[str]:
        """Names ("x" or "self.x") assigned a set in this module."""
        names: Set[str] = set()
        for node in ast.walk(ctx.tree):
            value = None
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                value, targets = node.value, list(node.targets)
            elif isinstance(node, ast.AnnAssign):
                value, targets = node.value, [node.target]
                ann = ast.unparse(node.annotation) if node.annotation else ""
                if "Set[" in ann or ann in ("set", "Set", "frozenset", "FrozenSet"):
                    names.update(self._target_keys(targets))
                    continue
            if value is None:
                continue
            if isinstance(value, (ast.Set, ast.SetComp)) or (
                isinstance(value, ast.Call)
                and ctx.dotted_name(value.func) in ("set", "frozenset")
            ):
                names.update(self._target_keys(targets))
        return names

    @staticmethod
    def _target_keys(targets: Sequence[ast.AST]) -> Iterator[str]:
        for target in targets:
            if isinstance(target, ast.Name):
                yield target.id
            elif isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name):
                yield f"{target.value.id}.{target.attr}"

    @staticmethod
    def _iter_key(node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            return f"{node.value.id}.{node.attr}"
        return None

    def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:
        set_named = self._set_typed_names(ctx)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            it = node.iter
            direct_set = isinstance(it, (ast.Set, ast.SetComp)) or (
                isinstance(it, ast.Call)
                and ctx.dotted_name(it.func) in ("set", "frozenset")
            )
            named_set = self._iter_key(it) in set_named if not direct_set else False
            if direct_set or named_set:
                yield RawFinding(
                    it.lineno,
                    it.col_offset,
                    "iteration over an unordered set in simulation code; "
                    "wrap in sorted(...) or use an ordered container",
                )


class RawUnitLiteralRule(Rule):
    """Multiplying or dividing by bare ``1e6`` / ``1e9`` style constants
    is almost always a hand-rolled seconds<->microseconds<->nanoseconds
    conversion.  Unit bugs are invisible in queueing output (everything
    just shifts); conversions must go through :mod:`repro.sim.units`
    helpers, which name the units at the call site.  ``sim/units.py``
    itself is exempt."""

    id = "R005"
    name = "raw-unit-literal"
    severity = "error"
    scoped = True

    _MAGIC = (1_000_000, 1_000_000_000)
    _EXEMPT_FILES = ("units.py",)

    def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:
        if ctx.module_basename in self._EXEMPT_FILES:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.BinOp):
                continue
            if not isinstance(node.op, (ast.Mult, ast.Div)):
                continue
            for side in (node.left, node.right):
                if (
                    isinstance(side, ast.Constant)
                    and isinstance(side.value, (int, float))
                    and not isinstance(side.value, bool)
                    and abs(side.value) in self._MAGIC
                ):
                    yield RawFinding(
                        side.lineno,
                        side.col_offset,
                        f"raw unit-conversion literal {side.value!r}; "
                        "use repro.sim.units helpers (seconds(), nanoseconds(), ...)",
                    )


class HandlerGlobalMutationRule(Rule):
    """Event handlers that mutate module-level state make simulation
    behavior depend on what ran earlier in the *process*, not earlier in
    the *simulation*: back-to-back runs in one process diverge from fresh
    runs.  Flags ``global`` declarations in any function, and in-place
    mutation of module-level names (``STATE[...] = ...``,
    ``STATE.append(...)``) inside ``on_*`` / ``handle_*`` handlers.
    Per-run state belongs on the scheduler/server object."""

    id = "R006"
    name = "handler-global-mutation"
    severity = "error"
    scoped = True

    _MUTATORS = frozenset(
        {"append", "add", "update", "extend", "insert", "pop", "popleft",
         "remove", "discard", "clear", "setdefault", "appendleft"}
    )

    def _module_level_names(self, ctx: ModuleContext) -> Set[str]:
        names: Set[str] = set()
        for node in ctx.tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names.add(node.target.id)
        return names

    def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:
        module_names = self._module_level_names(ctx)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            is_handler = node.name.startswith(("on_", "handle_"))
            for sub in ast.walk(node):
                if isinstance(sub, ast.Global):
                    yield RawFinding(
                        sub.lineno,
                        sub.col_offset,
                        f"'global {', '.join(sub.names)}' in {node.name}(); "
                        "simulation state must live on per-run objects",
                    )
                elif is_handler and isinstance(sub, ast.Subscript):
                    if (
                        isinstance(sub.ctx, (ast.Store, ast.Del))
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id in module_names
                    ):
                        yield RawFinding(
                            sub.lineno,
                            sub.col_offset,
                            f"event handler {node.name}() mutates module-level "
                            f"'{sub.value.id}'; move it onto the scheduler/server",
                        )
                elif is_handler and isinstance(sub, ast.Call):
                    func = sub.func
                    if (
                        isinstance(func, ast.Attribute)
                        and func.attr in self._MUTATORS
                        and isinstance(func.value, ast.Name)
                        and func.value.id in module_names
                    ):
                        yield RawFinding(
                            sub.lineno,
                            sub.col_offset,
                            f"event handler {node.name}() mutates module-level "
                            f"'{func.value.id}' via .{func.attr}(); "
                            "move it onto the scheduler/server",
                        )


class NondeterministicSourceRule(Rule):
    """Host entropy sources (``uuid.uuid4``, ``os.urandom``,
    ``secrets.*``, ``os.getpid``) can never be replayed from a seed.  Any
    identifier or sample a simulation needs must be derived from the run's
    ``RngRegistry`` or a deterministic counter."""

    id = "R007"
    name = "nondeterministic-source"
    severity = "error"
    scoped = False

    _FORBIDDEN_PREFIXES = ("secrets.",)
    _FORBIDDEN = frozenset(
        {"uuid.uuid1", "uuid.uuid4", "os.urandom", "os.getpid", "os.getrandom"}
    )

    def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.dotted_name(node.func)
            if dotted is None:
                continue
            if dotted in self._FORBIDDEN or dotted.startswith(self._FORBIDDEN_PREFIXES):
                yield RawFinding(
                    node.lineno,
                    node.col_offset,
                    f"nondeterministic source {dotted}(); derive values from "
                    "RngRegistry or a deterministic counter",
                )


class BuiltinHashOrderRule(Rule):
    """``hash()`` of str/bytes is salted per process (PYTHONHASHSEED), so
    anything ordered or steered by it — RSS-style request steering, sort
    keys, bucket choice — differs between processes with the same seed.
    Use an explicit stable digest (e.g. ``zlib.crc32``) or integer keys."""

    id = "R008"
    name = "builtin-hash-order"
    severity = "warning"
    scoped = True

    def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name) and node.func.id == "hash":
                # Only the builtin: a local redefinition changes the alias map.
                if ctx.aliases.get("hash", "hash") == "hash":
                    yield RawFinding(
                        node.lineno,
                        node.col_offset,
                        "builtin hash() is process-salted for str/bytes; "
                        "use a stable digest for any ordering/steering decision",
                    )


class TracePurityRule(Rule):
    """The observer planes promise that attaching them cannot change a
    run: spans, samples and metric scrapes are a pure function of
    simulated events.  Any wall-clock read, direct RNG draw, or
    host-entropy source inside ``repro/trace/``, ``repro/telemetry/``,
    ``repro/sweep/``, or ``repro/forensics/`` would break that promise
    (trace/metrics/merged sweep files and forensics stores would differ
    between identical runs, and ``--trace``/``--metrics``/
    ``--forensics``/``repro-sweep`` could no longer claim bit-identical
    results).  Timestamps must come from ``EventLoop.now``
    and identifiers from request ids or deterministic counters.  The
    sweep package's cell results, checkpoints, and CI aggregation are
    covered because parallel and resumed sweeps must reproduce serial
    ones byte for byte; only its worker-*management* lines (pool
    timeouts, the latency-selftest sleep) may carry an explicit
    ``repro-lint: disable=R009`` pragma, since they steer processes,
    never results.  The other sanctioned exception is the opt-in
    self-profiler (``repro/telemetry/profiler.py``), which *measures*
    the simulator's wall-clock cost by design — each of its timing
    lines carries an explicit pragma too."""

    id = "R009"
    name = "observer-purity"
    severity = "error"
    scoped = False

    _WALL_CLOCK = WallClockRule._FORBIDDEN
    _ENTROPY = NondeterministicSourceRule._FORBIDDEN
    _ENTROPY_PREFIXES = NondeterministicSourceRule._FORBIDDEN_PREFIXES
    _RNG_PREFIXES = ("random.", "numpy.random.")

    #: Packages bound by the pure-observer contract.  ``rack`` is held
    #: to the same bar: its balancers draw only from named registry
    #: streams, so any wall-clock read or direct ``random``/
    #: ``numpy.random`` module call there is a determinism bug.
    #: ``forensics`` is post-hoc (it only reads exported artifacts) but
    #: its stores must be byte-identical across re-collections, so it
    #: carries the same purity bar.
    _OBSERVER_PACKAGES = ("trace", "telemetry", "sweep", "rack", "forensics")

    @classmethod
    def _observer_package(cls, ctx: ModuleContext) -> Optional[str]:
        posix = ctx.path.replace("\\", "/")
        for package in cls._OBSERVER_PACKAGES:
            if ctx.package == package or f"/{package}/" in posix:
                return package
        return None

    def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:
        package = self._observer_package(ctx)
        if package is None:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.dotted_name(node.func)
            if dotted is None:
                continue
            if dotted in self._WALL_CLOCK:
                kind = "wall-clock read"
            elif dotted in self._ENTROPY or dotted.startswith(self._ENTROPY_PREFIXES):
                kind = "host-entropy source"
            elif dotted.startswith(self._RNG_PREFIXES):
                kind = "direct RNG draw"
            else:
                continue
            yield RawFinding(
                node.lineno,
                node.col_offset,
                f"{kind} {dotted}() inside repro/{package}/; observers "
                "must be pure functions of simulated time (use "
                "EventLoop.now and deterministic counters)",
            )


class StaleSuppressionRule(Rule):
    """Suppression pragmas must stay honest.  This rule flags (a)
    ``repro-analyze`` pragmas naming a finding id that does not exist —
    the single-file half of suppression hygiene shared with the
    whole-program analyzer — and, via the runner, (b) *stale*
    ``repro-lint`` pragmas: a ``disable=`` comment naming a rule that no
    longer fires on that line.  A stale pragma reads as "this line is
    exempt for a reason" long after the reason is gone, and will mask
    the next genuine regression on that line.  (``repro-analyze``
    staleness needs the whole-program run and is reported there as
    A000.)"""

    id = "R010"
    name = "stale-suppression"
    severity = "warning"
    scoped = False

    def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:
        try:
            from ..analyze.findings import ANALYSIS_RULES
        except ImportError:  # pragma: no cover - analyze always ships with lint
            return
        from .pragmas import scan_foreign_pragmas

        known = list(ANALYSIS_RULES) + ["A000"]
        for error in scan_foreign_pragmas(ctx.source, "repro-analyze", known):
            yield RawFinding(error.line, 0, error.message)


#: Every implemented rule, in id order.  The runner instantiates these.
ALL_RULES: Tuple[type, ...] = (
    DirectRandomRule,
    WallClockRule,
    MutableDefaultRule,
    UnorderedIterationRule,
    RawUnitLiteralRule,
    HandlerGlobalMutationRule,
    NondeterministicSourceRule,
    BuiltinHashOrderRule,
    TracePurityRule,
    StaleSuppressionRule,
)

RULES_BY_ID: Dict[str, type] = {rule.id: rule for rule in ALL_RULES}
