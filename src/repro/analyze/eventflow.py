"""Simulated-time race detector (findings A001/A002).

The event loop fires same-timestamp events in *insertion order* — a
deterministic but implicit tie-break.  Whenever two different handlers
can be booked for the same instant and their effects touch overlapping
state, the simulation's outcome depends on which line of code happened
to schedule first: the heapq tie-break nondeterminism class that
single-file linting cannot see, because the two schedule sites usually
live in different modules (a fault injector's ``call_at`` vs a policy's
completion event).

The analysis proceeds in three steps:

1. **Schedule sites** — every ``call_at`` / ``call_after`` /
   ``schedule_service_event`` call, with its delay classified as a
   numeric constant, an absolute time, or symbolic, and its callback
   resolved to a program function where possible.
2. **Handler effects** — per handler, the transitive read/write sets
   over object state, computed through the call graph.  ``self``
   attributes are namespaced by the handler's *hierarchy root* class
   (``Scheduler.x``), so a base-class helper and a subclass override
   compare against the same field names; calls into methods known only
   by name (``worker.end()``) expand through every in-program class
   defining that method.
3. **Pairing** — two sites can tie when both use equal constant delays
   (A001) or when at least one books at an absolute, externally supplied
   time (A002).  A pair with conflicting effect sets becomes a finding,
   deduplicated per handler pair.

Everything here is a *hazard* report (severity ``warning``): the run is
still reproducible, but its outcome hangs on an undeclared ordering.
The runtime twin of this analysis is the tie-break shadow check in
:class:`repro.metrics.sanitizer.SimSanitizer`.
"""

from __future__ import annotations

import ast
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from .filerules import SIM_CRITICAL_PACKAGES
from .findings import AnalysisFinding, make_finding
from .model import ClassInfo, FunctionInfo, Program

#: (method attr name, delay argument index, callback argument index)
_SCHEDULE_METHODS = {
    "call_at": (0, 1),
    "call_after": (0, 1),
    "schedule_service_event": (1, 2),
}

#: Mutating method names treated as state effects on unresolved receivers.
_MUTATORS = frozenset(
    {
        "append", "appendleft", "add", "update", "extend", "insert",
        "pop", "popleft", "remove", "discard", "clear", "setdefault",
        "begin", "end", "fail", "recover", "cancel",
    }
)

#: Cap on call-graph expansion depth when closing effect sets.
_MAX_DEPTH = 5


class Effects(NamedTuple):
    reads: Set[str]
    writes: Set[str]


class ScheduleSite(NamedTuple):
    """One static ``call_at``/``call_after``/``schedule_service_event``."""

    scheduler_fn: FunctionInfo  # the function containing the call
    callback: Optional[FunctionInfo]
    method: str  # which scheduling API
    delay_kind: str  # "const" | "at" | "expr"
    delay_value: Optional[float]
    line: int
    col: int

    def where(self) -> str:
        return f"{self.scheduler_fn.module.path}:{self.line}"


def _classify_delay(method: str, expr: ast.AST) -> Tuple[str, Optional[float]]:
    if method == "call_at":
        if isinstance(expr, ast.Constant) and isinstance(expr.value, (int, float)):
            return "at", float(expr.value)
        return "at", None
    if isinstance(expr, ast.Constant) and isinstance(expr.value, (int, float)):
        return "const", float(expr.value)
    return "expr", None


def collect_schedule_sites(program: Program) -> List[ScheduleSite]:
    """Every static schedule call in the program, in source order."""
    sites: List[ScheduleSite] = []
    for fn in program.iter_functions():
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
                continue
            spec = _SCHEDULE_METHODS.get(node.func.attr)
            if spec is None:
                continue
            delay_idx, cb_idx = spec
            if len(node.args) <= cb_idx:
                continue
            kind, value = _classify_delay(node.func.attr, node.args[delay_idx])
            callback = _resolve_callback(program, fn, node.args[cb_idx])
            sites.append(
                ScheduleSite(
                    fn, callback, node.func.attr, kind, value,
                    node.lineno, node.col_offset,
                )
            )
    return sites


def _resolve_callback(
    program: Program, fn: FunctionInfo, expr: ast.AST
) -> Optional[FunctionInfo]:
    """Resolve a callback expression to its handler function."""
    if isinstance(expr, ast.Attribute):
        if isinstance(expr.value, ast.Name) and expr.value.id == "self" and fn.class_key:
            cls = program.classes.get(fn.class_key)
            if cls is not None:
                return program.resolve_method(cls, expr.attr)
        dotted = fn.module.dotted_name(expr)
        if dotted is not None:
            return program.functions.get(dotted)
        return None
    if isinstance(expr, ast.Name):
        name = expr.id
        local = program.functions.get(f"{fn.module.name}.{name}")
        if local is not None:
            return local
        dotted = fn.module.aliases.get(name)
        if dotted is not None:
            return program.functions.get(dotted)
    return None


class EffectAnalyzer:
    """Computes transitive handler effect sets over the program."""

    def __init__(self, program: Program):
        self.program = program
        self._cache: Dict[str, Effects] = {}
        # method name -> in-program functions defining it (for
        # name-only expansion of unresolved receivers).
        self._by_name: Dict[str, List[FunctionInfo]] = {}
        for fn in program.functions.values():
            if fn.class_key is not None:
                self._by_name.setdefault(fn.name, []).append(fn)

    # ------------------------------------------------------------------
    def _namespace(self, fn: FunctionInfo) -> str:
        """Hierarchy-root class name for ``self`` attributes, so a base
        helper and a subclass override talk about the same fields."""
        if fn.class_key is None:
            return fn.module.name
        cls = self.program.classes.get(fn.class_key)
        if cls is None:
            return fn.class_key.rsplit(".", 1)[-1]
        ancestry = self.program.ancestry(cls)
        return ancestry[-1].name

    def effects_of(self, fn: FunctionInfo) -> Effects:
        return self._effects(fn, depth=0, visiting=set())

    def _effects(self, fn: FunctionInfo, depth: int, visiting: Set[str]) -> Effects:
        cached = self._cache.get(fn.key)
        if cached is not None:
            return cached
        if fn.key in visiting or depth > _MAX_DEPTH:
            return Effects(set(), set())
        visiting = visiting | {fn.key}
        ns = self._namespace(fn)
        reads: Set[str] = set()
        writes: Set[str] = set()

        def self_key(attr: str) -> str:
            return f"{ns}.{attr}"

        for node in ast.walk(fn.node):
            if isinstance(node, ast.Attribute):
                if isinstance(node.value, ast.Name) and node.value.id == "self":
                    if isinstance(node.ctx, (ast.Store, ast.Del)):
                        writes.add(self_key(node.attr))
                    elif isinstance(node.ctx, ast.Load):
                        reads.add(self_key(node.attr))
                elif isinstance(node.ctx, (ast.Store, ast.Del)) and isinstance(
                    node.value, ast.Name
                ):
                    writes.add(f"*.{node.attr}")
            elif isinstance(node, ast.Subscript):
                # self.X[...] = ... mutates X.
                target = node.value
                if (
                    isinstance(node.ctx, (ast.Store, ast.Del))
                    and isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    writes.add(self_key(target.attr))
            elif isinstance(node, ast.Call):
                self._call_effects(fn, node, ns, reads, writes, depth, visiting)

        result = Effects(reads, writes)
        if depth == 0:
            self._cache[fn.key] = result
        return result

    def _call_effects(
        self,
        fn: FunctionInfo,
        call: ast.Call,
        ns: str,
        reads: Set[str],
        writes: Set[str],
        depth: int,
        visiting: Set[str],
    ) -> None:
        func = call.func
        # self.X.mutator(...) mutates the self attribute X.
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATORS
            and isinstance(func.value, ast.Attribute)
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id == "self"
        ):
            writes.add(f"{ns}.{func.value.attr}")
            return
        resolved = self.program.resolve_call(fn, call)
        if resolved is not None:
            sub = self._effects(resolved, depth + 1, visiting)
            reads.update(sub.reads)
            writes.update(sub.writes)
            return
        # Unresolved receiver: expand by method name when the program
        # defines it, else record mutators/handlers as symbolic writes.
        if isinstance(func, ast.Attribute):
            name = func.attr
            definers = self._by_name.get(name, ())
            if definers and (name in _MUTATORS or name.startswith(("on_", "handle_"))):
                for target in definers:
                    sub = self._effects(target, depth + 1, visiting)
                    reads.update(sub.reads)
                    writes.update(sub.writes)
                writes.add(f"*.{name}()")
            elif name in _MUTATORS or name.startswith(("on_", "handle_")):
                writes.add(f"*.{name}()")


def _conflict(a: Effects, b: Effects) -> Set[str]:
    """State keys where one handler's writes meet the other's accesses."""
    return (a.writes & b.writes) | (a.writes & b.reads) | (b.writes & a.reads)


def _tie_reason(a: ScheduleSite, b: ScheduleSite) -> Optional[Tuple[str, str]]:
    """(rule_id, human reason) when the two sites can book the same
    timestamp; None otherwise."""
    if a.delay_kind == "const" and b.delay_kind == "const":
        if a.delay_value == b.delay_value:
            return "A001", f"both schedule with the same constant delay ({a.delay_value:g}us)"
        return None
    if a.delay_kind == "at" or b.delay_kind == "at":
        if (
            a.delay_kind == "at"
            and b.delay_kind == "at"
            and a.delay_value is not None
            and b.delay_value is not None
            and a.delay_value != b.delay_value
        ):
            return None
        return (
            "A002",
            "an absolute-time schedule (externally supplied timestamp) can "
            "land on the same instant as the other site",
        )
    return None


def _sim_critical(fn: FunctionInfo) -> bool:
    pkg = fn.module.package
    return pkg is None or pkg in SIM_CRITICAL_PACKAGES


def analyze_eventflow(program: Program) -> List[AnalysisFinding]:
    """Run the race detector over ``program``."""
    sites = [s for s in collect_schedule_sites(program) if s.callback is not None]
    sites = [s for s in sites if _sim_critical(s.callback) and _sim_critical(s.scheduler_fn)]
    analyzer = EffectAnalyzer(program)
    findings: List[AnalysisFinding] = []
    reported: Set[Tuple[str, str, str]] = set()
    for i, a in enumerate(sites):
        for b in sites[i + 1:]:
            if a.callback.key == b.callback.key:
                continue  # same handler twice: order among equals is benign
            reason = _tie_reason(a, b)
            if reason is None:
                continue
            rule_id, why = reason
            pair = tuple(sorted((a.callback.key, b.callback.key)))
            if (rule_id, pair[0], pair[1]) in reported:
                continue
            conflict = _conflict(
                analyzer.effects_of(a.callback), analyzer.effects_of(b.callback)
            )
            if not conflict:
                continue
            reported.add((rule_id, pair[0], pair[1]))
            first, second = sorted((a, b), key=lambda s: (s.scheduler_fn.module.path, s.line))
            keys = ", ".join(sorted(conflict)[:6])
            findings.append(
                make_finding(
                    rule_id,
                    first.scheduler_fn.module.path,
                    first.line,
                    first.col,
                    f"handlers {first.callback.qualname}() and "
                    f"{second.callback.qualname}() (scheduled at {second.where()}) "
                    f"can fire at the same timestamp — {why} — and their effects "
                    f"overlap on: {keys}; only heap insertion order decides the "
                    "outcome, so state the tie-break explicitly or suppress with "
                    "justification",
                    symbol="~".join(pair),
                )
            )
    return findings
