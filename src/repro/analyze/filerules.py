"""Single-module determinism rules (findings A701–A708).

Every rule here reads one module at a time, over the :class:`Program`
that :func:`~repro.analyze.model.build_program` already parsed.  Each
module's tree is walked once; the walk records every node with its
enclosing def/class scope, indexed by node type, and every rule reads
that shared index instead of walking the tree again.  The rules guard
properties the discrete-event simulation needs to stay credible:
determinism under a fixed seed, simulated-time purity, and explicit
units.

Scoping
-------
A module's *package* is the first dotted component below ``repro``
(``sim``, ``core``, ``policies``, ...; see
:attr:`~repro.analyze.model.ModuleInfo.package`).  Driver and reporting
code (``cli``, ``experiments``, ``metrics``, ``analyze``) may
legitimately touch wall clocks and host state, so the scoped rules
(A702, A704, A705, A706, A708) skip it.  The closed forms in ``theory``
touch neither, so they are held to the sim-critical rules.  A module
with no package — a fixture file outside any ``repro`` tree — is
treated as sim-critical, which errs toward reporting.

The observer packages (``trace``, ``telemetry``, ``sweep``, ``rack``,
``forensics``) are A301's: a wall-clock read, direct RNG draw or host
entropy source there is an observer-purity finding, so A701, A702 and
A707 leave those modules alone rather than report the same call twice.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from .findings import AnalysisFinding, make_finding
from .model import ModuleInfo, Program

#: Packages whose code runs *inside* simulated time (the event-flow and
#: contract analyses key on this list).
SIM_CRITICAL_PACKAGES = frozenset(
    {
        "sim",
        "core",
        "policies",
        "systems",
        "server",
        "workload",
        "rack",
        "apps",
        "faults",
    }
)

#: Packages under ``repro/`` that the scoped rules skip: reporting,
#: drivers, and the analyzer itself.
DRIVER_PACKAGES = frozenset({"cli", "experiments", "metrics", "analyze"})

#: Packages bound by the pure-observer contract (A301).  ``rack`` is held
#: to the same bar: its balancers draw only from named registry streams.
#: ``forensics`` only reads exported artifacts, but its stores must be
#: byte-identical across re-collections.
OBSERVER_PACKAGES = ("trace", "telemetry", "sweep", "rack", "forensics")

WALL_CLOCK = frozenset(
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
ENTROPY = frozenset({"uuid.uuid1", "uuid.uuid4", "os.urandom", "os.getpid", "os.getrandom"})
ENTROPY_PREFIXES = ("secrets.",)
RNG_PREFIXES = ("random.", "numpy.random.")

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
_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
_MUTATORS = frozenset(
    {"append", "add", "update", "extend", "insert", "pop", "popleft",
     "remove", "discard", "clear", "setdefault", "appendleft"}
)
_UNIT_MAGIC = (1_000_000, 1_000_000_000)
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def observer_package(module: ModuleInfo) -> str:
    """The observer package ``module`` belongs to, or ``""``."""
    posix = module.path.replace("\\", "/")
    for package in OBSERVER_PACKAGES:
        if module.package == package or f"/{package}/" in posix:
            return package
    return ""


def is_sim_critical(module: ModuleInfo) -> bool:
    """True when the scoped rules apply to ``module``."""
    return module.package is None or module.package not in DRIVER_PACKAGES


class _Scope:
    """Where a node sits: the dotted enclosing def/class names, the
    innermost enclosing function, and the innermost enclosing
    ``on_*``/``handle_*`` event handler."""

    __slots__ = ("name", "function", "handler")

    def __init__(self, name: str, function: Optional[str], handler: Optional[str]):
        self.name = name
        self.function = function
        self.handler = handler

    def enter(self, node: ast.AST) -> "_Scope":
        name = node.name if self.name == "<module>" else f"{self.name}.{node.name}"
        if isinstance(node, ast.ClassDef):
            return _Scope(name, self.function, self.handler)
        handler = node.name if node.name.startswith(("on_", "handle_")) else self.handler
        return _Scope(name, node.name, handler)


Located = Tuple[ast.AST, _Scope]


class ModuleNodes:
    """One walk of a module: every node with its scope, by node type,
    plus each call's callee resolved through the import table."""

    def __init__(self, module: ModuleInfo):
        self.module = module
        self.basename = module.path.replace("\\", "/").rsplit("/", 1)[-1]
        self.by_type: Dict[type, List[Located]] = {}
        by_type = self.by_type
        stack: List[Located] = [(module.tree, _Scope("<module>", None, None))]
        while stack:
            node, scope = stack.pop()
            for child in ast.iter_child_nodes(node):
                by_type.setdefault(type(child), []).append((child, scope))
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    stack.append((child, scope.enter(child)))
                else:
                    stack.append((child, scope))
        dotted_name = module.dotted_name
        self.calls: List[Tuple[ast.Call, _Scope, Optional[str]]] = [
            (call, scope, dotted_name(call.func)) for call, scope in self.of(ast.Call)
        ]

    def of(self, *types: type) -> Iterator[Located]:
        for node_type in types:
            yield from self.by_type.get(node_type, ())


#: A rule hit before it becomes a finding: anchor node, scope, a symbol
#: detail that tells hits in one scope apart, and the message.
Hit = Tuple[ast.AST, _Scope, str, str]


def _direct_random(nodes: ModuleNodes) -> Iterator[Hit]:
    if nodes.basename == "randomness.py":
        return
    for call, scope, dotted in nodes.calls:
        if dotted is not None and dotted.startswith(RNG_PREFIXES):
            yield call, scope, dotted, (
                f"direct RNG call {dotted}() bypasses sim.randomness; "
                "draw from an RngRegistry stream instead"
            )


def _wall_clock(nodes: ModuleNodes) -> Iterator[Hit]:
    for call, scope, dotted in nodes.calls:
        if dotted in WALL_CLOCK:
            yield call, scope, dotted, (
                f"wall-clock call {dotted}() inside simulation code; "
                "use the event loop's simulated time (EventLoop.now)"
            )


def _is_mutable(node: ast.AST, module: ModuleInfo) -> bool:
    if isinstance(node, _MUTABLE_LITERALS):
        return True
    return isinstance(node, ast.Call) and module.dotted_name(node.func) in _MUTABLE_CALLS


def _mutable_default(nodes: ModuleNodes) -> Iterator[Hit]:
    for fn, scope in nodes.of(*_DEFS):
        args = fn.args
        positional = args.posonlyargs + args.args
        pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
        pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        for arg, default in pairs:
            if _is_mutable(default, nodes.module):
                yield default, scope.enter(fn), arg.arg, (
                    f"mutable default argument in {fn.name}(); "
                    "default to None and create the object in the body"
                )


def _name_key(node: ast.AST) -> Optional[str]:
    """``"x"`` or ``"self.x"`` for a name or one-level attribute."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return f"{node.value.id}.{node.attr}"
    return None


def _is_set_expr(node: ast.AST, module: ModuleInfo) -> bool:
    return isinstance(node, (ast.Set, ast.SetComp)) or (
        isinstance(node, ast.Call) and module.dotted_name(node.func) in ("set", "frozenset")
    )


def _set_typed_names(nodes: ModuleNodes) -> Set[str]:
    """Names (``x`` or ``self.x``) assigned or annotated as a set."""
    names: Set[str] = set()
    for node, _ in nodes.of(ast.Assign, ast.AnnAssign):
        if isinstance(node, ast.AnnAssign):
            targets = [node.target]
            ann = ast.unparse(node.annotation)
            if "Set[" in ann or ann in ("set", "Set", "frozenset", "FrozenSet"):
                names.update(filter(None, map(_name_key, targets)))
                continue
        else:
            targets = node.targets
        if node.value is not None and _is_set_expr(node.value, nodes.module):
            names.update(filter(None, map(_name_key, targets)))
    return names


def _unordered_iteration(nodes: ModuleNodes) -> Iterator[Hit]:
    loops = list(nodes.of(ast.For, ast.AsyncFor))
    if not loops:
        return
    set_named = _set_typed_names(nodes)
    for loop, scope in loops:
        it = loop.iter
        if _is_set_expr(it, nodes.module) or _name_key(it) in set_named:
            yield it, scope, _name_key(it) or "set", (
                "iteration over an unordered set in simulation code; "
                "wrap in sorted(...) or use an ordered container"
            )


def _raw_unit_literal(nodes: ModuleNodes) -> Iterator[Hit]:
    if nodes.basename == "units.py":
        return
    for node, scope in nodes.of(ast.BinOp):
        if not isinstance(node.op, (ast.Mult, ast.Div)):
            continue
        for side in (node.left, node.right):
            if (
                isinstance(side, ast.Constant)
                and isinstance(side.value, (int, float))
                and not isinstance(side.value, bool)
                and abs(side.value) in _UNIT_MAGIC
            ):
                yield side, scope, repr(side.value), (
                    f"raw unit-conversion literal {side.value!r}; "
                    "use repro.sim.units helpers (seconds(), nanoseconds(), ...)"
                )


def _module_level_names(module: ModuleInfo) -> Set[str]:
    names: Set[str] = set()
    for node in module.tree.body:
        if isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def _handler_global_mutation(nodes: ModuleNodes) -> Iterator[Hit]:
    for node, scope in nodes.of(ast.Global):
        if scope.function is not None:
            yield node, scope, f"global {','.join(node.names)}", (
                f"'global {', '.join(node.names)}' in {scope.function}(); "
                "simulation state must live on per-run objects"
            )
    module_names = _module_level_names(nodes.module)
    if not module_names:
        return
    for node, scope in nodes.of(ast.Subscript):
        if (
            scope.handler is not None
            and isinstance(node.ctx, (ast.Store, ast.Del))
            and isinstance(node.value, ast.Name)
            and node.value.id in module_names
        ):
            yield node, scope, node.value.id, (
                f"event handler {scope.handler}() mutates module-level "
                f"'{node.value.id}'; move it onto the scheduler/server"
            )
    for call, scope, _ in nodes.calls:
        func = call.func
        if (
            scope.handler is not None
            and isinstance(func, ast.Attribute)
            and func.attr in _MUTATORS
            and isinstance(func.value, ast.Name)
            and func.value.id in module_names
        ):
            yield call, scope, func.value.id, (
                f"event handler {scope.handler}() mutates module-level "
                f"'{func.value.id}' via .{func.attr}(); "
                "move it onto the scheduler/server"
            )


def _nondeterministic_source(nodes: ModuleNodes) -> Iterator[Hit]:
    for call, scope, dotted in nodes.calls:
        if dotted is not None and (dotted in ENTROPY or dotted.startswith(ENTROPY_PREFIXES)):
            yield call, scope, dotted, (
                f"nondeterministic source {dotted}(); derive values from "
                "RngRegistry or a deterministic counter"
            )


def _builtin_hash_order(nodes: ModuleNodes) -> Iterator[Hit]:
    if nodes.module.aliases.get("hash", "hash") != "hash":
        return  # an imported ``hash`` is not the builtin
    for call, scope, _ in nodes.calls:
        if isinstance(call.func, ast.Name) and call.func.id == "hash":
            yield call, scope, "hash", (
                "builtin hash() is process-salted for str/bytes; "
                "use a stable digest for any ordering/steering decision"
            )


#: rule id -> (check, sim-critical packages only, skipped in observer packages)
RULES: Dict[str, Tuple[Callable[[ModuleNodes], Iterator[Hit]], bool, bool]] = {
    "A701": (_direct_random, False, True),
    "A702": (_wall_clock, True, True),
    "A703": (_mutable_default, False, False),
    "A704": (_unordered_iteration, True, False),
    "A705": (_raw_unit_literal, True, False),
    "A706": (_handler_global_mutation, True, False),
    "A707": (_nondeterministic_source, False, True),
    "A708": (_builtin_hash_order, True, False),
}


def analyze_filerules(program: Program) -> List[AnalysisFinding]:
    """Run the A7xx rules over every module of ``program``."""
    findings: List[AnalysisFinding] = []
    for module in program.modules.values():
        nodes = ModuleNodes(module)
        critical = is_sim_critical(module)
        observer = bool(observer_package(module))
        for rule_id, (check, scoped, observer_exempt) in RULES.items():
            if (scoped and not critical) or (observer_exempt and observer):
                continue
            for node, scope, detail, message in check(nodes):
                findings.append(
                    make_finding(
                        rule_id,
                        module.path,
                        node.lineno,
                        node.col_offset,
                        message,
                        symbol=f"{module.name}.{scope.name}:{detail}",
                    )
                )
    return findings
