"""Profile-guided hot-path performance analysis (A401–A406).

The engine executes tens of thousands of events per simulated second;
every Python-level slow idiom on the dispatch path — an allocation per
event, a ``__dict__`` lookup chain, an f-string that is never read —
multiplies by the event count.  This pass computes the set of functions
*transitively reachable from the event loop's dispatch* and reports the
slow idioms inside that set:

* **A401 allocation-in-hot-loop** — comprehensions/``sorted`` anywhere
  in a hot function; collection literals, allocating builtins, slices,
  and set-operator methods inside an explicit loop of a hot function.
* **A402 missing-``__slots__``** — an in-program class constructed on
  the hot path whose ancestry never declares ``__slots__``: every
  instance pays a ``__dict__`` and every attribute access a hash probe.
* **A403 repeated-attribute-lookup** — a depth-≥2 attribute chain
  (``self.x.y``) loaded two or more times in one hot function with no
  intervening store: each load re-walks the chain; hoist it to a local.
* **A404 string-formatting-on-hot-path** — f-strings, ``str.format``,
  ``%``-formatting, ``print``/``logging``/``warnings`` in hot functions
  (``raise``/``assert`` payloads and ``__repr__``/``__str__`` exempt).
* **A405 exception-driven-control-flow** — a ``try`` whose handlers
  catch only lookup errors around a single simple statement: CPython
  zero-cost ``try`` still pays on the *miss*, and a precheck reads
  clearer.
* **A406 trivial-delegation** — a hot function whose entire body is
  ``return other(args...)`` with pass-through arguments: one Python
  call frame per event spent on indirection.

**Hot roots** are found structurally, not by hard-coded module paths, so
the pass works on fixture trees as well as the shipped package: the
event loop's ``run``/``Server.ingress`` by qualname, every scheduler
contract method (classes providing both ``on_request`` and
``on_worker_free``), classifier ``classify``/``_classify`` pairs, the
loop hook and per-request push hooks of every observer (a class
defining ``on_loop_event``), and —
most importantly — **every callback passed to a scheduling call**
(``call_at``/``call_after``/``schedule_service_event``) anywhere in the
program: anything booked on the loop runs on the loop.  Reachability
closes over :meth:`Program.resolve_call` and widens dynamically
dispatched methods to their subclass overrides.

When a benchmark-suite span file (``benchmarks/suite/run.py --spans``)
is supplied, findings rank by the measured wall-time of the spans whose
functions reach them — the triage order is then *measured*, not
guessed.  Profile data never changes which findings fire or their
fingerprints; it only orders the report.
"""

from __future__ import annotations

import ast
import json
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..errors import AnalysisError
from .findings import AnalysisFinding, make_finding
from .model import ClassInfo, FunctionInfo, Program

#: Scheduling entry points: a callable argument at any call site whose
#: callee bears one of these names will execute on the event loop.
SCHEDULE_METHODS = {"call_at", "call_after", "schedule_service_event"}

#: Methods treated as hot on every scheduler-shaped class (a class whose
#: ancestry provides both ``on_request`` and ``on_worker_free``).
SCHEDULER_HOT_METHODS = (
    "on_request",
    "on_worker_free",
    "begin_service",
    "_complete",
    "completion_hook",
    "drop",
)

#: Methods treated as hot on every observer-shaped class (a class that
#: defines ``on_loop_event``, which the event loop calls after every
#: event): the loop hook itself plus the per-request push hooks.  Hook
#: sites reach observers through attributes (``self.tracer``) that call
#: resolution cannot follow, so the roots are named here.
OBSERVER_HOT_METHODS = (
    "on_loop_event",
    "on_ingress",
    "on_classified",
    "on_dispatch",
    "on_complete",
    "on_drop",
)

#: Qualnames that are hot by construction: the loop, server ingress,
#: and the rack front door and balancer routing every arrival.
ROOT_QUALNAMES = {
    "EventLoop.run",
    "Server.ingress",
    "Rack.ingress",
    "RackBalancer.ingress",
}

_ALLOC_BUILTINS = {"list", "dict", "set", "frozenset", "tuple"}
_SET_METHODS = {"intersection", "union", "difference", "symmetric_difference"}
_COMP_NODES = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_NARROW_EXCEPTIONS = {"KeyError", "IndexError", "AttributeError", "StopIteration"}
_LOG_ROOTS = {"logging", "warnings"}


# ----------------------------------------------------------------------
# root detection + reachability
# ----------------------------------------------------------------------
def _callback_target(
    program: Program, fn: FunctionInfo, arg: ast.AST
) -> Optional[FunctionInfo]:
    """Resolve a callback argument (``self._emit``, bare name) to the
    function it will invoke when the event fires."""
    module = fn.module
    if isinstance(arg, ast.Attribute) and isinstance(arg.value, ast.Name):
        if arg.value.id == "self" and fn.class_key is not None:
            cls = program.classes.get(fn.class_key)
            if cls is not None:
                return program.resolve_method(cls, arg.attr)
        dotted = module.dotted_name(arg)
        if dotted is not None:
            return program.functions.get(dotted)
        return None
    if isinstance(arg, ast.Name):
        name = arg.id
        if name not in module.aliases:
            local = program.functions.get(f"{module.name}.{name}")
            if local is not None and local.class_key is None:
                return local
        dotted = module.aliases.get(name)
        if dotted is not None:
            return program.functions.get(dotted)
    return None


def _call_name(call: ast.Call) -> Optional[str]:
    """Terminal name of a call's callee (``loop.call_after`` -> ``call_after``)."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _scheduled_callbacks(program: Program) -> List[FunctionInfo]:
    """Every function passed as a callback to a scheduling call, program
    wide — scheduled work runs on the loop regardless of who booked it."""
    found: Dict[str, FunctionInfo] = {}
    for fn in program.iter_functions():
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            if _call_name(node) not in SCHEDULE_METHODS:
                continue
            for arg in node.args:
                target = _callback_target(program, fn, arg)
                if target is not None:
                    found[target.key] = target
    return list(found.values())


def _structural_roots(program: Program) -> List[FunctionInfo]:
    roots: Dict[str, FunctionInfo] = {}
    for fn in program.iter_functions():
        if fn.qualname in ROOT_QUALNAMES:
            roots[fn.key] = fn
    for cls in program.classes.values():
        on_request = program.resolve_method(cls, "on_request")
        on_free = program.resolve_method(cls, "on_worker_free")
        if on_request is not None and on_free is not None:
            for name in SCHEDULER_HOT_METHODS:
                method = program.resolve_method(cls, name)
                if method is not None:
                    roots[method.key] = method
        if "on_loop_event" in cls.methods:
            for name in OBSERVER_HOT_METHODS:
                method = program.resolve_method(cls, name)
                if method is not None:
                    roots[method.key] = method
        classify = program.resolve_method(cls, "classify")
        classify_hook = program.resolve_method(cls, "_classify")
        if classify is not None and classify_hook is not None:
            roots[classify.key] = classify
            roots[classify_hook.key] = classify_hook
    return list(roots.values())


def hot_roots(program: Program) -> List[FunctionInfo]:
    """The dispatch entry points reachability starts from."""
    roots: Dict[str, FunctionInfo] = {}
    for fn in _structural_roots(program):
        roots[fn.key] = fn
    for fn in _scheduled_callbacks(program):
        roots[fn.key] = fn
    return sorted(roots.values(), key=lambda f: f.key)


def _callees(program: Program, fn: FunctionInfo) -> List[FunctionInfo]:
    """Statically resolvable callees of ``fn``, widened over dynamic
    dispatch: a resolved method drags in every same-named subclass
    override, since the receiver's concrete type is unknown."""
    out: Dict[str, FunctionInfo] = {}
    for node in ast.walk(fn.node):
        if not isinstance(node, ast.Call):
            continue
        resolved = program.resolve_call(fn, node)
        if resolved is None:
            continue
        out[resolved.key] = resolved
        if resolved.class_key is not None:
            for sub in program.subclasses_of(resolved.class_key):
                override = sub.methods.get(resolved.name)
                if override is not None:
                    out[override.key] = override
    return list(out.values())


def hot_functions(program: Program) -> Dict[str, FunctionInfo]:
    """Transitive closure of :func:`hot_roots` over the call graph."""
    hot: Dict[str, FunctionInfo] = {}
    stack = hot_roots(program)
    while stack:
        fn = stack.pop()
        if fn.key in hot:
            continue
        hot[fn.key] = fn
        stack.extend(_callees(program, fn))
    return hot


# ----------------------------------------------------------------------
# shared AST helpers
# ----------------------------------------------------------------------
def _exempt_nodes(fn: FunctionInfo) -> Set[int]:
    """ids of nodes inside ``raise``/``assert`` statements — error paths
    are allowed to allocate and format."""
    exempt: Set[int] = set()
    for node in ast.walk(fn.node):
        if isinstance(node, (ast.Raise, ast.Assert)):
            for sub in ast.walk(node):
                exempt.add(id(sub))
    return exempt


def _loop_regions(fn: FunctionInfo) -> List[Tuple[ast.AST, List[ast.AST]]]:
    """Each explicit loop with the nodes executed per entry: the body
    (and ``orelse``) plus, for ``for`` loops, the iterable expression —
    a fresh slice or list built there is rebuilt on every call."""
    regions = []
    for node in ast.walk(fn.node):
        if isinstance(node, (ast.For, ast.While)):
            nodes: List[ast.AST] = []
            if isinstance(node, ast.For):
                nodes.extend(ast.walk(node.iter))
            for stmt in list(node.body) + list(node.orelse):
                nodes.extend(ast.walk(stmt))
            regions.append((node, nodes))
    return regions


def _attr_chain(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """Linearize ``a.b.c`` to ``("a", "b", "c")``; None for non-Name roots."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return tuple(reversed(parts))


def _is_str_constant(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


# ----------------------------------------------------------------------
# the six rules
# ----------------------------------------------------------------------
def _check_a401(fn: FunctionInfo, out: List[AnalysisFinding]) -> None:
    exempt = _exempt_nodes(fn)
    path = fn.module.path
    flagged: Set[int] = set()

    def emit(node: ast.AST, what: str, slug: str) -> None:
        if id(node) in exempt or id(node) in flagged:
            return
        flagged.add(id(node))
        out.append(
            make_finding(
                "A401",
                path,
                node.lineno,
                node.col_offset,
                f"{what} in hot-path function {fn.qualname}: allocates per "
                "event; build once outside the hot path or use a "
                "preallocated structure",
                symbol=f"{fn.key}:{slug}",
            )
        )

    # Comprehensions and sorted() allocate wherever they appear in a hot
    # function — the function itself runs once per event.
    for node in ast.walk(fn.node):
        if isinstance(node, _COMP_NODES):
            kind = {
                ast.ListComp: "list comprehension",
                ast.SetComp: "set comprehension",
                ast.DictComp: "dict comprehension",
                ast.GeneratorExp: "generator expression",
            }[type(node)]
            emit(node, kind, f"comp:{node.lineno - fn.lineno}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "sorted" and "sorted" not in fn.module.aliases:
                emit(node, "sorted() call", "sorted")

    # Inside explicit loops, plain literals / allocating builtins /
    # slices / set-operator methods are per-iteration costs.
    for _loop, nodes in _loop_regions(fn):
        for node in nodes:
            if isinstance(node, (ast.List, ast.Set)) and node.elts:
                emit(node, "collection literal", "literal")
            elif isinstance(node, ast.Dict) and node.keys:
                emit(node, "dict literal", "literal")
            elif isinstance(node, ast.Call):
                name = _call_name(node)
                if (
                    isinstance(node.func, ast.Name)
                    and name in _ALLOC_BUILTINS
                    and name not in fn.module.aliases
                ):
                    emit(node, f"{name}() construction", f"builtin:{name}")
                elif isinstance(node.func, ast.Attribute) and name in _SET_METHODS:
                    emit(node, f"set.{name}() call", f"setop:{name}")
            elif isinstance(node, ast.Subscript) and isinstance(
                node.slice, ast.Slice
            ):
                emit(node, "slice (copies the sequence)", "slice")


def _ancestry_has_slots(program: Program, cls: ClassInfo) -> bool:
    return any(
        "__slots__" in ancestor.class_attrs for ancestor in program.ancestry(cls)
    )


def _constructed_class(
    program: Program, fn: FunctionInfo, call: ast.Call
) -> Optional[ClassInfo]:
    """The in-program class a call constructs, if any."""
    func = call.func
    module = fn.module
    dotted: Optional[str] = None
    if isinstance(func, ast.Name):
        name = func.id
        if name not in module.aliases and f"{module.name}.{name}" in program.classes:
            dotted = f"{module.name}.{name}"
        else:
            dotted = module.aliases.get(name)
    elif isinstance(func, ast.Attribute):
        dotted = module.dotted_name(func)
    if dotted is None:
        return None
    return program.classes.get(dotted)


def _check_a402(
    program: Program, fn: FunctionInfo, out: List[AnalysisFinding]
) -> None:
    exempt = _exempt_nodes(fn)
    seen: Set[str] = set()
    for node in ast.walk(fn.node):
        if not isinstance(node, ast.Call) or id(node) in exempt:
            continue
        cls = _constructed_class(program, fn, node)
        if cls is None or cls.key in seen:
            continue
        if program.is_subclass_of(cls, "Exception") or cls.name.endswith("Error"):
            continue
        if _ancestry_has_slots(program, cls):
            continue
        seen.add(cls.key)
        out.append(
            make_finding(
                "A402",
                cls.module.path,
                cls.lineno,
                cls.node.col_offset,
                f"class {cls.name} is instantiated on the hot path (in "
                f"{fn.qualname}) but declares no __slots__: every instance "
                "carries a __dict__ and every attribute access hashes",
                symbol=f"{cls.key}:slots",
            )
        )


def _check_a403(fn: FunctionInfo, out: List[AnalysisFinding]) -> None:
    # Roots/prefixes written anywhere in the function invalidate hoisting.
    stored_names: Set[str] = set()
    stored_chains: Set[Tuple[str, ...]] = set()
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            stored_names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            chain = _attr_chain(node)
            if chain is not None:
                stored_chains.add(chain)

    counts: Dict[Tuple[str, ...], List[ast.Attribute]] = {}

    class _Loads(ast.NodeVisitor):
        def visit_Attribute(self, node: ast.Attribute) -> None:
            chain = _attr_chain(node)
            if (
                chain is not None
                and len(chain) >= 3  # root + two attributes
                and isinstance(node.ctx, ast.Load)
            ):
                counts.setdefault(chain, []).append(node)
                return  # do not descend: inner chains are prefixes
            self.generic_visit(node)

    _Loads().visit(fn.node)
    for chain, sites in sorted(counts.items()):
        if len(sites) < 2:
            continue
        if chain[0] in stored_names:
            continue
        if any(chain[: k] in stored_chains for k in range(2, len(chain) + 1)):
            continue
        first = min(sites, key=lambda n: (n.lineno, n.col_offset))
        dotted = ".".join(chain)
        out.append(
            make_finding(
                "A403",
                fn.module.path,
                first.lineno,
                first.col_offset,
                f"attribute chain {dotted} is looked up {len(sites)} times in "
                f"hot-path function {fn.qualname}; hoist it to a local "
                "(or cache it at construction when it never changes)",
                symbol=f"{fn.key}:{dotted}",
            )
        )


def _check_a404(fn: FunctionInfo, out: List[AnalysisFinding]) -> None:
    if fn.name in ("__repr__", "__str__"):
        return
    exempt = _exempt_nodes(fn)
    path = fn.module.path

    def emit(node: ast.AST, what: str, slug: str) -> None:
        if id(node) in exempt:
            return
        out.append(
            make_finding(
                "A404",
                path,
                node.lineno,
                node.col_offset,
                f"{what} in hot-path function {fn.qualname}: string building "
                "and I/O cost per event even when the output is discarded; "
                "move it off the hot path or behind a level check",
                symbol=f"{fn.key}:{slug}",
            )
        )

    for node in ast.walk(fn.node):
        if isinstance(node, ast.JoinedStr):
            emit(node, "f-string", f"fstring:{node.lineno - fn.lineno}")
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
            if _is_str_constant(node.left):
                emit(node, "%-formatting", f"percent:{node.lineno - fn.lineno}")
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "print":
                emit(node, "print() call", "print")
            elif isinstance(func, ast.Attribute):
                if func.attr == "format" and _is_str_constant(func.value):
                    emit(node, "str.format() call", f"format:{node.lineno - fn.lineno}")
                else:
                    chain = _attr_chain(func)
                    if chain is not None:
                        root = fn.module.aliases.get(chain[0], chain[0])
                        if root.split(".")[0] in _LOG_ROOTS:
                            emit(node, f"{'.'.join(chain)}() call", f"log:{func.attr}")


def _handler_names(handler: ast.ExceptHandler) -> Optional[List[str]]:
    """Exception class names a handler catches; None when not statically
    narrow (bare except, non-name expressions)."""
    if handler.type is None:
        return None
    nodes = (
        list(handler.type.elts)
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    names = []
    for node in nodes:
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
        else:
            return None
    return names


def _check_a405(fn: FunctionInfo, out: List[AnalysisFinding]) -> None:
    for node in ast.walk(fn.node):
        if not isinstance(node, ast.Try):
            continue
        if len(node.body) != 1 or not isinstance(
            node.body[0], (ast.Assign, ast.AugAssign, ast.Expr, ast.Return)
        ):
            continue
        caught: List[str] = []
        narrow = True
        for handler in node.handlers:
            names = _handler_names(handler)
            if names is None or not set(names) <= _NARROW_EXCEPTIONS:
                narrow = False
                break
            caught.extend(names)
        if not narrow or not caught:
            continue
        out.append(
            make_finding(
                "A405",
                fn.module.path,
                node.lineno,
                node.col_offset,
                f"try/except {'/'.join(sorted(set(caught)))} around a single "
                f"statement in hot-path function {fn.qualname}: the handler "
                "costs ~10x a precheck on every miss; use .get()/a "
                "membership test instead",
                symbol=f"{fn.key}:try:{'/'.join(sorted(set(caught)))}",
            )
        )


def _body_statements(fn: FunctionInfo) -> List[ast.stmt]:
    body = list(fn.node.body)
    if body and isinstance(body[0], ast.Expr) and _is_str_constant(body[0].value):
        body = body[1:]
    return body


def _check_a406(
    program: Program, fn: FunctionInfo, out: List[AnalysisFinding]
) -> None:
    body = _body_statements(fn)
    if len(body) != 1 or not isinstance(body[0], ast.Return):
        return
    value = body[0].value
    if not isinstance(value, ast.Call) or value.keywords:
        return
    if not all(isinstance(arg, ast.Name) for arg in value.args):
        return
    resolved = program.resolve_call(fn, value)
    if resolved is None or resolved.key == fn.key:
        return
    out.append(
        make_finding(
            "A406",
            fn.module.path,
            fn.lineno,
            fn.node.col_offset,
            f"hot-path function {fn.qualname} only delegates to "
            f"{resolved.qualname}: one extra call frame per event; inline "
            "the callee or bind it directly at the call sites",
            symbol=f"{fn.key}:delegates:{resolved.key}",
        )
    )


# ----------------------------------------------------------------------
# entry point + profile weighting
# ----------------------------------------------------------------------
def analyze_hotpath(program: Program) -> List[AnalysisFinding]:
    """Run A401–A406 over the hot reachability set."""
    findings: List[AnalysisFinding] = []
    hot = hot_functions(program)
    for key in sorted(hot):
        fn = hot[key]
        _check_a401(fn, findings)
        _check_a402(program, fn, findings)
        _check_a403(fn, findings)
        _check_a404(fn, findings)
        _check_a405(fn, findings)
        _check_a406(program, fn, findings)
    # A402 is emitted per class but may be reached from many hot
    # functions — keep the first (lowest path/line) emission only.
    deduped: Dict[str, AnalysisFinding] = {}
    for finding in findings:
        existing = deduped.get(finding.fingerprint)
        if existing is None or (finding.path, finding.line) < (
            existing.path,
            existing.line,
        ):
            deduped[finding.fingerprint] = finding
    return sorted(
        deduped.values(), key=lambda f: (f.path, f.line, f.col, f.rule_id)
    )


def load_profile(path: str) -> Dict[str, float]:
    """A suite ``run.py --spans`` JSON-lines file -> {span name: summed
    inclusive seconds}.

    Span names are ``Class.method`` / ``__qualname__`` strings, so they
    match :attr:`FunctionInfo.qualname`.
    """
    out: Dict[str, float] = {}
    try:
        with open(path, "r", encoding="utf-8") as fp:
            for lineno, line in enumerate(fp, 1):
                if not line.strip():
                    continue
                span = json.loads(line)
                if not (
                    isinstance(span, dict)
                    and isinstance(span.get("name"), str)
                    and isinstance(span.get("start"), (int, float))
                    and isinstance(span.get("end"), (int, float))
                ):
                    raise AnalysisError(
                        f"{path}:{lineno} is not a span "
                        "(write spans with benchmarks/suite/run.py --spans)"
                    )
                out[span["name"]] = out.get(span["name"], 0.0) + (
                    span["end"] - span["start"]
                )
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise AnalysisError(f"cannot read spans {path}: {exc}") from exc
    return out


def function_weights(
    program: Program, profile: Dict[str, float]
) -> Dict[str, float]:
    """Measured seconds attributed to each function: the sum of span
    time over every span whose function's closure reaches it."""
    weights: Dict[str, float] = {}
    for qualname, seconds in profile.items():
        matches = [
            fn for fn in program.functions.values() if fn.qualname == qualname
        ]
        for root in matches:
            seen: Set[str] = set()
            stack = [root]
            while stack:
                fn = stack.pop()
                if fn.key in seen:
                    continue
                seen.add(fn.key)
                stack.extend(_callees(program, fn))
            for key in seen:
                weights[key] = weights.get(key, 0.0) + seconds
    return weights


def rank_findings(
    program: Program,
    findings: Sequence[AnalysisFinding],
    profile: Dict[str, float],
) -> List[Tuple[float, AnalysisFinding]]:
    """Attach measured cost to findings and sort most-expensive first.

    A finding's weight is its enclosing function's attributed seconds
    (the symbol prefix is the function key for A401/A403–A406; A402
    findings anchor on the class and weight by the *constructing*
    function, which the symbol does not retain — they weight 0 and sort
    by location among themselves).
    """
    weights = function_weights(program, profile)
    by_key: Dict[str, float] = {}
    for key, weight in weights.items():
        by_key[key] = weight
    ranked: List[Tuple[float, AnalysisFinding]] = []
    for finding in findings:
        fn_key = finding.symbol.split(":", 1)[0] if finding.symbol else ""
        ranked.append((by_key.get(fn_key, 0.0), finding))
    ranked.sort(key=lambda pair: (-pair[0], pair[1].path, pair[1].line))
    return ranked
