"""Unit/taint dataflow engine: abstract values, transfer functions, summaries.

The entire reproduction rests on one implicit convention — simulated
time is a ``float`` in **microseconds** — and on a handful of sibling
conventions (rates are requests *per* microsecond, utilizations are
fractions of 1.0, byte counts are bytes).  None of them is visible to
the type system: a ``* 1e6`` dropped from a phase schedule, a rate
passed where a delay was expected, or an ``85`` handed to a utilization
knob produces *plausible* numbers, not crashes — and in a simulator
whose findings are µs-scale tail latencies, plausible-but-wrong numbers
are indistinguishable from results.

This module gives the analyzer a small abstract domain to check those
conventions mechanically:

* an **abstract value lattice** (:class:`AbstractValue`) of
  ``Duration_us | Timestamp_us | Rate_per_us | Fraction | Bytes``
  plus ``Scalar`` (dimensionless), ``Top`` (unknown) and
  ``Tainted(source)`` — the result of an ill-typed operation, carrying
  a human-readable description of where it went wrong;
* **transfer functions** (:func:`transfer_binop`) encoding the unit
  algebra: ``Timestamp - Timestamp = Duration``,
  ``Fraction * Rate = Rate``, ``Scalar / Rate = Duration``,
  ``Timestamp + Timestamp = Tainted``, ...  A ``Duration`` silently
  coerces *to* a ``Timestamp`` (simulations start at t=0, so
  "time since start" is a legitimate absolute time) but never the other
  way around — scheduling a delay of ``loop.now`` magnitude is the
  classic unit bug;
* a declarative **annotation map** (:data:`ANNOTATIONS`) seeding the
  units of known engine APIs (``EventLoop.call_at/call_after``,
  ``schedule_service_event``, arrival processes, phase builders,
  ``QueueViews`` staleness, telemetry bucket bounds, fault-plan
  times), extended by **name heuristics** (:func:`unit_for_name`) for
  the ``*_us`` / ``utilization`` / ``rate`` naming conventions the
  code base already follows;
* an **intraprocedural analysis** (:class:`FunctionAnalysis`)
  computing def-use unit environments per function (iterated to a
  small fixpoint so loop-carried assignments converge), and
* **interprocedural function summaries** (:func:`compute_summaries`):
  parameter units from annotations + names, return units propagated
  through the call graph to convergence — recursion and cycles join
  toward ``Top`` rather than diverging, since the lattice has finite
  height and joins are monotone.

The engine itself emits no findings; :mod:`repro.analyze.unitsflow`
(A501–A505) and :mod:`repro.analyze.forksafety` (A601–A604) consume the
environments and summaries it computes.  It is deliberately
conservative: anything it cannot prove a unit for is ``Top``, and
``Top`` never participates in a finding — the analyzer under-reports
instead of guessing.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .model import FunctionInfo, Program

# ----------------------------------------------------------------------
# the lattice
# ----------------------------------------------------------------------
DURATION = "Duration_us"
TIMESTAMP = "Timestamp_us"
RATE = "Rate_per_us"
FRACTION = "Fraction"
BYTES = "Bytes"
SCALAR = "Scalar"
TAINTED = "Tainted"
TOP = "Top"

#: The concrete (unit-bearing) kinds — everything a sink can expect.
UNIT_KINDS = (DURATION, TIMESTAMP, RATE, FRACTION, BYTES)

#: Kinds a time-typed sink accepts (`Duration` coerces to `Timestamp`).
TIME_KINDS = (DURATION, TIMESTAMP)


class AbstractValue(NamedTuple):
    """One point in the unit lattice.

    ``taint`` is set only when ``kind == TAINTED`` and describes the
    originating ill-typed operation; ``literal`` carries the numeric
    value of constant expressions (for the fraction/percent and
    magnitude checks) and survives scalar arithmetic only trivially —
    it is bookkeeping, not an interval analysis.  ``from_sub`` marks
    values derived from a time-typed subtraction that has not passed
    through a clamping ``max(...)``; the negative-delay rule keys on it.
    """

    kind: str
    taint: str = ""
    literal: Optional[float] = None
    from_sub: bool = False

    def widen(self) -> "AbstractValue":
        """Drop bookkeeping that must not survive a join."""
        return AbstractValue(self.kind, self.taint)


VAL_TOP = AbstractValue(TOP)
VAL_SCALAR = AbstractValue(SCALAR)


def make_tainted(source: str) -> AbstractValue:
    return AbstractValue(TAINTED, taint=source)


def join(a: AbstractValue, b: AbstractValue) -> AbstractValue:
    """Least upper bound.  Taint is sticky; differing units go to Top
    (conservative: a branch-dependent unit is not a finding)."""
    if a.kind == TAINTED:
        return a.widen()
    if b.kind == TAINTED:
        return b.widen()
    if a.kind == b.kind:
        literal = a.literal if a.literal == b.literal else None
        return AbstractValue(a.kind, "", literal, a.from_sub or b.from_sub)
    if a.kind == SCALAR:
        return AbstractValue(b.kind, "", None, a.from_sub or b.from_sub)
    if b.kind == SCALAR:
        return AbstractValue(a.kind, "", None, a.from_sub or b.from_sub)
    # Duration/Timestamp join to Timestamp (the coercion direction).
    if {a.kind, b.kind} == {DURATION, TIMESTAMP}:
        return AbstractValue(TIMESTAMP, "", None, a.from_sub or b.from_sub)
    return VAL_TOP


def join_all(values: Sequence[AbstractValue]) -> AbstractValue:
    out = VAL_TOP if not values else values[0]
    for value in values[1:]:
        out = join(out, value)
    return out


# ----------------------------------------------------------------------
# transfer functions
# ----------------------------------------------------------------------
#: (left kind, right kind) -> result kind for ``+``; None means tainted.
#: The table is consulted symmetrically except where order matters.
_ADD: Dict[Tuple[str, str], Optional[str]] = {
    (DURATION, DURATION): DURATION,
    (TIMESTAMP, DURATION): TIMESTAMP,
    (DURATION, TIMESTAMP): TIMESTAMP,
    (TIMESTAMP, TIMESTAMP): None,  # adding two absolute times is always wrong
    (RATE, RATE): RATE,
    (FRACTION, FRACTION): FRACTION,
    (BYTES, BYTES): BYTES,
}

_SUB: Dict[Tuple[str, str], Optional[str]] = {
    (DURATION, DURATION): DURATION,
    (TIMESTAMP, TIMESTAMP): DURATION,  # elapsed time — the key identity
    (TIMESTAMP, DURATION): TIMESTAMP,
    (DURATION, TIMESTAMP): None,  # a duration minus an absolute time
    (RATE, RATE): RATE,
    (FRACTION, FRACTION): FRACTION,
    (BYTES, BYTES): BYTES,
}

_MUL: Dict[Tuple[str, str], str] = {
    (RATE, DURATION): SCALAR,  # rate x time = a count
    (DURATION, RATE): SCALAR,
}

_DIV: Dict[Tuple[str, str], str] = {
    (DURATION, DURATION): FRACTION,
    (BYTES, BYTES): FRACTION,
    (RATE, RATE): FRACTION,
    (SCALAR, RATE): DURATION,  # n_requests / rate = expected duration
    (SCALAR, DURATION): RATE,  # n per elapsed = a rate
    (BYTES, DURATION): TOP,  # throughput; no kind for it, stay silent
}


def _describe(op: str, left: AbstractValue, right: AbstractValue) -> str:
    return f"{left.kind} {op} {right.kind}"


def transfer_binop(
    op: ast.operator, left: AbstractValue, right: AbstractValue
) -> AbstractValue:
    """The unit algebra for one binary operation."""
    if left.kind == TAINTED:
        return left.widen()
    if right.kind == TAINTED:
        return right.widen()
    if left.kind == TOP or right.kind == TOP:
        return VAL_TOP
    lk, rk = left.kind, right.kind
    if isinstance(op, (ast.Add, ast.Sub)):
        table = _ADD if isinstance(op, ast.Add) else _SUB
        symbol = "+" if isinstance(op, ast.Add) else "-"
        if lk == SCALAR and rk == SCALAR:
            return VAL_SCALAR
        # A unit-less addend adopts the other side's unit ("+ 5" means
        # five of whatever the other operand is).
        if lk == SCALAR:
            return AbstractValue(rk)
        if rk == SCALAR:
            return AbstractValue(lk)
        result = table.get((lk, rk), "missing")
        if result == "missing":
            return make_tainted(_describe(symbol, left, right))
        if result is None:
            return make_tainted(_describe(symbol, left, right))
        from_sub = isinstance(op, ast.Sub) and result in TIME_KINDS
        return AbstractValue(result, "", None, from_sub)
    if isinstance(op, ast.Mult):
        for a, b in ((lk, rk), (rk, lk)):
            if (a, b) in _MUL:
                return AbstractValue(_MUL[(a, b)])
        if lk == SCALAR:
            return AbstractValue(rk, "", None, right.from_sub)
        if rk == SCALAR:
            return AbstractValue(lk, "", None, left.from_sub)
        if FRACTION in (lk, rk):
            other = rk if lk == FRACTION else lk
            return AbstractValue(other)
        # Squared durations etc. appear in legitimate queueing math
        # (E[S^2]); unknown products are Top, not findings.
        return VAL_TOP
    if isinstance(op, ast.Div):
        result = _DIV.get((lk, rk))
        if result is not None:
            return AbstractValue(result)
        if rk == SCALAR or rk == FRACTION:
            return AbstractValue(lk, "", None, left.from_sub)
        return VAL_TOP
    if isinstance(op, (ast.FloorDiv, ast.Mod, ast.Pow)):
        return VAL_TOP
    return VAL_TOP


# ----------------------------------------------------------------------
# the annotation map
# ----------------------------------------------------------------------
class Annotation(NamedTuple):
    """Declared units of one known callable.

    ``params`` maps parameter *names* to unit kinds; ``positional``
    maps 0-based positions (not counting an implicit ``self``) for call
    sites that pass positionally to callees we cannot resolve a
    signature for.  ``returns`` is the call's result unit.  ``sink``
    marks scheduling entry points for the negative-delay rule.
    """

    params: Mapping[str, str] = {}
    positional: Mapping[int, str] = {}
    returns: str = TOP
    sink: bool = False


#: Known engine APIs, keyed by terminal callable name.  Matching by
#: terminal name (``loop.call_after`` -> ``call_after``) is deliberate:
#: these names are distinctive, and receivers are usually attributes the
#: static model cannot type.  An entry applies to *every* call site with
#: that terminal name, so only unambiguous names belong here.
ANNOTATIONS: Dict[str, Annotation] = {
    # -- the event loop -------------------------------------------------
    "call_at": Annotation(
        params={"time": TIMESTAMP}, positional={0: TIMESTAMP}, sink=True
    ),
    "call_after": Annotation(
        params={"delay": DURATION}, positional={0: DURATION}, sink=True
    ),
    "schedule_service_event": Annotation(
        params={"delay": DURATION}, positional={1: DURATION}, sink=True
    ),
    # -- workload: arrival processes and generators --------------------
    "PoissonArrivals": Annotation(params={"rate": RATE}, positional={0: RATE}),
    "DeterministicArrivals": Annotation(params={"rate": RATE}, positional={0: RATE}),
    "MarkovBurstArrivals": Annotation(params={"rate": RATE}, positional={0: RATE}),
    "set_rate": Annotation(params={"rate": RATE}, positional={0: RATE}),
    "peak_load": Annotation(returns=RATE),
    "offered_rate": Annotation(returns=RATE),
    # -- phased load ----------------------------------------------------
    "Phase": Annotation(
        params={"duration_us": DURATION, "utilization": FRACTION},
        positional={1: DURATION, 2: FRACTION},
    ),
    # -- rack views / fault plans --------------------------------------
    "QueueViews": Annotation(params={"staleness_us": DURATION}),
    "crash_recover": Annotation(
        params={"crash_at": TIMESTAMP, "recover_at": TIMESTAMP}
    ),
    "WorkerCrash": Annotation(params={"at": TIMESTAMP}, positional={0: TIMESTAMP}),
    "WorkerRecover": Annotation(params={"at": TIMESTAMP}, positional={0: TIMESTAMP}),
    "WorkerSlowdown": Annotation(
        params={"at": TIMESTAMP, "until": TIMESTAMP}, positional={0: TIMESTAMP}
    ),
    "PacketDrop": Annotation(
        params={"at": TIMESTAMP, "until": TIMESTAMP, "probability": FRACTION},
        positional={0: TIMESTAMP, 1: TIMESTAMP},
    ),
    "PacketDup": Annotation(
        params={"at": TIMESTAMP, "until": TIMESTAMP, "probability": FRACTION},
        positional={0: TIMESTAMP, 1: TIMESTAMP},
    ),
    # -- telemetry ------------------------------------------------------
    "log_spaced_bounds": Annotation(
        params={"lo_exp": SCALAR, "hi_exp": SCALAR, "per_decade": SCALAR}
    ),
    "WindowedStats": Annotation(params={"window_us": DURATION}, positional={0: DURATION}),
    # -- unit helpers (repro.sim.units): conversions return durations --
    "seconds": Annotation(returns=DURATION),
    "milliseconds": Annotation(returns=DURATION),
    "nanoseconds": Annotation(returns=DURATION),
    "cycles_to_us": Annotation(returns=DURATION),
    "mrps_to_per_us": Annotation(returns=RATE),
    "krps_to_per_us": Annotation(returns=RATE),
}

#: Attribute loads whose terminal name alone implies a unit.  ``.now``
#: is the event loop's clock; the ``*_us`` attributes mirror the
#: parameter naming convention.
_TIMESTAMP_NAMES = frozenset(
    {
        "now",
        "at",
        "until",
        "deadline",
        "crash_at",
        "recover_at",
        "sched_at",
        "dispatch_time",
        "arrival_time",
        "start_time",
    }
)
_FRACTION_NAMES = frozenset(
    {
        "utilization",
        "probability",
        "fraction",
        "ratio",
        "share",
        "base_utilization",
        "peak_utilization",
        "spike_utilization",
        "jitter_frac",
        "warmup_frac",
        "speed_factor",
    }
)
_RATE_NAMES = frozenset({"rate", "arrival_rate", "offered_rate", "peak_rate"})
_TIMESTAMP_US_HEADS = ("at_", "time_", "t_", "deadline_", "start_", "end_", "now_")


def unit_for_name(name: str) -> str:
    """The unit the code base's naming convention implies, or Top.

    ``*_us`` names are durations (``staleness_us``, ``window_us``)
    unless the head names a point in time (``at_us``, ``start_us``);
    the exact-name tables cover the time/fraction/rate vocabulary.
    """
    if name in _TIMESTAMP_NAMES:
        return TIMESTAMP
    if name in _FRACTION_NAMES:
        return FRACTION
    if name in _RATE_NAMES:
        return RATE
    if name.endswith("_bytes") or name == "bytes":
        return BYTES
    if name.endswith("_us"):
        head = name[: -len("us")]
        if any(head.startswith(h) or head == h.rstrip("_") + "_" for h in _TIMESTAMP_US_HEADS):
            return TIMESTAMP
        return DURATION
    return TOP


# ----------------------------------------------------------------------
# function summaries
# ----------------------------------------------------------------------
class FunctionSummary(NamedTuple):
    """Interprocedural interface of one function: what units its
    parameters expect and what unit it returns."""

    key: str
    #: parameter name -> unit kind (Top entries omitted).
    param_units: Mapping[str, str]
    #: 0-based positional index (self excluded) -> unit kind.
    positional_units: Mapping[int, str]
    return_unit: str

    def expected_for(
        self, index: Optional[int], keyword: Optional[str]
    ) -> Optional[str]:
        """The expected unit of one argument, or None when unconstrained."""
        if keyword is not None:
            unit = self.param_units.get(keyword)
        elif index is not None:
            unit = self.positional_units.get(index)
        else:  # pragma: no cover - callers always pass one of the two
            unit = None
        if unit in (None, TOP, SCALAR):
            return None
        return unit


def _param_names(fn: FunctionInfo) -> List[str]:
    """Positional parameter names, ``self``/``cls`` excluded."""
    args = fn.node.args
    names = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
    if fn.class_key is not None and names and names[0] in ("self", "cls"):
        names = names[1:]
    return names


def summary_from_signature(fn: FunctionInfo) -> FunctionSummary:
    """The name-heuristic summary (before return-unit propagation)."""
    params: Dict[str, str] = {}
    positional: Dict[int, str] = {}
    names = _param_names(fn)
    kwonly = [a.arg for a in fn.node.args.kwonlyargs]
    for index, name in enumerate(names):
        unit = unit_for_name(name)
        if unit != TOP:
            params[name] = unit
            positional[index] = unit
    for name in kwonly:
        unit = unit_for_name(name)
        if unit != TOP:
            params[name] = unit
    return FunctionSummary(fn.key, params, positional, TOP)


class DataflowResult(NamedTuple):
    """The engine's full output over one program."""

    summaries: Dict[str, FunctionSummary]
    #: How many propagation passes return units took to converge.
    passes: int


def resolve_annotation(
    program: Program, fn: FunctionInfo, call: ast.Call
) -> Optional[Annotation]:
    """The declared units of ``call``'s callee: the annotation map by
    terminal name first, else the callee's name-heuristic summary."""
    func = call.func
    terminal: Optional[str] = None
    if isinstance(func, ast.Attribute):
        terminal = func.attr
    elif isinstance(func, ast.Name):
        terminal = func.id
    if terminal is not None and terminal in ANNOTATIONS:
        return ANNOTATIONS[terminal]
    return None


def resolve_summary(
    program: Program,
    summaries: Mapping[str, FunctionSummary],
    fn: FunctionInfo,
    call: ast.Call,
) -> Optional[FunctionSummary]:
    resolved = program.resolve_call(fn, call)
    if resolved is None:
        # A constructor whose class we know but whose __init__ is
        # inherited/implicit has no FunctionInfo; nothing to say.
        return None
    return summaries.get(resolved.key)


# ----------------------------------------------------------------------
# intraprocedural analysis
# ----------------------------------------------------------------------
#: Builtins that pass their argument's unit through unchanged.
_PASSTHROUGH_CALLS = frozenset({"float", "int", "abs", "round"})
#: Builtins whose result is the join of their arguments' units — and
#: which clamp, clearing the subtraction-derived flag.
_CLAMP_CALLS = frozenset({"max", "min"})

_ITERATIONS = 3  # loop-carried unit assignments converge fast; 3 is a bound


class FunctionAnalysis:
    """One function's def-use unit environment.

    The analysis is a small abstract interpretation over the statement
    list, iterated :data:`_ITERATIONS` times so units assigned late in a
    loop body reach uses earlier in it.  Branches are not split —
    assignments from all paths join — which is exactly the conservatism
    the finding rules want.
    """

    def __init__(
        self,
        program: Program,
        fn: FunctionInfo,
        summaries: Mapping[str, FunctionSummary],
    ):
        self.program = program
        self.fn = fn
        self.summaries = summaries
        self.env: Dict[str, AbstractValue] = {}
        #: id(BinOp node) -> taint description, for sites that mixed units.
        self.taint_sites: Dict[int, str] = {}
        self._seed_params()
        for _ in range(_ITERATIONS):
            changed = self._pass()
            if not changed:
                break

    # -- environment construction --------------------------------------
    def _seed_params(self) -> None:
        summary = self.summaries.get(self.fn.key)
        args = self.fn.node.args
        all_args = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        for arg in all_args:
            unit = TOP
            if summary is not None:
                unit = summary.param_units.get(arg.arg, TOP)
            if unit == TOP:
                unit = unit_for_name(arg.arg)
            if unit != TOP:
                self.env[arg.arg] = AbstractValue(unit)

    def _pass(self) -> bool:
        changed = False
        for node in ast.walk(self.fn.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    changed |= self._bind(target.id, self.eval(node.value))
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    changed |= self._bind(node.target.id, self.eval(node.value))
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                current = self.env.get(node.target.id, VAL_TOP)
                result = transfer_binop(node.op, current, self.eval(node.value))
                if result.kind == TAINTED and id(node) not in self.taint_sites:
                    self.taint_sites[id(node)] = result.taint
                changed |= self._bind(node.target.id, result)
        return changed

    def _bind(self, name: str, value: AbstractValue) -> bool:
        current = self.env.get(name)
        if current is None:
            if value.kind == TOP:
                return False
            self.env[name] = value
            return True
        merged = join(current, value)
        # Preserve site bookkeeping when the kind is stable.
        if merged.kind == value.kind:
            merged = value
        if merged != current:
            self.env[name] = merged
            return True
        return False

    # -- expression evaluation -----------------------------------------
    def eval(self, node: ast.AST) -> AbstractValue:
        """The abstract value of one expression under the current env."""
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or not isinstance(
                node.value, (int, float)
            ):
                return VAL_TOP
            return AbstractValue(SCALAR, literal=float(node.value))
        if isinstance(node, ast.Name):
            value = self.env.get(node.id)
            if value is not None:
                return value
            unit = unit_for_name(node.id)
            return AbstractValue(unit) if unit != TOP else VAL_TOP
        if isinstance(node, ast.Attribute):
            attr = node.attr
            unit = unit_for_name(attr)
            if unit != TOP:
                return AbstractValue(unit)
            return VAL_TOP
        if isinstance(node, ast.BinOp):
            result = transfer_binop(
                node.op, self.eval(node.left), self.eval(node.right)
            )
            if result.kind == TAINTED and id(node) not in self.taint_sites:
                self.taint_sites[id(node)] = result.taint
            return result
        if isinstance(node, ast.UnaryOp):
            return self.eval(node.operand)
        if isinstance(node, ast.IfExp):
            return join(self.eval(node.body), self.eval(node.orelse))
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Starred):
            return VAL_TOP
        return VAL_TOP

    def _eval_call(self, node: ast.Call) -> AbstractValue:
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
            if name in _PASSTHROUGH_CALLS and node.args:
                inner = self.eval(node.args[0])
                # int()/float() of a literal keeps the literal.
                return inner
            if name in _CLAMP_CALLS and node.args:
                joined = join_all([self.eval(arg) for arg in node.args])
                # max(0.0, x - y) is the sanctioned clamp: the result
                # can no longer be negative, so drop the marker.
                return AbstractValue(joined.kind, joined.taint)
        annotation = resolve_annotation(self.program, self.fn, node)
        if annotation is not None and annotation.returns != TOP:
            return AbstractValue(annotation.returns)
        summary = resolve_summary(self.program, self.summaries, self.fn, node)
        if summary is not None and summary.return_unit not in (TOP, SCALAR):
            return AbstractValue(summary.return_unit)
        return VAL_TOP

    def return_unit(self) -> str:
        """Join of every ``return`` expression's kind (Top when none)."""
        values: List[AbstractValue] = []
        for node in ast.walk(self.fn.node):
            if isinstance(node, ast.Return) and node.value is not None:
                values.append(self.eval(node.value))
        if not values:
            return TOP
        joined = join_all(values)
        if joined.kind in (TAINTED,):
            return TOP
        return joined.kind


# ----------------------------------------------------------------------
# interprocedural fixpoint
# ----------------------------------------------------------------------
_MAX_PASSES = 8


def compute_summaries(program: Program) -> DataflowResult:
    """Build every function's summary, propagating return units through
    the call graph until nothing changes.

    Convergence is guaranteed: each pass can only move a function's
    return unit between members of a finite lattice via a monotone join
    through :class:`FunctionAnalysis`, and the pass count is bounded by
    :data:`_MAX_PASSES` as a belt-and-braces guard (recursive cycles
    stabilize at Top or at a consistent unit within two passes).
    """
    summaries: Dict[str, FunctionSummary] = {}
    for fn in program.iter_functions():
        summaries[fn.key] = summary_from_signature(fn)
    passes = 0
    for _ in range(_MAX_PASSES):
        passes += 1
        changed = False
        for fn in program.iter_functions():
            analysis = FunctionAnalysis(program, fn, summaries)
            new_return = analysis.return_unit()
            current = summaries[fn.key]
            if new_return != current.return_unit and new_return != TOP:
                summaries[fn.key] = current._replace(return_unit=new_return)
                changed = True
        if not changed:
            break
    return DataflowResult(summaries=summaries, passes=passes)


def analyze_function(
    program: Program,
    fn: FunctionInfo,
    summaries: Mapping[str, FunctionSummary],
) -> FunctionAnalysis:
    """One function's converged intraprocedural analysis (public entry
    point for the rule modules)."""
    return FunctionAnalysis(program, fn, summaries)
