"""Policy/System/Balancer contract verifier (findings A201/A202/A203).

The extension points this repo exposes — scheduling policies
(:class:`repro.policies.base.Scheduler`), system models
(:class:`repro.systems.base.SystemModel`) and rack balancers
(:class:`repro.rack.balancers.RackBalancer`) — each carry an implicit
contract: members a subclass must provide, base methods whose overrides
must chain to ``super()`` because the base maintains engine-side state
there, and fields that belong to the engine and must never be written
from outside their owning module.  Breaking any of these compiles fine
and usually *runs* fine at low load; it fails as a stranded
service-event, a phantom worker state, or a wrong recovery decision ten
thousand simulated microseconds later.  This analysis makes the
contract machine-checked.

* **A201** — a concrete subclass is missing a required override or
  class attribute (an inherited ``@abstractmethod`` does not count as
  provided).
* **A202** — an override of a chained method never calls ``super()``
  (accepted forms: ``super().m(...)`` and ``Base.m(self, ...)``).
* **A203** — a write to an engine-owned field from outside the owning
  module (``EventLoop`` internals, ``Worker`` lifecycle fields,
  ``Scheduler`` wiring).
"""

from __future__ import annotations

import ast
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from .filerules import SIM_CRITICAL_PACKAGES
from .findings import AnalysisFinding, make_finding
from .model import ClassInfo, FunctionInfo, Program


class ContractSpec(NamedTuple):
    """One extension-point contract."""

    base_key: str  # dotted key of the contract root class
    display: str
    required_methods: Tuple[str, ...]
    required_attrs: Tuple[str, ...]
    super_chain: Tuple[str, ...]  # overrides that must call super()


CONTRACTS: Tuple[ContractSpec, ...] = (
    ContractSpec(
        base_key="repro.policies.base.Scheduler",
        display="scheduling policy",
        required_methods=("on_request", "on_worker_free"),
        required_attrs=("traits",),
        super_chain=(
            "__init__",
            "bind",
            "on_worker_crash",
            "on_worker_recover",
            "attach_observer",
        ),
    ),
    ContractSpec(
        base_key="repro.systems.base.SystemModel",
        display="system model",
        required_methods=("make_scheduler",),
        required_attrs=("name",),
        super_chain=("__init__",),
    ),
    ContractSpec(
        base_key="repro.rack.balancers.RackBalancer",
        display="rack balancer",
        required_methods=("pick",),
        required_attrs=(),
        super_chain=("__init__", "ingress"),
    ),
)

#: Engine-owned fields: attr name -> (owning module, owner description).
_RESERVED_FIELDS: Dict[str, Tuple[str, str]] = {
    # EventLoop internals — only the engine advances time and the heap.
    "_now": ("repro.sim.engine", "EventLoop"),
    "_heap": ("repro.sim.engine", "EventLoop"),
    "_seq": ("repro.sim.engine", "EventLoop"),
    "_events_processed": ("repro.sim.engine", "EventLoop"),
    "_running": ("repro.sim.engine", "EventLoop"),
    "_stopped": ("repro.sim.engine", "EventLoop"),
    # Worker lifecycle — set through Worker methods so busy-time
    # accounting and the sanitizer's exclusivity checks stay truthful.
    "current": ("repro.server.worker", "Worker"),
    "failed": ("repro.server.worker", "Worker"),
    "speed_factor": ("repro.server.worker", "Worker"),
    "crash_count": ("repro.server.worker", "Worker"),
    "_busy_since": ("repro.server.worker", "Worker"),
}

#: Scheduler wiring fields only ``policies/base.py`` may rebind.
_SCHEDULER_WIRING = frozenset({"loop", "workers", "_bound", "_on_complete", "_on_drop"})


def _is_abstract(fn: FunctionInfo) -> bool:
    for deco in fn.node.decorator_list:
        name = deco.attr if isinstance(deco, ast.Attribute) else getattr(deco, "id", "")
        if name == "abstractmethod":
            return True
    return False


def _calls_super(node: ast.FunctionDef, method: str) -> bool:
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Call) or not isinstance(sub.func, ast.Attribute):
            continue
        if sub.func.attr != method:
            continue
        receiver = sub.func.value
        if (
            isinstance(receiver, ast.Call)
            and isinstance(receiver.func, ast.Name)
            and receiver.func.id == "super"
        ):
            return True
        # Explicit Base.m(self, ...) chaining.
        if isinstance(receiver, ast.Name) and receiver.id[:1].isupper():
            return True
    return False


def _check_contract(
    program: Program, spec: ContractSpec, findings: List[AnalysisFinding]
) -> None:
    if spec.base_key not in program.classes:
        return
    for cls in program.subclasses_of(spec.base_key):
        ancestry = program.ancestry(cls)
        concrete = not cls.is_abstract_decorated
        # --- A201: required overrides -------------------------------
        if concrete:
            for method in spec.required_methods:
                fn = program.resolve_method(cls, method)
                if fn is None or _is_abstract(fn):
                    findings.append(
                        make_finding(
                            "A201",
                            cls.module.path,
                            cls.lineno,
                            cls.node.col_offset,
                            f"{spec.display} {cls.name} does not implement "
                            f"required method {method}() (only the abstract "
                            "declaration is inherited)",
                            symbol=f"{cls.key}.{method}",
                        )
                    )
            for attr in spec.required_attrs:
                provided = any(
                    attr in ancestor.class_attrs
                    for ancestor in ancestry
                    if ancestor.key != spec.base_key
                )
                if not provided and not program.resolve_class_attr_excluding(
                    cls, attr, spec.base_key
                ):
                    findings.append(
                        make_finding(
                            "A201",
                            cls.module.path,
                            cls.lineno,
                            cls.node.col_offset,
                            f"{spec.display} {cls.name} does not define required "
                            f"class attribute '{attr}' (the base default is a "
                            "placeholder, not an answer)",
                            symbol=f"{cls.key}.{attr}",
                        )
                    )
        # --- A202: mandatory super() chains -------------------------
        for method in spec.super_chain:
            own = cls.methods.get(method)
            if own is None or _is_abstract(own):
                continue
            inherited = None
            for ancestor in ancestry:
                if ancestor.key == cls.key:
                    continue
                candidate = ancestor.methods.get(method)
                if candidate is not None:
                    inherited = candidate
                    break
            if inherited is None or _is_abstract(inherited):
                continue
            if not _calls_super(own.node, method):
                findings.append(
                    make_finding(
                        "A202",
                        cls.module.path,
                        own.lineno,
                        own.node.col_offset,
                        f"{cls.name}.{method}() overrides a chained contract "
                        f"method but never calls super().{method}(); the base "
                        "class maintains engine-side state there",
                        symbol=f"{cls.key}.{method}",
                    )
                )


def _check_reserved_fields(program: Program, findings: List[AnalysisFinding]) -> None:
    scheduler_base = "repro.policies.base.Scheduler"
    for fn in program.iter_functions():
        module = fn.module
        pkg = module.package
        if pkg is not None and pkg not in SIM_CRITICAL_PACKAGES and pkg != "faults":
            continue
        cls = program.classes.get(fn.class_key) if fn.class_key else None
        in_policy = cls is not None and (
            cls.key == scheduler_base or program.is_subclass_of(cls, scheduler_base)
        )
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Attribute) or not isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                continue
            receiver_is_self = (
                isinstance(node.value, ast.Name) and node.value.id == "self"
            )
            if receiver_is_self:
                if (
                    in_policy
                    and node.attr in _SCHEDULER_WIRING
                    and module.name != "repro.policies.base"
                ):
                    findings.append(
                        make_finding(
                            "A203",
                            module.path,
                            node.lineno,
                            node.col_offset,
                            f"{fn.qualname}() rebinds Scheduler wiring field "
                            f"'self.{node.attr}'; only bind() in "
                            "policies/base.py may set it",
                            symbol=f"{fn.key}:{node.attr}",
                        )
                    )
                continue
            owner = _RESERVED_FIELDS.get(node.attr)
            if owner is None:
                continue
            owner_module, owner_class = owner
            if module.name == owner_module:
                continue
            findings.append(
                make_finding(
                    "A203",
                    module.path,
                    node.lineno,
                    node.col_offset,
                    f"{fn.qualname}() writes engine-owned field "
                    f"'.{node.attr}' ({owner_class} lifecycle state owned by "
                    f"{owner_module}); call the owner's API instead of "
                    "poking the field",
                    symbol=f"{fn.key}:{node.attr}",
                )
            )


def analyze_contracts(program: Program) -> List[AnalysisFinding]:
    """Run the contract verifier over ``program``."""
    findings: List[AnalysisFinding] = []
    for spec in CONTRACTS:
        _check_contract(program, spec, findings)
    _check_reserved_fields(program, findings)
    return findings
