"""Outside-in per-layer cost ledger.

The ledger measures where a simulation's host time goes without touching
the program: it wraps public functions of each ``repro`` layer from the
outside, times every call as a span, and charges the span's *self* time
(its duration minus the wrapped calls inside it) to the layer that owns
it.  Layers are ``repro`` subpackages; see :data:`LAYERS`.

Two levels of attribution:

* **Callbacks.**  ``EventLoop.call_at``/``call_after`` are wrapped, so
  every callback is wrapped when it is scheduled and charged to the
  subpackage of the class that owns it, ``type(fn.__self__).__module__``.
  The scheduling calls themselves are ``sim`` spans.
* **Entry points.**  The public methods listed in :func:`default_targets`
  are wrapped in place on their classes; ``Server.in_flight`` is counted,
  not timed.

``EventLoop.run`` is the root span: ``sim`` self time is the engine's
loop minus the spans inside it, so the layers' in-run self times sum to
the run's wall time exactly.  Wrapper overhead lands in the enclosing
span's self time, which is why traced runs are slower than untraced ones
(``bench.wrap_overhead_frac``).

Targets are resolved by name.  A missing one is reported (a warning on
stderr and an entry in :attr:`Ledger.missing`) and its time falls into
the enclosing layer; the ledger never fails because code moved.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

#: The layers the ledger reports, in pipeline order.
LAYERS = (
    "sim",
    "workload",
    "server",
    "core",
    "policies",
    "rack",
    "rack.views",
    "metrics",
    "trace",
    "telemetry",
)

#: Spans are kept (for ``--spans``) for requests whose rid is a multiple
#: of this; aggregates cover every request.
SPAN_EVERY = 100


def layer_of(module: str) -> str:
    """The ledger layer of a module: its ``repro`` subpackage, or the
    two-level name when that is a layer of its own (``rack.views``)."""
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return "other"
    if ".".join(parts[1:3]) in LAYERS:
        return ".".join(parts[1:3])
    return parts[1]


class Target(NamedTuple):
    """Functions to wrap: ``methods`` of class ``cls`` in ``module``.

    With ``subclasses`` the methods are wrapped on every subclass of
    ``cls`` (not on ``cls`` itself), each charged to the subclass's own
    layer.  ``methods`` of ``("on_*",)`` means every ``on_`` method.
    ``kind`` tags the spans for the named per-layer extras.
    """

    module: str
    cls: str
    methods: Tuple[str, ...]
    subclasses: bool = False
    kind: Optional[str] = None


def default_targets() -> List[Target]:
    """The public entry points of each layer."""
    return [
        Target("repro.server.server", "Server", ("ingress",)),
        Target("repro.policies.base", "Scheduler", ("on_request", "on_worker_free"), subclasses=True),
        Target("repro.core.classifier", "RequestClassifier", ("classify",), kind="classify"),
        Target("repro.metrics.recorder", "Recorder", ("on_complete", "on_drop")),
        Target("repro.metrics.summary", "RunSummary", ("__init__",), kind="summary"),
        Target("repro.rack.rack", "Rack", ("ingress",)),
        Target("repro.rack.balancers", "RackBalancer", ("pick",), subclasses=True, kind="pick"),
        Target("repro.rack.balancers", "RackBalancer", ("ingress",), subclasses=True),
        Target("repro.rack.views", "QueueViews", ("load",), kind="load"),
        Target("repro.trace.tracer", "Tracer", ("on_*",)),
        Target("repro.telemetry.probe", "TelemetryProbe", ("on_*",)),
    ]


def _all_subclasses(cls: type) -> List[type]:
    seen: List[type] = []
    todo = list(cls.__subclasses__())
    while todo:
        sub = todo.pop(0)
        if sub not in seen:
            seen.append(sub)
            todo.extend(sub.__subclasses__())
    return seen


def _resolve(module: str, name: str) -> Any:
    return getattr(importlib.import_module(module), name)


class Ledger:
    """Per-layer span accounting for one traced simulation."""

    def __init__(self) -> None:
        #: layer -> self seconds / span count, over the whole process.
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        #: kind -> [calls, inclusive seconds].
        self.kinds: Dict[str, List[float]] = {}
        #: Events scheduled through call_at/call_after.
        self.scheduled = 0
        #: ``Server.in_flight`` reads.
        self.in_flight_reads = 0
        #: Kept spans: (id, name, layer, start, end, parent id, rid).
        self.spans: List[tuple] = []
        #: Wrap targets that could not be resolved.
        self.missing: List[str] = []
        #: In-run deltas of ``self_s``/``calls`` and the run's wall time.
        self.run_self_s: Dict[str, float] = {}
        self.run_calls: Dict[str, int] = {}
        self.run_wall_s = 0.0
        #: ``time.monotonic()`` at the first ``EventLoop.run`` entry.
        self.run_entry: Optional[float] = None
        self._stack: List[list] = []
        self._ids = itertools.count()
        self._timers: Dict[tuple, Callable] = {}
        self._callback_timers: Dict[tuple, Any] = {}
        self._restore: List[Tuple[Any, str, Any]] = []
        self._request_type: Optional[type] = None

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def timer(self, layer: str, name: str, kind: Optional[str] = None) -> Callable:
        """``timed(fn, *args)``: call ``fn(*args)`` inside a span."""
        key = (layer, name, kind)
        timed = self._timers.get(key)
        if timed is not None:
            return timed
        self.self_s.setdefault(layer, 0.0)
        self.calls.setdefault(layer, 0)
        kind_stat = self.kinds.setdefault(kind, [0, 0.0]) if kind else None
        self_s, calls, stack, spans = self.self_s, self.calls, self._stack, self.spans
        ids, every, clock = self._ids, SPAN_EVERY, time.perf_counter
        request_type = self._request_type
        # The root span (EventLoop.run) serves every request, so it
        # neither adopts a child's rid nor passes one down.
        adopt = kind != "run"

        def timed(fn, *args, **kwargs):
            parent = stack[-1] if stack else None
            rid = None
            for arg in args:
                if type(arg) is request_type:
                    rid = arg.rid
                    break
            if rid is None and parent is not None:
                rid = parent[1]
            frame = [0.0, rid, next(ids), adopt]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_s[layer] += dur - frame[0]
                calls[layer] += 1
                if kind_stat is not None:
                    kind_stat[0] += 1
                    kind_stat[1] += dur
                rid = frame[1]
                if parent is not None:
                    parent[0] += dur
                    if parent[1] is None and parent[3]:
                        parent[1] = rid
                if rid is not None and rid % every == 0:
                    spans.append(
                        (frame[2], name, layer, t0, t1, parent[2] if parent else None, rid)
                    )

        self._timers[key] = timed
        return timed

    def _callback(self, fn: Callable) -> Callable:
        """Wrap a scheduled callback in a span of its owner's layer."""
        func = getattr(fn, "__func__", fn)
        owner_type = type(getattr(fn, "__self__", None))
        key = (owner_type, func)
        timed = self._callback_timers.get(key, _ABSENT)
        if timed is _ABSENT:
            if getattr(func, "_ledger_layer", None) is not None:
                timed = None  # already an entry-point span
            else:
                module = (
                    owner_type.__module__
                    if owner_type is not type(None)
                    else getattr(fn, "__module__", None) or ""
                )
                name = getattr(fn, "__qualname__", None) or repr(fn)
                timed = self.timer(layer_of(module), name)
            self._callback_timers[key] = timed
        return fn if timed is None else functools.partial(timed, fn)

    # ------------------------------------------------------------------
    # installing wrappers
    # ------------------------------------------------------------------
    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
        setattr(owner, attr, value)

    def _warn_missing(self, what: str, exc: BaseException) -> None:
        self.missing.append(what)
        print(f"warning: ledger target {what} not found ({exc}); "
              "its time falls into the enclosing layer", file=sys.stderr)

    def _wrap_method(self, cls: type, attr: str, kind: Optional[str]) -> None:
        raw = getattr(cls, attr)
        raw = getattr(raw, "_ledger_raw", raw)
        layer = layer_of(cls.__module__)
        timed = self.timer(layer, f"{cls.__name__}.{attr}", kind)

        @functools.wraps(raw)
        def method(*args, **kwargs):
            return timed(raw, *args, **kwargs)

        method._ledger_raw = raw
        method._ledger_layer = layer
        self._set(cls, attr, method)

    def _wrap_engine(self) -> None:
        loop_cls = _resolve("repro.sim.engine", "EventLoop")
        sim_timer = self.timer("sim", "EventLoop.schedule")
        callback = self._callback
        ledger = self

        for attr in ("call_at", "call_after"):
            raw = getattr(loop_cls, attr)

            def schedule(loop, when, fn, *args, _raw=raw, **kwargs):
                ledger.scheduled += 1
                return sim_timer(_raw, loop, when, callback(fn), *args, **kwargs)

            functools.update_wrapper(schedule, raw)
            self._set(loop_cls, attr, schedule)

        raw_run = loop_cls.run
        run_timer = self.timer("sim", "EventLoop.run", "run")

        @functools.wraps(raw_run)
        def run(loop, *args, **kwargs):
            before_self, before_calls = dict(ledger.self_s), dict(ledger.calls)
            if ledger.run_entry is None:
                ledger.run_entry = time.monotonic()
            try:
                return run_timer(raw_run, loop, *args, **kwargs)
            finally:
                for layer, value in ledger.self_s.items():
                    ledger.run_self_s[layer] = (
                        ledger.run_self_s.get(layer, 0.0) + value - before_self.get(layer, 0.0)
                    )
                for layer, value in ledger.calls.items():
                    ledger.run_calls[layer] = (
                        ledger.run_calls.get(layer, 0) + value - before_calls.get(layer, 0)
                    )
                ledger.run_wall_s = ledger.kinds["run"][1]

        self._set(loop_cls, "run", run)

    def _count_in_flight(self) -> None:
        server_cls = _resolve("repro.server.server", "Server")
        prop = server_cls.__dict__["in_flight"]
        ledger = self

        def in_flight(server):
            ledger.in_flight_reads += 1
            return prop.fget(server)

        self._set(server_cls, "in_flight", property(in_flight, doc=prop.__doc__))

    def install(self) -> "Ledger":
        """Wrap every target; call before the model is built, because
        the program caches some bound methods at construction."""
        try:
            self._request_type = _resolve("repro.workload.request", "Request")
        except (ImportError, AttributeError) as exc:
            self._warn_missing("repro.workload.request.Request", exc)
        for what, step in (
            ("repro.sim.engine.EventLoop", self._wrap_engine),
            ("repro.server.server.Server.in_flight", self._count_in_flight),
        ):
            try:
                step()
            except (ImportError, AttributeError, KeyError) as exc:
                self._warn_missing(what, exc)
        for target in default_targets():
            where = f"{target.module}.{target.cls}"
            try:
                base = _resolve(target.module, target.cls)
            except (ImportError, AttributeError) as exc:
                self._warn_missing(where, exc)
                continue
            classes = _all_subclasses(base) if target.subclasses else [base]
            for cls in classes:
                names = target.methods
                if names == ("on_*",):
                    names = tuple(n for n in dir(cls) if n.startswith("on_") and callable(getattr(cls, n)))
                for attr in names:
                    if not hasattr(cls, attr):
                        self._warn_missing(f"{where}.{attr}", AttributeError(attr))
                        continue
                    self._wrap_method(cls, attr, target.kind)
        return self

    def uninstall(self) -> None:
        """Restore every wrapped attribute (in-process tests)."""
        for owner, attr, original in reversed(self._restore):
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def kind(self, name: str) -> Tuple[int, float]:
        """(calls, inclusive seconds) of the spans tagged ``name``."""
        calls, seconds = self.kinds.get(name, (0, 0.0))
        return int(calls), float(seconds)

    def layer_metrics(self, n_requests: int, events: int) -> Dict[str, float]:
        """The per-layer metrics of one traced run (see README)."""
        n = max(1, n_requests)
        run_s = self.run_wall_s
        out: Dict[str, float] = {}
        for layer in LAYERS:
            self_s = self.run_self_s.get(layer, 0.0)
            out[f"{layer}.self_us_per_req"] = self_s * 1e6 / n
            out[f"{layer}.share"] = self_s / run_s if run_s > 0 else 0.0
            out[f"{layer}.calls_per_req"] = self.run_calls.get(layer, 0) / n
        sim_self = self.run_self_s.get("sim", 0.0)
        out["sim.events_per_req"] = events / n
        out["sim.us_per_event"] = sim_self * 1e6 / events if events else 0.0
        out["sim.fired_frac"] = events / self.scheduled if self.scheduled else 0.0
        out["core.classify_us_per_req"] = self.kind("classify")[1] * 1e6 / n
        picks, pick_s = self.kind("pick")
        out["rack.pick_us"] = pick_s * 1e6 / picks if picks else 0.0
        out["rack.views.loads_per_pick"] = self.kind("load")[0] / picks if picks else 0.0
        out["server.in_flight_scans_per_req"] = self.in_flight_reads / n
        out["metrics.summary_s"] = self.kind("summary")[1]
        return out

    def other_layers(self) -> Dict[str, float]:
        """In-run self seconds charged outside :data:`LAYERS`."""
        return {k: v for k, v in self.run_self_s.items() if k not in LAYERS and v > 0}


_ABSENT = object()
