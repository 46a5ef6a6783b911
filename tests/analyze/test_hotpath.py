"""The profile-guided hot-path analysis (A401–A406): root detection,
reachability, each rule on seeded fixture violations, pragma and
baseline interplay, and profile-weighted ranking."""

import json

import pytest

from repro.analyze.hotpath import (
    OBSERVER_HOT_METHODS,
    analyze_hotpath,
    function_weights,
    hot_functions,
    hot_roots,
    load_profile,
    rank_findings,
)
from repro.errors import AnalysisError

HOT_SELECT = ["A401", "A402", "A403", "A404", "A405", "A406"]

#: A scheduler-shaped class (ancestry provides both ``on_request`` and
#: ``on_worker_free``) with one seeded violation of every A4xx rule.
SEEDED_TREE = {
    "repro/state.py": """
    class Stats:
        def __init__(self):
            self.count = 0


    class Frozen:
        __slots__ = ("count",)

        def __init__(self):
            self.count = 0
    """,
    "repro/sched.py": """
    import logging

    from repro.state import Frozen, Stats


    class Scheduler:
        def __init__(self):
            self.loop = None
            self.queues = {}

        def on_request(self, request):
            ids = [q for q in self.queues]
            for q in ids:
                extra = [q]
            stats = Stats()
            frozen = Frozen()
            a = self.loop.clock.now
            b = self.loop.clock.now
            msg = f"arrived {request}"
            logging.info(msg)
            try:
                head = self.queues[request]
            except KeyError:
                head = None
            return self.dispatch(request)

        def dispatch(self, request):
            return really_dispatch(request)

        def on_worker_free(self, worker):
            pass


    def really_dispatch(request):
        return request


    def cold_helper():
        return [x for x in range(10)]
    """,
}


def rule_ids(findings):
    return sorted(f.rule_id for f in findings)


def by_rule(findings, rule_id):
    return [f for f in findings if f.rule_id == rule_id]


# ----------------------------------------------------------------------
# root detection + reachability
# ----------------------------------------------------------------------
class TestHotRoots:
    def test_scheduler_shaped_class_methods_are_roots(self, build):
        program = build(SEEDED_TREE)
        keys = {fn.key for fn in hot_roots(program)}
        assert "repro.sched.Scheduler.on_request" in keys
        assert "repro.sched.Scheduler.on_worker_free" in keys

    def test_closure_follows_calls_and_delegation(self, build):
        program = build(SEEDED_TREE)
        hot = hot_functions(program)
        assert "repro.sched.Scheduler.dispatch" in hot
        assert "repro.sched.really_dispatch" in hot
        assert "repro.sched.cold_helper" not in hot

    def test_event_loop_run_is_a_root_by_qualname(self, build):
        program = build(
            {
                "engine.py": """
                def helper():
                    return 1


                class EventLoop:
                    def run(self):
                        return helper()
                """
            }
        )
        hot = hot_functions(program)
        assert "engine.EventLoop.run" in hot
        assert "engine.helper" in hot

    def test_scheduled_callbacks_are_roots(self, build):
        program = build(
            {
                "gen.py": """
                class Generator:
                    def __init__(self, loop):
                        self.loop = loop

                    def start(self):
                        self.loop.call_after(1.0, self._emit)

                    def _emit(self):
                        return [1, 2, 3]
                """
            }
        )
        hot = hot_functions(program)
        assert "gen.Generator._emit" in hot
        assert "gen.Generator.start" not in hot

    def test_observer_hooks_are_roots(self, build):
        program = build(
            {
                "observe.py": """
                class Probe:
                    def on_loop_event(self, loop):
                        return self._scrape(loop)

                    def _scrape(self, loop):
                        return loop

                    def on_ingress(self, request, sched_at):
                        return request

                    def on_complete(self, request, worker):
                        return self._book(request)

                    def _book(self, request):
                        return request

                    def on_preempt(self, request, worker, overhead_us):
                        return request

                    def report(self):
                        return [1, 2, 3]


                class Sink:
                    def on_complete(self, request, worker):
                        return request
                """
            }
        )
        keys = {fn.key for fn in hot_roots(program)}
        assert {
            "observe.Probe.on_loop_event",
            "observe.Probe.on_ingress",
            "observe.Probe.on_complete",
        } <= keys
        hot = hot_functions(program)
        assert "observe.Probe._scrape" in hot
        assert "observe.Probe._book" in hot
        # Rare hooks, cold helpers, and classes the loop never notifies
        # are not roots.
        assert "observe.Probe.on_preempt" not in hot
        assert "observe.Probe.report" not in hot
        assert "observe.Sink.on_complete" not in hot

    def test_shipped_observers_are_roots(self):
        import os

        import repro
        from repro.analyze.model import build_program
        from repro.analyze.model import iter_python_files

        package = os.path.dirname(repro.__file__)
        root = os.path.dirname(package)
        program = build_program(iter_python_files([package]), root=root)
        keys = {fn.key for fn in hot_roots(program)}
        tracer = "repro.trace.tracer.Tracer"
        probe = "repro.telemetry.probe.TelemetryProbe"
        for hook in OBSERVER_HOT_METHODS:
            assert f"{tracer}.{hook}" in keys
        for hook in ("on_loop_event", "on_complete", "on_drop"):
            assert f"{probe}.{hook}" in keys
        hot = hot_functions(program)
        assert f"{probe}._pull_server" in hot
        assert f"{tracer}._take_sample" in hot

    def test_rack_ingress_is_a_root_by_qualname(self, build):
        program = build(
            {
                "rack.py": """
                class RackBalancer:
                    def ingress(self, request):
                        return self.pick(request)

                    def pick(self, request):
                        return 0


                class PowerOfD(RackBalancer):
                    def pick(self, request):
                        return [i for i in (0, 1)][0]


                class Rack:
                    def __init__(self, balancer):
                        self.balancer = balancer

                    def ingress(self, request):
                        return stamp(request)


                def stamp(request):
                    return request
                """
            }
        )
        keys = {fn.key for fn in hot_roots(program)}
        assert {"rack.Rack.ingress", "rack.RackBalancer.ingress"} <= keys
        hot = hot_functions(program)
        assert "rack.stamp" in hot
        assert "rack.PowerOfD.pick" in hot
        assert "rack.Rack.__init__" not in hot

    def test_shipped_rack_routing_is_hot(self):
        import os

        import repro
        from repro.analyze.model import build_program
        from repro.analyze.model import iter_python_files

        package = os.path.dirname(repro.__file__)
        root = os.path.dirname(package)
        program = build_program(iter_python_files([package]), root=root)
        keys = {fn.key for fn in hot_roots(program)}
        assert "repro.rack.rack.Rack.ingress" in keys
        assert "repro.rack.balancers.RackBalancer.ingress" in keys
        hot = hot_functions(program)
        for balancer in ("PowerOfD", "StaleJSQ", "RandomBalancer", "TypeAffinity"):
            assert f"repro.rack.balancers.{balancer}.pick" in hot

    def test_half_scheduler_is_not_a_root(self, build):
        program = build(
            {
                "half.py": """
                class Half:
                    def on_request(self, request):
                        return [q for q in (request,)]
                """
            }
        )
        assert hot_functions(program) == {}


# ----------------------------------------------------------------------
# the six rules on the seeded tree
# ----------------------------------------------------------------------
class TestSeededViolations:
    def test_every_rule_fires_once_expected(self, analyze):
        findings = analyze(SEEDED_TREE, select=HOT_SELECT)
        ids = rule_ids(findings)
        for rule in HOT_SELECT:
            assert rule in ids, f"{rule} did not fire on its seeded violation"

    def test_a401_comprehension_and_loop_literal(self, analyze):
        found = by_rule(analyze(SEEDED_TREE, select=["A401"]), "A401")
        messages = " | ".join(f.message for f in found)
        assert "list comprehension" in messages
        assert "collection literal" in messages
        # cold_helper's comprehension is off the hot path.
        assert not any("cold_helper" in f.message for f in found)

    def test_a402_only_for_slotless_class(self, analyze):
        found = by_rule(analyze(SEEDED_TREE, select=["A402"]), "A402")
        assert len(found) == 1
        assert "Stats" in found[0].message
        assert found[0].path.endswith("state.py")

    def test_a403_repeated_chain(self, analyze):
        found = by_rule(analyze(SEEDED_TREE, select=["A403"]), "A403")
        assert any("self.loop.clock.now" in f.message for f in found)

    def test_a404_fstring_and_logging(self, analyze):
        found = by_rule(analyze(SEEDED_TREE, select=["A404"]), "A404")
        messages = " | ".join(f.message for f in found)
        assert "f-string" in messages
        assert "logging.info" in messages

    def test_a405_narrow_try(self, analyze):
        found = by_rule(analyze(SEEDED_TREE, select=["A405"]), "A405")
        assert len(found) == 1
        assert "KeyError" in found[0].message

    def test_a406_trivial_delegation(self, analyze):
        found = by_rule(analyze(SEEDED_TREE, select=["A406"]), "A406")
        assert len(found) == 1
        assert "dispatch" in found[0].message
        assert "really_dispatch" in found[0].message

    def test_raise_payloads_exempt(self, analyze):
        findings = analyze(
            {
                "loud.py": """
                class Loud:
                    def on_request(self, request):
                        if request is None:
                            raise ValueError(f"bad {request!r}: {[1, 2]}")
                        return request

                    def on_worker_free(self, worker):
                        assert worker is not None, f"no {worker}"
                """
            },
            select=HOT_SELECT,
        )
        assert findings == []

    def test_fingerprints_survive_line_shifts(self, analyze):
        first = analyze(SEEDED_TREE, select=["A403"])
        shifted = {
            path: "\n\n\n" + source for path, source in SEEDED_TREE.items()
        }
        second = analyze(shifted, select=["A403"])
        assert {f.fingerprint for f in first} == {f.fingerprint for f in second}


# ----------------------------------------------------------------------
# pragma suppression + stale-suppression hygiene
# ----------------------------------------------------------------------
class TestPragmas:
    def test_pragma_suppresses_a4xx(self, analyze):
        findings = analyze(
            {
                "sup.py": """
                class Sup:
                    def on_request(self, request):
                        return [  # repro-analyze: disable=A401
                            q for q in (request,)
                        ]

                    def on_worker_free(self, worker):
                        pass
                """
            },
            select=["A401", "A000"],
        )
        assert findings == []

    def test_stale_a4xx_pragma_is_a000(self, analyze):
        findings = analyze(
            {
                "sup.py": """
                class Sup:
                    def on_request(self, request):
                        return request  # repro-analyze: disable=A402

                    def on_worker_free(self, worker):
                        pass
                """
            },
            select=["A402", "A000"],
        )
        assert rule_ids(findings) == ["A000"]
        assert "stale" in findings[0].message


# ----------------------------------------------------------------------
# profile weighting
# ----------------------------------------------------------------------
class TestProfileWeighting:
    def _spans(self, tmp_path, spans):
        """A benchmarks/suite/run.py --spans file: one span per line."""
        path = tmp_path / "spans.jsonl"
        path.write_text("".join(json.dumps(span) + "\n" for span in spans))
        return str(path)

    def test_load_profile_roundtrip(self, tmp_path):
        path = self._spans(
            tmp_path,
            [
                {"workload": "w", "id": 4, "name": "Scheduler.on_request",
                 "layer": "core", "start": 10.0, "end": 12.0, "parent": 3,
                 "rid": 0},
                {"workload": "w", "id": 9, "name": "Scheduler.on_request",
                 "layer": "core", "start": 20.0, "end": 20.5, "parent": 8,
                 "rid": 100},
                {"workload": "w", "id": 5, "name": "EventLoop.schedule",
                 "layer": "sim", "start": 11.0, "end": 11.25, "parent": 4,
                 "rid": 0},
            ],
        )
        assert load_profile(path) == {
            "Scheduler.on_request": 2.5,
            "EventLoop.schedule": 0.25,
        }

    def test_load_profile_rejects_other_documents(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"benchmarks": []}')
        with pytest.raises(AnalysisError, match="not a span"):
            load_profile(str(path))

    def test_load_profile_rejects_garbage(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{nope")
        with pytest.raises(AnalysisError):
            load_profile(str(path))

    def test_weights_flow_through_closure(self, build):
        program = build(SEEDED_TREE)
        weights = function_weights(
            program, {"Scheduler.on_request": 2.0}
        )
        assert weights["repro.sched.Scheduler.on_request"] == 2.0
        # The delegation chain inherits the caller's measured time.
        assert weights["repro.sched.Scheduler.dispatch"] == 2.0
        assert weights["repro.sched.really_dispatch"] == 2.0
        assert "repro.sched.cold_helper" not in weights

    def test_rank_orders_measured_findings_first(self, build):
        program = build(SEEDED_TREE)
        findings = analyze_hotpath(program)
        ranked = rank_findings(
            program, findings, {"Scheduler.on_request": 2.0}
        )
        weights = [w for w, _ in ranked]
        assert weights == sorted(weights, reverse=True)
        assert weights[0] == 2.0
        # Profile input never changes the finding set, only the order.
        assert {f.fingerprint for _, f in ranked} == {
            f.fingerprint for f in findings
        }
