"""Tracer integration: span conservation on clean and chaotic runs,
zero interference with the event heap, decision logging, and sampling."""

import pytest

from repro.errors import SimulationError, TraceError
from repro.experiments.common import run_once
from repro.faults.plan import FaultPlan, PacketDrop, PacketDup
from repro.faults.runner import run_chaos
from repro.sim.engine import EventLoop
from repro.systems.persephone import PersephoneSystem
from repro.systems.shenango import ShenangoSystem
from repro.systems.shinjuku import ShinjukuSystem
from repro.trace import Tracer
from repro.workload.presets import high_bimodal
from repro.workload.request import Request
from repro.workload.resilience import RetryPolicy


def traced_run(system, utilization=0.75, n_requests=3000, seed=1):
    tracer = Tracer()
    result = run_once(
        system,
        high_bimodal(),
        utilization,
        n_requests=n_requests,
        seed=seed,
        tracer=tracer,
    )
    return result, tracer


class TestConservation:
    @pytest.mark.parametrize(
        "make_system",
        [
            lambda: PersephoneSystem(n_workers=8, oracle=True, name="DARC"),
            lambda: ShenangoSystem(n_workers=8, work_stealing=True, name="Shenango"),
            lambda: ShinjukuSystem(n_workers=8, quantum_us=5.0, name="Shinjuku"),
        ],
    )
    def test_every_request_gets_exactly_one_terminal(self, make_system):
        result, tracer = traced_run(make_system())
        recorder = result.server.recorder
        counts = tracer.terminal_counts()
        assert counts["open"] == 0
        assert tracer.spans_opened == sum(counts.values())
        recon = tracer.reconcile(recorder)
        assert recon["ok"], recon

    def test_preemptive_run_records_multi_slice_spans(self):
        result, tracer = traced_run(
            ShinjukuSystem(n_workers=8, quantum_us=5.0, name="Shinjuku")
        )
        assert tracer.preempt_slices > 0
        multi = [s for s in tracer.finished_spans() if len(s.slices) > 1]
        assert multi
        for span in multi:
            assert sum(span.stages().values()) == pytest.approx(span.latency)
        assert any(d.kind == "preempt" for d in tracer.decisions)

    def test_work_stealing_logged_as_decisions(self):
        result, tracer = traced_run(
            ShenangoSystem(n_workers=8, work_stealing=True, name="Shenango")
        )
        steal = [d for d in tracer.decisions if d.kind == "steal"]
        assert len(steal) == tracer.steal_attempts
        assert result.scheduler.steals == tracer.steal_attempts

    def test_darc_reservations_logged_with_algorithm2_io(self):
        system = PersephoneSystem(n_workers=8, oracle=False, min_samples=200)
        result, tracer = traced_run(system, n_requests=4000)
        reservations = [d for d in tracer.decisions if d.kind == "reservation"]
        assert reservations
        for decision in reservations:
            payload = decision.payload
            assert payload["n_workers"] == 8
            assert all(len(entry) == 3 for entry in payload["entries"])
            assert sum(payload["reserved"].values()) <= 8


class TestChaosConservation:
    def test_crash_recover_with_retries_conserves_spans(self):
        plan = FaultPlan.crash_recover(
            [0, 1], crash_at=2500.0, recover_at=4500.0
        ).add(PacketDrop(1000.0, 3000.0, 0.3)).add(PacketDup(1500.0, 3500.0, 0.2))
        tracer = Tracer()
        result = run_chaos(
            PersephoneSystem(n_workers=8, min_samples=200, oracle=False),
            high_bimodal(),
            0.7,
            plan,
            n_requests=4000,
            seed=3,
            retry=RetryPolicy(
                timeout_us=2000.0, max_retries=2, backoff_base_us=50.0,
                jitter_frac=0.1,
            ),
            tracer=tracer,
        )
        recorder = result.recorder
        counts = tracer.terminal_counts()
        assert counts["open"] == 0
        # Span conservation: completions include orphaned (late) attempts,
        # drops match the recorder's ledger; injector-level packet drops
        # never reach the server, so they never open a span.
        assert counts["complete"] == recorder.completed + recorder.late_completions
        assert counts["drop"] + counts["dispatcher_drop"] == recorder.dropped
        recon = tracer.reconcile(recorder)
        assert recon["ok"], recon
        # The episode itself must appear in the decision log.
        kinds = {d.kind for d in tracer.decisions}
        assert "fault.crash" in kinds and "fault.recover" in kinds

    def test_fault_events_cover_packet_faults(self):
        plan = FaultPlan.crash_recover([0], crash_at=2000.0, recover_at=3000.0).add(
            PacketDrop(500.0, 2500.0, 0.4)
        ).add(PacketDup(500.0, 2500.0, 0.3))
        tracer = Tracer()
        run_chaos(
            ShenangoSystem(n_workers=8),
            high_bimodal(),
            0.7,
            plan,
            n_requests=3000,
            seed=2,
            tracer=tracer,
        )
        kinds = [d.kind for d in tracer.decisions]
        assert "fault.packet-drop" in kinds
        assert "fault.packet-dup" in kinds

    def test_crash_evictions_recorded(self):
        plan = FaultPlan.crash_recover([0, 1], crash_at=1500.0, recover_at=3000.0)
        tracer = Tracer()
        result = run_chaos(
            ShinjukuSystem(n_workers=4, quantum_us=5.0),
            high_bimodal(),
            0.8,
            plan,
            n_requests=3000,
            seed=1,
            tracer=tracer,
        )
        assert tracer.evictions >= 1
        evicted = [
            s for s in tracer.spans.values()
            if any(sl.kind == "evict" for sl in s.slices)
        ]
        assert evicted
        assert tracer.reconcile(result.recorder)["ok"]


class TestZeroInterference:
    def test_event_heap_identical_with_tracing(self):
        system = PersephoneSystem(n_workers=8, oracle=True)
        plain = run_once(system, high_bimodal(), 0.75, n_requests=2000, seed=5)
        traced, _ = traced_run(
            PersephoneSystem(n_workers=8, oracle=True), n_requests=2000, seed=5
        )
        assert (
            traced.server.loop.events_processed == plain.server.loop.events_processed
        )
        assert traced.server.loop.now == plain.server.loop.now

    def test_samples_follow_interval_without_new_events(self):
        tracer = Tracer(sample_interval_us=50.0)
        result = run_once(
            PersephoneSystem(n_workers=8, oracle=True),
            high_bimodal(),
            0.75,
            n_requests=3000,
            seed=1,
            tracer=tracer,
        )
        assert len(tracer.samples) >= 2
        times = [s.time for s in tracer.samples]
        assert times == sorted(times)
        assert all(b - a >= 50.0 for a, b in zip(times, times[1:]))
        for sample in tracer.samples:
            assert sample.busy + sample.free + sample.failed == 8


class TestEveryPolicyIsObserved:
    def test_srpt_server_reconciles(self):
        """SRPT has no system model; a server built on it directly is
        traced and metered like any other."""
        from repro.metrics.digest import digest_outcome
        from repro.policies.srpt import ShortestRemainingProcessingTime
        from repro.server.config import ServerConfig
        from repro.server.server import Server
        from repro.sim.randomness import RngRegistry
        from repro.telemetry import TelemetryProbe
        from repro.workload.arrivals import PoissonArrivals
        from repro.workload.generator import OpenLoopGenerator

        def run(*observers):
            spec, rngs, loop = high_bimodal(), RngRegistry(seed=5), EventLoop()
            sched = ShortestRemainingProcessingTime(preempt_cost_us=0.5)
            server = Server(loop, sched, config=ServerConfig(n_workers=4))
            for observer in observers:
                observer.install(loop, server)
            OpenLoopGenerator(
                loop,
                spec,
                PoissonArrivals(0.8 * spec.peak_load(4)),
                server.ingress,
                type_rng=rngs.stream("types"),
                service_rng=rngs.stream("service"),
                arrival_rng=rngs.stream("arrivals"),
                limit=2000,
            ).start()
            loop.run()
            return server, sched, digest_outcome(server.recorder, loop)

        tracer, probe = Tracer(), TelemetryProbe()
        server, sched, digest = run(tracer, probe)
        probe.finalize()
        assert tracer.reconcile(server.recorder)["ok"]
        assert probe.reconcile(server.recorder)["ok"]
        assert sched.preemptions > 0
        assert tracer.preempt_slices == probe.preemptions == sched.preemptions
        assert digest == run()[2]


class TestWiring:
    def test_same_observer_attached_twice_raises(self):
        loop = EventLoop()
        tracer = Tracer()
        loop.attach_observer(tracer)
        with pytest.raises(SimulationError, match="already attached"):
            loop.attach_observer(tracer)
        assert loop.observers == (tracer,)

    def test_observer_without_loop_hook_raises(self):
        with pytest.raises(SimulationError, match="on_loop_event"):
            EventLoop().attach_observer(object())

    def test_replica_tracers_both_get_loop_events(self):
        from repro.rack.rack import run_rack
        from repro.rack.tracing import RackTracer

        rack_tracer = RackTracer(sample_interval_us=50.0)
        result = run_rack(
            PersephoneSystem(n_workers=4, oracle=True),
            high_bimodal(),
            balancer="pow2",
            n_servers=2,
            n_requests=1500,
            seed=3,
            tracer=rack_tracer,
        )
        first, second = rack_tracer.tracers
        assert first._loop is second._loop
        assert first._loop.observers[:2] == (first, second)
        for tracer in (first, second):
            times = [s.time for s in tracer.samples]
            assert len(times) >= 10
            assert all(b - a >= 50.0 for a, b in zip(times, times[1:]))
        assert result.recorder.completed == 1500

    @pytest.mark.parametrize("interval", [float("nan"), 0.0, -1.0])
    def test_bad_sample_interval_refused_at_construction(self, interval):
        from repro.rack.tracing import RackTracer

        with pytest.raises(TraceError, match="sample_interval_us"):
            Tracer(sample_interval_us=interval)
        with pytest.raises(TraceError, match="sample_interval_us"):
            RackTracer(sample_interval_us=interval)

    def test_two_tracers_on_one_server_see_the_same_run(self, tmp_path):
        """Every hook site calls every attached tracer: both match the
        recorder and a lone tracer's export, byte for byte."""
        from repro.trace.export import write_trace

        first, second, alone = Tracer(), Tracer(), Tracer()

        def install_both(loop, server, injector=None):
            Tracer.install(first, loop, server)
            Tracer.install(second, loop, server)

        first.install = install_both
        exports = []
        for tracer in (first, alone):
            result = run_once(
                PersephoneSystem(n_workers=8, oracle=False, min_samples=200),
                high_bimodal(),
                0.8,
                n_requests=2000,
                seed=35,
                tracer=tracer,
            )
            recorder = result.server.recorder
            for observer in (tracer, second) if tracer is first else (alone,):
                assert observer.reconcile(recorder)["ok"]
                assert observer.spans_opened == 2000
                path = tmp_path / f"{len(exports)}.trace.json"
                write_trace(str(path), observer, recorder=recorder)
                exports.append(path.read_bytes())
        assert exports[0] == exports[1] == exports[2]

    def test_uninstalled_tracer_hook_raises_trace_error(self):
        tracer = Tracer()
        request = Request(rid=1, type_id=0, service_time=1.0, arrival_time=0.0)
        with pytest.raises(TraceError, match="not installed"):
            tracer.on_dispatcher_drop(request)
        with pytest.raises(TraceError, match="not installed"):
            _ = tracer.now

    def test_tracer_installs_once(self):
        _, tracer = traced_run(
            PersephoneSystem(n_workers=8, oracle=True), n_requests=100
        )
        with pytest.raises(TraceError, match="already installed"):
            tracer.install(EventLoop(), None)

    def test_duplicate_ingress_raises(self):
        tracer = Tracer()
        tracer._loop = EventLoop()
        request = Request(rid=1, type_id=0, arrival_time=0.0, service_time=1.0)
        tracer.on_ingress(request, 0.0, 0.0)
        with pytest.raises(TraceError, match="duplicate ingress"):
            tracer.on_ingress(request, 0.0, 0.0)

    def test_drop_of_unknown_rid_is_tolerated(self):
        tracer = Tracer()
        tracer._loop = EventLoop()
        request = Request(rid=99, type_id=0, arrival_time=0.0, service_time=1.0)
        tracer.on_drop(request)
        assert tracer.drops == 0
