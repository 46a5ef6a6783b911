"""The tracer and the probe see the same completions.

Both observers are fed at the same completion sites
(``policies/base.py``, ``fcfs.py``, ``timesharing.py``) with the same
``(type_id, latency)``: the tracer from its span, the probe from the
request.  So when both watch one server, their streaming tail monitors
hold identical P² state, on every ingress path that ships: the
generator, the resilient client's retries, the injector's duplicates and
the Figure 7 phase schedule.  That is why a probe installed on a traced
server adopts the tracer's monitor instead of feeding its own.

The monitor buffers latencies and feeds them to its P² estimators in
blocks through ``P2Quantile.update_many``; the counts below are values
fed that way, and the buffers never outgrow ``FEED_BLOCK``.
"""

from repro.experiments import figure7
from repro.experiments.common import run_once
from repro.faults.plan import FaultPlan, PacketDup, WorkerCrash, WorkerRecover
from repro.faults.runner import run_chaos
from repro.metrics.percentiles import P2Quantile
from repro.rack.rack import run_rack
from repro.rack.tracing import RackTracer
from repro.systems.persephone import PersephoneSystem
from repro.systems.shinjuku import ShinjukuSystem
from repro.telemetry import TelemetryProbe
from repro.trace import Tracer
from repro.trace import monitor as monitor_module
from repro.workload.presets import high_bimodal
from repro.workload.resilience import RetryPolicy


def _assert_same_tails(tracer, probe, alone):
    """``probe`` watched the run beside ``tracer``; ``alone`` watched the
    same run without one and fed its own monitor."""
    expected = tracer.tail_monitor.snapshot()
    assert expected["overall"]["count"] == tracer.completions > 0
    assert probe.tail_monitor.snapshot() == expected
    assert alone.tail_monitor is not tracer.tail_monitor
    assert alone.tail_monitor.snapshot() == expected


def _check(run):
    """Run ``run(tracer, probe)`` with both observers, then with a probe
    alone, and compare the tails."""
    tracer, probe, alone = Tracer(), TelemetryProbe(), TelemetryProbe()
    run(tracer, probe)
    run(None, alone)
    _assert_same_tails(tracer, probe, alone)
    return tracer


class TestSameTailsOnEveryIngressPath:
    def test_darc_run_once(self):
        _check(
            lambda tracer, probe: run_once(
                PersephoneSystem(n_workers=8, oracle=False, min_samples=200),
                high_bimodal(),
                0.8,
                n_requests=3000,
                seed=31,
                tracer=tracer,
                telemetry=probe,
            )
        )

    def test_shinjuku_time_sharing_run_once(self):
        tracer = _check(
            lambda tracer, probe: run_once(
                ShinjukuSystem(n_workers=8, quantum_us=5.0, mode="multi", trigger="timer"),
                high_bimodal(),
                0.7,
                n_requests=2500,
                seed=32,
                tracer=tracer,
                telemetry=probe,
            )
        )
        assert tracer.preempt_slices > 0

    def test_chaos_with_retries_and_duplicates(self):
        results = []

        def run(tracer, probe):
            results.append(
                run_chaos(
                    PersephoneSystem(n_workers=8, oracle=False, min_samples=200),
                    high_bimodal(),
                    0.7,
                    FaultPlan(
                        [
                            WorkerCrash(1_500.0, 0),
                            WorkerCrash(1_800.0, 1, requeue=False),
                            PacketDup(2_000.0, 5_000.0, 0.2),
                            WorkerRecover(6_000.0, 0),
                            WorkerRecover(6_000.0, 1),
                        ]
                    ),
                    n_requests=3000,
                    seed=33,
                    retry=RetryPolicy(
                        timeout_us=400.0,
                        max_retries=2,
                        backoff_base_us=50.0,
                        jitter_frac=0.25,
                    ),
                    tracer=tracer,
                    telemetry=probe,
                )
            )

        _check(run)
        for result in results:
            assert result.injector.counters()["packets_duplicated"] > 0
            assert result.recorder.orphan_counters()["retries"] > 0

    def test_figure7_driver(self, tmp_path, monkeypatch):
        installed = []
        for cls in (Tracer, TelemetryProbe):
            original = cls.install

            def install(self, *args, _original=original, **kwargs):
                installed.append(self)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "install", install)
        for trace_dir in (str(tmp_path / "trace"), None):
            figure7.run(
                phases=figure7.default_phases(phase_us=4_000.0),
                seed=34,
                window_us=2_000.0,
                trace_dir=trace_dir,
                metrics_dir=str(tmp_path / "metrics"),
            )
        # Two systems observed by a tracer and a probe, then by probes.
        tracers, probes, alone = installed[0:4:2], installed[1:4:2], installed[4:]
        assert all(isinstance(t, Tracer) for t in tracers)
        assert all(isinstance(p, TelemetryProbe) for p in probes + alone)
        assert len(alone) == 2
        for triple in zip(tracers, probes, alone):
            _assert_same_tails(*triple)


def _darc_run(**observers):
    return run_once(
        PersephoneSystem(n_workers=8, oracle=False, min_samples=200),
        high_bimodal(),
        0.8,
        n_requests=2000,
        seed=35,
        **observers,
    )


def _count_fed(monkeypatch):
    """Count the values fed to every P² estimator from now on."""
    fed = [0]
    original = P2Quantile.update_many

    def update_many(self, xs):
        fed[0] += len(xs)
        original(self, xs)

    monkeypatch.setattr(P2Quantile, "update_many", update_many)
    return fed


class TestOneMonitorPerServer:
    def test_probe_on_a_traced_server_adopts_the_tracers_monitor(self):
        tracer, probe = Tracer(), TelemetryProbe()
        _darc_run(tracer=tracer, telemetry=probe)
        assert probe.tail_monitor is tracer.tail_monitor
        assert tracer.tail_monitor.count() == tracer.completions == probe.completions

    def test_rack_probe_keeps_its_own_monitor(self, monkeypatch):
        """P² markers do not merge, so the rack probe's estimate cannot
        be built from the replicas' monitors: a traced and metered rack
        feeds each completion to its replica's monitor and to the
        probe's, two values each."""
        fed = _count_fed(monkeypatch)
        probe = TelemetryProbe()
        result = run_rack(
            PersephoneSystem(n_workers=4, oracle=False, min_samples=200),
            high_bimodal(),
            balancer="pow2",
            n_servers=4,
            n_requests=1500,
            seed=36,
            tracer=RackTracer(),
            telemetry=probe,
        )
        replica_monitors = [t.tail_monitor for t in result.tracer.tracers]
        assert all(probe.tail_monitor is not m for m in replica_monitors)
        assert sum(m.count() for m in replica_monitors) == 1500
        assert probe.tail_monitor.count() == probe.completions == 1500
        assert fed[0] == 4 * 1500

    def test_probe_with_another_pct_keeps_its_own_monitor(self):
        tracer, probe = Tracer(tail_pct=99.9), TelemetryProbe(tail_pct=99.0)
        _darc_run(tracer=tracer, telemetry=probe)
        assert probe.tail_monitor is not tracer.tail_monitor
        assert probe.tail_monitor.pct == 99.0
        assert probe.tail_monitor.count() == tracer.tail_monitor.count() > 0

    def test_two_p2_updates_per_completion(self, monkeypatch):
        fed = _count_fed(monkeypatch)
        tracer, probe = Tracer(), TelemetryProbe()
        _darc_run(tracer=tracer, telemetry=probe)
        tracer.tail_monitor.count()  # drains what the last scrape left
        # One per-type and one overall value, once per completion.
        assert fed[0] == 2 * tracer.completions

    def test_unread_monitor_buffers_stay_within_the_feed_block(self, monkeypatch):
        """A tracer alone has no scrape reading its monitor: the buffers
        drain on their own at FEED_BLOCK values, so memory stays O(1)."""
        held = []
        observe = monitor_module.TailMonitor.observe

        def watched(self, type_id, latency_us):
            observe(self, type_id, latency_us)
            held.append(sum(len(b) for b in self._buffers.values()))

        monkeypatch.setattr(monitor_module.TailMonitor, "observe", watched)
        tracer = Tracer()
        _darc_run(tracer=tracer)
        assert len(held) == tracer.completions == 2000
        # Overall and per-type buffers together hold twice the block.
        assert max(held) == 2 * (monitor_module.FEED_BLOCK - 1)
