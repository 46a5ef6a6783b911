"""The probe end-to-end on real runs: scrape pacing, queue-depth and
DARC gauges, push-counter/Recorder reconciliation."""

import pytest

from repro.errors import TelemetryError
from repro.experiments.common import run_once
from repro.systems.persephone import PersephoneCfcfsSystem, PersephoneSystem
from repro.systems.shenango import ShenangoSystem
from repro.telemetry import TelemetryProbe
from repro.workload.presets import high_bimodal


@pytest.fixture(scope="module")
def darc_run():
    probe = TelemetryProbe()
    result = run_once(
        PersephoneSystem(n_workers=8, oracle=False, min_samples=200, name="DARC"),
        high_bimodal(),
        0.8,
        n_requests=3000,
        seed=3,
        telemetry=probe,
    )
    return probe, result


class TestScrapeLoop:
    def test_scrapes_paced_by_virtual_time(self, darc_run):
        probe, result = darc_run
        duration = result.server.loop.now
        # One scrape per interval boundary crossed (plus install/final);
        # never more than one per executed event.
        assert probe.scrapes >= duration / probe.scrape_interval_us * 0.5
        assert probe.scrapes <= result.server.loop.events_processed + 2
        assert probe.timeline.n_scrapes == probe.scrapes

    def test_timeline_times_are_monotonic(self, darc_run):
        probe, _ = darc_run
        times = probe.timeline.times
        assert all(t1 <= t2 for t1, t2 in zip(times, times[1:]))

    @pytest.mark.parametrize("interval", [float("nan"), 0.0, -1.0])
    def test_bad_scrape_interval_refused_at_construction(self, interval):
        with pytest.raises(TelemetryError, match="scrape_interval_us"):
            TelemetryProbe(scrape_interval_us=interval)

    def test_one_probe_per_run(self, darc_run):
        probe, result = darc_run
        with pytest.raises(TelemetryError):
            probe.install(result.server.loop, result.server)


class TestGauges:
    def test_per_type_queue_depth_series_exist(self, darc_run):
        probe, _ = darc_run
        keys = {s.key for s in probe.registry.series()}
        assert any(k.startswith('repro_queue_depth{type="') for k in keys)

    def test_darc_reservation_gauges_exist(self, darc_run):
        probe, _ = darc_run
        reserved = probe.registry.family_total("repro_darc_reserved_cores")
        assert reserved > 0
        assert probe.reservation_updates > 0
        assert (
            probe.registry.family_total("repro_darc_reservation_updates_total")
            == probe.reservation_updates
        )

    def test_tail_gauges_published(self, darc_run):
        probe, _ = darc_run
        assert probe.registry.family_total("repro_tail_latency_us") > 0

    def test_per_worker_queue_depth_for_dfcfs(self):
        probe = TelemetryProbe()
        run_once(
            ShenangoSystem(n_workers=4, work_stealing=True, name="Shenango"),
            high_bimodal(),
            0.7,
            n_requests=1500,
            seed=5,
            telemetry=probe,
        )
        keys = {s.key for s in probe.registry.series()}
        assert 'repro_queue_depth{worker="0"}' in keys
        assert probe.steals >= 0  # counted, possibly zero at low load

    def test_central_queue_depth_for_cfcfs(self):
        probe = TelemetryProbe()
        run_once(
            PersephoneCfcfsSystem(n_workers=4, name="c-FCFS"),
            high_bimodal(),
            0.7,
            n_requests=1500,
            seed=5,
            telemetry=probe,
        )
        keys = {s.key for s in probe.registry.series()}
        assert 'repro_queue_depth{queue="central"}' in keys


class TestReconciliation:
    @pytest.mark.parametrize(
        "make_system",
        [
            lambda: PersephoneSystem(n_workers=8, oracle=True, name="DARC"),
            lambda: ShenangoSystem(n_workers=8, work_stealing=True, name="Shenango"),
            lambda: PersephoneCfcfsSystem(n_workers=8, name="c-FCFS"),
        ],
    )
    def test_push_counters_match_recorder_exactly(self, make_system):
        probe = TelemetryProbe()
        result = run_once(
            make_system(), high_bimodal(), 0.85, n_requests=2500, seed=9,
            telemetry=probe,
        )
        recorder = result.server.recorder
        verdict = probe.reconcile(recorder)
        assert verdict["ok"], verdict
        assert probe.completions == recorder.completed + recorder.late_completions
        assert (
            probe.registry.family_total("repro_requests_completed_total")
            == probe.completions
        )

    def test_two_probes_on_one_server_see_the_same_run(self, tmp_path):
        """Every hook site calls every attached probe: both match the
        recorder and a lone probe's exports, byte for byte."""
        from repro.telemetry.export import write_metrics

        first, second, alone = TelemetryProbe(), TelemetryProbe(), TelemetryProbe()

        def install_both(loop, server=None, injector=None):
            TelemetryProbe.install(first, loop, server)
            TelemetryProbe.install(second, loop, server)

        first.install = install_both
        exports = []
        for probe in (first, alone):
            result = run_once(
                PersephoneSystem(n_workers=8, oracle=False, min_samples=200),
                high_bimodal(),
                0.8,
                n_requests=2000,
                seed=35,
                telemetry=probe,
            )
            recorder = result.server.recorder
            for observer in (probe, second) if probe is first else (alone,):
                assert observer.reconcile(recorder)["ok"]
                assert observer.completions == 2000
                base = str(tmp_path / str(len(exports)))
                paths = write_metrics(base, observer, recorder=recorder)
                exports.append(
                    [open(paths[k], "rb").read() for k in ("prometheus", "jsonl")]
                )
        assert exports[0] == exports[1] == exports[2]

    def test_counter_totals_shape(self, darc_run):
        probe, _ = darc_run
        totals = probe.counter_totals()
        assert set(totals) == {
            "completions",
            "drops",
            "preemptions",
            "evictions",
            "steals",
            "reservation_updates",
        }
        assert totals["completions"] == probe.completions
