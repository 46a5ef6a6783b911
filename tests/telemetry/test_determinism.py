"""The zero-interference contract: a metered run's observable outcome
is bit-identical to an unmetered one, and the metrics document itself
is a pure function of the seed."""

import pytest

from repro.analyze.determinism import digest_run
from repro.systems.persephone import PersephoneSystem
from repro.systems.shenango import ShenangoSystem
from repro.systems.shinjuku import ShinjukuSystem
from repro.telemetry import TelemetryProbe
from repro.workload.presets import high_bimodal

SYSTEMS = [
    lambda: PersephoneSystem(n_workers=8, oracle=False, min_samples=200, name="DARC"),
    lambda: ShenangoSystem(n_workers=8, work_stealing=True, name="Shenango"),
    lambda: ShinjukuSystem(n_workers=8, quantum_us=5.0, name="Shinjuku"),
]


class TestMeteredRunsAreBitIdentical:
    @pytest.mark.parametrize("make_system", SYSTEMS)
    def test_digest_unchanged_by_telemetry(self, make_system):
        spec = high_bimodal()
        plain = digest_run(make_system(), spec, 0.75, n_requests=2000, seed=7)
        metered = digest_run(
            make_system(),
            spec,
            0.75,
            n_requests=2000,
            seed=7,
            telemetry=TelemetryProbe(),
        )
        assert metered.digest == plain.digest
        assert metered.events_processed == plain.events_processed
        assert metered.final_time == plain.final_time

    def test_digest_unchanged_with_tracer_and_telemetry_together(self):
        from repro.trace import Tracer

        spec = high_bimodal()
        plain = digest_run(SYSTEMS[0](), spec, 0.75, n_requests=2000, seed=7)
        both = digest_run(
            SYSTEMS[0](),
            spec,
            0.75,
            n_requests=2000,
            seed=7,
            tracer=Tracer(),
            telemetry=TelemetryProbe(),
        )
        assert both.digest == plain.digest

    def test_metrics_document_is_seed_deterministic(self, tmp_path):
        from repro.experiments.common import run_once
        from repro.telemetry.export import write_metrics

        suffixes = ("prom", "jsonl", "html")
        runs = []
        for i in range(2):
            probe = TelemetryProbe()
            result = run_once(
                PersephoneSystem(n_workers=8, oracle=True),
                high_bimodal(),
                0.75,
                n_requests=1500,
                seed=11,
                telemetry=probe,
            )
            base = tmp_path / f"run{i}.metrics"
            write_metrics(
                str(base),
                probe,
                recorder=result.server.recorder,
                meta={"seed": 11},
            )
            runs.append(base)
        import pathlib

        for suffix in suffixes:
            a = pathlib.Path(f"{runs[0]}.{suffix}").read_bytes()
            b = pathlib.Path(f"{runs[1]}.{suffix}").read_bytes()
            assert a == b, f"nondeterministic .{suffix} export"
