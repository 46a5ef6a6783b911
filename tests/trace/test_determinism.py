"""The zero-overhead contract: a traced run's observable outcome is
byte-identical to an untraced one, and the trace document itself is a
pure function of the seed."""

import json

import pytest

from repro.analyze.determinism import digest_run
from repro.systems.persephone import PersephoneSystem
from repro.systems.shenango import ShenangoSystem
from repro.systems.shinjuku import ShinjukuSystem
from repro.trace import Tracer
from repro.trace.export import write_trace
from repro.workload.presets import high_bimodal

SYSTEMS = [
    lambda: PersephoneSystem(n_workers=8, oracle=False, min_samples=200, name="DARC"),
    lambda: ShenangoSystem(n_workers=8, work_stealing=True, name="Shenango"),
    lambda: ShinjukuSystem(n_workers=8, quantum_us=5.0, name="Shinjuku"),
]


class TestTracedRunsAreBitIdentical:
    @pytest.mark.parametrize("make_system", SYSTEMS)
    def test_digest_unchanged_by_tracing(self, make_system):
        spec = high_bimodal()
        plain = digest_run(make_system(), spec, 0.75, n_requests=2000, seed=7)
        traced = digest_run(
            make_system(), spec, 0.75, n_requests=2000, seed=7, tracer=Tracer()
        )
        assert traced.digest == plain.digest
        assert traced.events_processed == plain.events_processed
        assert traced.final_time == plain.final_time

    def test_trace_document_is_seed_deterministic(self, tmp_path):
        from repro.experiments.common import run_once

        paths = []
        for i in range(2):
            tracer = Tracer()
            result = run_once(
                PersephoneSystem(n_workers=8, oracle=True),
                high_bimodal(),
                0.75,
                n_requests=1500,
                seed=11,
                tracer=tracer,
            )
            path = tmp_path / f"run{i}.trace.json"
            write_trace(
                str(path),
                tracer,
                recorder=result.server.recorder,
                meta={"seed": 11},
            )
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        # and it is actual JSON with both layers present
        doc = json.loads(paths[0].read_text())
        assert set(doc) >= {"traceEvents", "repro"}
