"""The runtime tie-break shadow check (SimSanitizer shadow mode) and
its EventLoop support (peek_event)."""

from repro.analyze.determinism import default_systems, digest_run
from repro.metrics.sanitizer import SimSanitizer
from repro.sim.engine import EventLoop
from repro.workload.presets import high_bimodal


class TestPeekEvent:
    def test_peek_returns_earliest_without_popping(self):
        loop = EventLoop()
        loop.call_at(2.0, lambda: None)
        first = loop.call_at(1.0, lambda: None)
        assert loop.peek_event() is first
        assert loop.peek_event() is first  # non-destructive

    def test_peek_skips_cancelled(self):
        loop = EventLoop()
        doomed = loop.call_at(1.0, lambda: None)
        survivor = loop.call_at(2.0, lambda: None)
        doomed.cancel()
        assert loop.peek_event() is survivor

    def test_peek_empty(self):
        assert EventLoop().peek_event() is None


class StubWorker:
    def __init__(self, worker_id=0):
        self.worker_id = worker_id
        self.current = None
        self.failed = False
        self.speed_factor = 1.0


class StubScheduler:
    def pending_count(self):
        return 0


class StubRecorder:
    def __init__(self):
        self.completed = 0
        self.dropped = 0
        self.late_completions = 0


class StubServer:
    """The minimal observable surface the sanitizer inspects."""

    def __init__(self):
        self.workers = [StubWorker(0)]
        self.scheduler = StubScheduler()
        self.recorder = StubRecorder()
        self.received = 0
        self.in_flight = 0
        self.pending = 0
        self.failed_workers = 0


def shadow_run(schedule):
    """Run ``schedule(loop, server)`` under a shadow sanitizer."""
    loop = EventLoop()
    server = StubServer()
    sanitizer = SimSanitizer(shadow_tiebreaks=True)
    sanitizer.attach(loop, server)
    schedule(loop, server)
    loop.run()
    return sanitizer


class TestShadowCheck:
    def test_overlapping_writes_recorded_as_hazard(self):
        def schedule(loop, server):
            def ingest():
                server.received += 1
                server.recorder.completed += 1

            def replay():
                server.received += 10
                server.recorder.completed += 10

            loop.call_at(1.0, ingest)
            loop.call_at(1.0, replay)

        sanitizer = shadow_run(schedule)
        assert sanitizer.ties_checked == 2
        assert len(sanitizer.tiebreak_hazards) == 1
        hazard = sanitizer.tiebreak_hazards[0]
        assert hazard["time"] == 1.0
        assert hazard["keys"] == ["rec.completed", "srv.received"]
        assert "ingest" in hazard["handlers"][0]
        assert "replay" in hazard["handlers"][1]
        assert hazard["digests"][0] != hazard["digests"][1]

    def test_disjoint_writes_are_benign(self):
        def schedule(loop, server):
            def ingest():
                server.received += 1
                server.recorder.completed += 1

            def degrade():
                server.workers[0].failed = True

            loop.call_at(1.0, ingest)
            loop.call_at(1.0, degrade)

        sanitizer = shadow_run(schedule)
        assert sanitizer.ties_checked == 2
        assert sanitizer.tiebreak_hazards == []

    def test_same_handler_tie_is_benign(self):
        def schedule(loop, server):
            def ingest():
                server.received += 1
                server.recorder.completed += 1

            loop.call_at(1.0, ingest)
            loop.call_at(1.0, ingest)

        sanitizer = shadow_run(schedule)
        assert sanitizer.tiebreak_hazards == []

    def test_untied_events_pay_nothing(self):
        def schedule(loop, server):
            def ingest():
                server.received += 1
                server.recorder.completed += 1

            loop.call_at(1.0, ingest)
            loop.call_at(2.0, ingest)

        sanitizer = shadow_run(schedule)
        assert sanitizer.ties_checked == 0
        assert sanitizer.tiebreak_hazards == []

    def test_three_way_tie_pairs_against_all_members(self):
        def schedule(loop, server):
            def a():
                server.received += 1
                server.recorder.completed += 1

            def b():
                server.received += 10
                server.recorder.completed += 10

            def c():
                server.received += 100
                server.recorder.completed += 100

            for fn in (a, b, c):
                loop.call_at(1.0, fn)

        sanitizer = shadow_run(schedule)
        assert sanitizer.ties_checked == 3
        # b conflicts with a; c conflicts with both.
        assert len(sanitizer.tiebreak_hazards) == 3

    def test_shadow_off_by_default(self):
        loop = EventLoop()
        sanitizer = SimSanitizer()
        sanitizer.attach(loop, StubServer())
        loop.call_at(1.0, lambda: None)
        loop.call_at(1.0, lambda: None)
        loop.run()
        assert sanitizer.ties_checked == 0


class TestDigestNeutrality:
    def test_shadow_mode_does_not_perturb_results(self):
        """The acceptance criterion: shadow mode records, never steers —
        the run digest is bit-identical with it on."""
        system = default_systems()[0]
        plain = digest_run(system, high_bimodal(), n_requests=400, seed=7, sanitize=True)
        shadow = digest_run(
            system, high_bimodal(), n_requests=400, seed=7, sanitize="shadow"
        )
        assert plain.digest == shadow.digest

    def test_run_result_carries_shadow_sanitizer(self):
        from repro.experiments.common import run_once

        system = default_systems()[0]
        result = run_once(
            system, high_bimodal(), 0.7, n_requests=300, seed=3, sanitize="shadow"
        )
        sanitizer = result.sanitizer
        assert sanitizer is not None and sanitizer.shadow_tiebreaks
        assert sanitizer.events_checked > 0
        # A healthy non-chaos run may or may not tie; hazards must be
        # recorded, never raised.
        assert isinstance(sanitizer.tiebreak_hazards, list)
