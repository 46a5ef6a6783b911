"""Extension: chaos episode — crash/recover under load, three systems.

A quarter into the run two of eight cores die; at the halfway point they
return.  This benchmark runs the full three-system episode and checks
that every system balances its attempt ledger and recovers.  The
episode's recovery profile at 20,000 requests is pinned value for value
in ``tests/faults/test_chaos.py``.
"""

from repro.experiments import chaos


def test_chaos_episode(bench_n_requests):
    result = chaos.run(n_requests=bench_n_requests, seed=1)
    print()
    print(chaos.render(result))

    for name, res in result.results.items():
        recorder = res.recorder
        # Drained run with recovered cores: the attempt ledger balances.
        assert res.server.in_flight == 0
        assert res.server.pending == 0
        assert res.server.received == (
            recorder.completed + recorder.late_completions + recorder.dropped
        )
        assert recorder.completed > 0
        # The episode leaves a visible scar in every system's timeline.
        assert res.injector.crashes == 2
        assert res.injector.recoveries == 2
        # ... and every system eventually recovers once capacity returns.
        assert res.time_to_recover(sustain=2) is not None

    # DARC re-ran its reservation when capacity changed.
    persephone = result.results["Persephone"]
    assert getattr(persephone.scheduler, "reservation_updates", 0) >= 3
