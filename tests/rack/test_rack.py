"""run_rack end to end: conservation, determinism, chaos, telemetry."""

import pytest

from repro.errors import ConfigurationError
from repro.rack.faults import RackFaultPlan
from repro.rack.rack import run_rack
from repro.systems.persephone import PersephoneCfcfsSystem, PersephoneSystem
from repro.systems.shinjuku import ShinjukuSystem
from repro.workload.phases import Phase
from repro.workload.presets import high_bimodal

SMALL = dict(n_servers=4, utilization=0.6, n_requests=2000, seed=3)


def small_system(n_workers=2):
    return PersephoneCfcfsSystem(n_workers=n_workers)


class TestConservation:
    def test_every_arrival_completes_or_drops(self):
        result = run_rack(small_system(), high_bimodal(), balancer="pow2", **SMALL)
        # Raw recorder counts (RunSummary trims warmup): nothing vanishes.
        assert result.recorder.completed + result.recorder.dropped == 2000
        # Per-replica recorders partition the same stream exactly.
        assert sum(r.completed + r.dropped for r in result.replica_recorders) == 2000
        assert sum(result.replica_loads()) == 2000

    def test_replica_summaries_cover_all_replicas(self):
        result = run_rack(small_system(), high_bimodal(), balancer="jsq-stale", **SMALL)
        summaries = result.replica_summaries()
        assert len(summaries) == 4
        assert sum(s.completed for s in summaries) > 0

    def test_sessions_are_stamped(self):
        result = run_rack(
            small_system(), high_bimodal(), balancer="session",
            n_servers=4, utilization=0.5, n_requests=500, seed=3, n_users=1000,
        )
        assert result.recorder.completed + result.recorder.dropped == 500


class TestDeterminism:
    def test_same_seed_same_digest(self):
        kwargs = dict(n_servers=4, utilization=0.6, n_requests=1200, seed=9)
        a = run_rack(small_system(), high_bimodal(), balancer="pow2", **kwargs)
        b = run_rack(small_system(), high_bimodal(), balancer="pow2", **kwargs)
        assert a.digest() == b.digest()

    def test_different_seeds_differ(self):
        a = run_rack(small_system(), high_bimodal(), balancer="pow2", **SMALL)
        b = run_rack(small_system(), high_bimodal(), balancer="pow2",
                     **{**SMALL, "seed": 4})
        assert a.digest() != b.digest()

    def test_sanitizer_does_not_perturb_digest(self):
        plain = run_rack(small_system(), high_bimodal(), balancer="pow2", **SMALL)
        shadowed = run_rack(small_system(), high_bimodal(), balancer="pow2",
                            sanitize="shadow", **SMALL)
        assert plain.digest() == shadowed.digest()

    def test_balancers_see_identical_request_streams(self):
        # The session stamp is drawn for every request regardless of
        # balancer, so two balancers at one seed route the same stream:
        # total arrivals (and their ids) must match even though placement
        # differs.
        a = run_rack(small_system(), high_bimodal(), balancer="pow2", **SMALL)
        b = run_rack(small_system(), high_bimodal(), balancer="session", **SMALL)
        assert a.recorder.completed + a.recorder.dropped == 2000
        assert b.recorder.completed + b.recorder.dropped == 2000
        assert a.digest() != b.digest()  # placement does differ


class TestChaos:
    def test_full_server_crash_yields_per_tier_degradation(self):
        plan = RackFaultPlan.server_crash_recover(
            [0, 1], crash_at=2_000.0, recover_at=12_000.0
        )
        result = run_rack(
            small_system(), high_bimodal(), balancer="jsq-stale",
            n_servers=4, utilization=0.6, n_requests=6000, seed=3, plan=plan,
        )
        counters = result.injector.counters()
        assert counters["server_crashes"] == 2
        assert counters["server_recoveries"] == 2
        assert counters["worker_crashes"] == 4
        # Conservation still holds under whole-server loss.
        assert result.recorder.completed + result.recorder.dropped == 6000
        tiers = result.degradation(window_us=1_000.0, slo_latency_us=200.0)
        assert len(tiers["balancer"].times) > 0
        assert len(tiers["servers"]) == 4
        # The crashed replicas show a violation window; the rack-level
        # view confirms the blast was client-visible too at this load.
        assert tiers["balancer"].violation_time_us() > 0

    def test_partition_drains_but_gets_no_new_work(self):
        plan = RackFaultPlan.partition([3], at=1_000.0, until=3_000.0)
        result = run_rack(
            small_system(), high_bimodal(), balancer="jsq-stale",
            n_servers=4, utilization=0.5, n_requests=3000, seed=3, plan=plan,
        )
        assert result.injector.partitions == 1
        assert result.injector.partition_heals == 1
        assert result.recorder.completed + result.recorder.dropped == 3000

    def test_whole_rack_crash_recover_conserves(self):
        # Satellite regression: every replica dead at once — requests
        # queue on the least-loaded dead replica and drain on recovery.
        plan = RackFaultPlan.server_crash_recover(
            [0, 1, 2, 3], crash_at=1_000.0, recover_at=8_000.0
        )
        result = run_rack(
            small_system(), high_bimodal(), balancer="jsq-stale",
            n_servers=4, utilization=0.5, n_requests=4000, seed=3, plan=plan,
        )
        assert result.recorder.completed + result.recorder.dropped == 4000
        assert sum(
            r.completed + r.dropped for r in result.replica_recorders
        ) == 4000


class TestTelemetry:
    def test_metrics_do_not_perturb_digest(self, tmp_path):
        plain = run_rack(small_system(), high_bimodal(), balancer="pow2", **SMALL)
        metered = run_rack(
            small_system(), high_bimodal(), balancer="pow2",
            metrics_path=str(tmp_path / "rack"), **SMALL,
        )
        assert plain.digest() == metered.digest()
        assert (tmp_path / "rack.prom").exists()

    def test_rack_gauges_exported(self, tmp_path):
        run_rack(
            small_system(), high_bimodal(), balancer="type-affinity",
            metrics_path=str(tmp_path / "rack"), **SMALL,
        )
        text = (tmp_path / "rack.prom").read_text()
        assert "repro_rack_replica_pending" in text
        assert "repro_rack_routed_total" in text


class TestValidation:
    def test_bad_params_raise(self):
        spec = high_bimodal()
        with pytest.raises(ConfigurationError):
            run_rack(small_system(), spec, n_servers=0)
        with pytest.raises(ConfigurationError):
            run_rack(small_system(), spec, utilization=0.0)
        with pytest.raises(ConfigurationError):
            run_rack(small_system(), spec, n_requests=0)

    def test_trace_and_phases_exclusive(self):
        spec = high_bimodal()
        with pytest.raises(ConfigurationError):
            run_rack(
                small_system(), spec, trace=object(),
                phases=[Phase(spec, 50.0, 0.5), Phase(spec, 50.0, 0.5)],
            )

    def test_darc_beats_cfcfs_with_affinity(self):
        # The headline composition: DARC inside, affinity outside.
        kwargs = dict(n_servers=4, utilization=0.8, n_requests=8000, seed=2)
        darc = run_rack(
            PersephoneSystem(n_workers=8, oracle=True), high_bimodal(),
            balancer="type-affinity", **kwargs,
        )
        shinjuku = run_rack(
            ShinjukuSystem(n_workers=8, quantum_us=5.0, mode="multi"),
            high_bimodal(), balancer="type-affinity", **kwargs,
        )
        assert (
            darc.summary.per_type[0].tail_latency
            < shinjuku.summary.per_type[0].tail_latency
        )


class _KeyLog:
    """Balancer stand-in that records each request's session key."""

    def __init__(self):
        self.keys = []

    def ingress(self, request):
        self.keys.append(request.session)


def _stamp(n_users, n, limit, seed=21):
    """Session keys a rack stamps on ``n`` requests, and its stream."""
    from repro.rack.rack import Rack
    from repro.sim.randomness import RngRegistry
    from repro.workload.request import Request

    log = _KeyLog()
    rng = RngRegistry(seed=seed).stream("rack.sessions")
    rack = Rack(None, [], None, log, session_rng=rng, n_users=n_users, limit=limit)
    for rid in range(n):
        rack.ingress(Request(rid, 0, 0.0, 1.0))
    return log.keys, rng


def _scalar_keys(n_users, n, seed=21):
    from repro.sim.randomness import RngRegistry

    rng = RngRegistry(seed=seed).stream("rack.sessions")
    return [int(rng.integers(0, n_users)) for _ in range(n)], rng


class TestSessionKeys:
    """Keys come from blocks of ``integers(0, n_users, size=...)``; they
    must equal one scalar draw per request, and a run to its limit must
    leave the stream where the scalar draws leave it."""

    @pytest.mark.parametrize("n_users", [1, 7, 1_000_000, 2**32, 2**33, 2**63 - 1])
    @pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 9000])
    def test_limited_run_matches_scalar_draws_and_state(self, n_users, n):
        keys, rng = _stamp(n_users, n, limit=n)
        want, scalar = _scalar_keys(n_users, n)
        assert keys == want
        assert rng.bit_generator.state == scalar.bit_generator.state

    def test_unlimited_run_matches_scalar_draws(self):
        keys, _ = _stamp(1_000_000, 9000, limit=None)
        assert keys == _scalar_keys(1_000_000, 9000)[0]

    def test_arrivals_past_the_limit_keep_exact_keys(self):
        keys, _ = _stamp(1_000, 5000, limit=10)
        assert keys == _scalar_keys(1_000, 5000)[0]

    @pytest.mark.parametrize(
        "n_users", [2.5, 3.0, True, "7", 0, -1, 2**63, None]
    )
    def test_bad_n_users_is_refused_at_construction(self, n_users):
        with pytest.raises(ConfigurationError):
            run_rack(small_system(), high_bimodal(), balancer="session",
                     n_users=n_users, **SMALL)

    def test_largest_n_users_runs(self):
        result = run_rack(small_system(), high_bimodal(), balancer="session",
                          n_users=2**63 - 1, **SMALL)
        assert result.recorder.completed + result.recorder.dropped == 2000
