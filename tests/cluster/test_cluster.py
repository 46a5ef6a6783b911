"""Replicated servers behind an oracle-view balancer (``run_rack`` with
``staleness_us=0``), the setting the former cluster runner modelled."""

import pytest

from repro.errors import ConfigurationError
from repro.rack.rack import run_rack
from repro.systems.persephone import PersephoneCfcfsSystem, PersephoneSystem
from repro.workload.presets import high_bimodal


def run_oracle(system, balancer="jsq-stale", **kwargs):
    return run_rack(system, high_bimodal(), balancer=balancer, staleness_us=0.0, **kwargs)


class TestRunCluster:
    def test_all_requests_complete(self):
        result = run_oracle(
            PersephoneCfcfsSystem(n_workers=4),
            n_servers=3,
            utilization=0.5,
            n_requests=3000,
            seed=2,
        )
        assert result.summary.completed == 2700  # after 10% warm-up
        assert result.n_servers == 3

    def test_replicas_share_load(self):
        result = run_oracle(
            PersephoneCfcfsSystem(n_workers=4),
            n_servers=4,
            utilization=0.5,
            n_requests=4000,
            seed=2,
        )
        assert result.load_imbalance() < 0.3

    def test_jsq_beats_random_at_tail(self):
        kwargs = dict(n_servers=4, utilization=0.7, n_requests=12_000, seed=2)
        jsq = run_oracle(PersephoneCfcfsSystem(n_workers=4), **kwargs)
        rnd = run_oracle(PersephoneCfcfsSystem(n_workers=4), balancer="random", **kwargs)
        assert (
            jsq.summary.overall_tail_slowdown <= rnd.summary.overall_tail_slowdown
        )

    def test_darc_backends_protect_shorts_cluster_wide(self):
        kwargs = dict(n_servers=3, utilization=0.8, n_requests=12_000, seed=2)
        darc = run_oracle(PersephoneSystem(n_workers=14, oracle=True), **kwargs)
        cfcfs = run_oracle(PersephoneCfcfsSystem(n_workers=14), **kwargs)
        assert (
            darc.summary.per_type[0].tail_latency
            < cfcfs.summary.per_type[0].tail_latency / 3
        )

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            run_oracle(PersephoneCfcfsSystem(n_workers=2), n_servers=0)
        with pytest.raises(ConfigurationError):
            run_oracle(PersephoneCfcfsSystem(n_workers=2), utilization=0.0)

    def test_per_replica_rngs_differ(self):
        # Replica schedulers fork the registry: d-FCFS-style randomness
        # must differ between replicas (no lockstep).
        from repro.systems.persephone import PersephoneDfcfsSystem

        result = run_oracle(
            PersephoneDfcfsSystem(n_workers=4),
            n_servers=2,
            utilization=0.5,
            n_requests=2000,
            seed=2,
        )
        s0, s1 = result.servers
        streams = [s.scheduler.rng.random() for s in (s0, s1)]
        assert streams[0] != streams[1]
