"""Tests for seed replication with confidence intervals.

Replication has one path: the planner derives a seed per (load point,
replicate) cell, a serial driver runs those cells in-process (a pooled
sweep runs the same ones), and :func:`~repro.sweep.stats.mean_ci` puts a
Student-t interval on a metric across the replicates.
"""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import figure3
from repro.experiments.common import overall_slowdown_metric
from repro.experiments.results import load_name_parts, run_serial
from repro.sweep.stats import mean_ci
from repro.systems.persephone import PersephoneCfcfsSystem, PersephoneSystem


def replicate(system, seeds, utilization=0.6, n_requests=3000):
    """``{seed: metric}`` for one replicated load point."""
    spec = figure3.SPEC._replace(
        name="replication", systems_for=lambda workload: [system]
    )
    runs = run_serial(
        spec, 1, seeds, load_name_parts, n_requests, [utilization]
    )
    return {
        cell.replicate: overall_slowdown_metric(result)
        for cell, result, _ in runs
    }


@pytest.fixture(scope="module")
def cfcfs_replication():
    return replicate(PersephoneCfcfsSystem(n_workers=4), seeds=(1, 2, 3, 4))


class TestReplicate:
    def test_runs_requested_seeds(self, cfcfs_replication):
        assert list(cfcfs_replication) == [1, 2, 3, 4]

    def test_seeds_differ(self, cfcfs_replication):
        assert len(set(cfcfs_replication.values())) > 1

    def test_invalid_seeds(self):
        with pytest.raises(ConfigurationError):
            replicate(PersephoneCfcfsSystem(n_workers=4), seeds=())


class TestReplication:
    def test_mean_within_value_range(self, cfcfs_replication):
        values = list(cfcfs_replication.values())
        assert min(values) <= mean_ci(values).mean <= max(values)

    def test_ci_contains_mean(self, cfcfs_replication):
        stat = mean_ci(list(cfcfs_replication.values()))
        assert stat.n == 4
        assert stat.low <= stat.mean <= stat.high
        assert stat.high > stat.low

    def test_single_replication_ci_degenerate(self):
        (value,) = replicate(
            PersephoneCfcfsSystem(n_workers=4), seeds=(1,), utilization=0.5,
            n_requests=1000,
        ).values()
        stat = mean_ci([value])
        assert stat.low == stat.high == stat.mean == value

    def test_describe(self, cfcfs_replication):
        stat = mean_ci(list(cfcfs_replication.values()))
        assert stat.format(2) == f"{stat.mean:.2f}±{stat.half_width:.2f}"

    def test_empty_rejected(self):
        stat = mean_ci([])
        assert stat.n == 0
        assert stat.format() == "-"

    def test_darc_ci_below_cfcfs_ci(self, cfcfs_replication):
        darc = replicate(PersephoneSystem(n_workers=4, oracle=True), seeds=(1, 2, 3, 4))
        darc_high = mean_ci(list(darc.values())).high
        cfcfs_low = mean_ci(list(cfcfs_replication.values())).low
        # The improvement is larger than the seed noise.
        assert darc_high < cfcfs_low
