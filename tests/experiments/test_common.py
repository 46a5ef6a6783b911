"""Tests for the experiment harness (small runs)."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import figure5
from repro.experiments.common import run_once, run_sweep
from repro.sweep.planner import plan_experiment
from repro.systems.persephone import PersephoneCfcfsSystem, PersephoneSystem
from repro.workload.presets import high_bimodal


class TestRunOnce:
    def test_completes_all_requests(self):
        result = run_once(
            PersephoneCfcfsSystem(n_workers=4),
            high_bimodal(),
            utilization=0.5,
            n_requests=500,
            seed=2,
        )
        assert result.summary.completed == 450  # 10% warm-up discarded
        assert result.summary.dropped == 0

    def test_offered_rate_matches_utilization(self):
        spec = high_bimodal()
        result = run_once(
            PersephoneCfcfsSystem(n_workers=4), spec, 0.5, n_requests=100, seed=2
        )
        assert result.offered_rate == pytest.approx(0.5 * spec.peak_load(4))

    def test_same_seed_is_deterministic(self):
        def run():
            return run_once(
                PersephoneSystem(n_workers=4, oracle=True),
                high_bimodal(),
                0.6,
                n_requests=400,
                seed=7,
            ).summary.overall_tail_slowdown

        assert run() == run()

    def test_different_seeds_differ(self):
        def run(seed):
            return run_once(
                PersephoneCfcfsSystem(n_workers=4),
                high_bimodal(),
                0.6,
                n_requests=400,
                seed=seed,
            ).summary.overall_tail_latency

        assert run(1) != run(2)

    def test_invalid_args(self):
        with pytest.raises(ConfigurationError):
            run_once(PersephoneCfcfsSystem(), high_bimodal(), 0.0, n_requests=10)
        with pytest.raises(ConfigurationError):
            run_once(PersephoneCfcfsSystem(), high_bimodal(), 0.5, n_requests=0)

    def test_utilization_report_attached(self):
        result = run_once(
            PersephoneCfcfsSystem(n_workers=4), high_bimodal(), 0.5,
            n_requests=300, seed=2,
        )
        assert 0.0 < result.util_report.mean_utilization <= 1.0

    def test_max_sim_time_caps_run(self):
        result = run_once(
            PersephoneCfcfsSystem(n_workers=1),
            high_bimodal(),
            utilization=1.4,  # overloaded on purpose
            n_requests=2000,
            seed=2,
            max_sim_time_us=1000.0,
        )
        assert result.summary.completed < 2000


class TestRunSweep:
    def test_one_result_per_point(self):
        results = run_sweep(
            PersephoneCfcfsSystem(n_workers=4),
            high_bimodal(),
            [0.3, 0.6],
            n_requests=200,
            seed=2,
        )
        assert [r.utilization for r in results] == [0.3, 0.6]

    def test_slowdown_monotone_in_load(self):
        # Statistically, higher load should not *improve* the tail.
        results = run_sweep(
            PersephoneCfcfsSystem(n_workers=4),
            high_bimodal(),
            [0.2, 0.9],
            n_requests=3000,
            seed=2,
        )
        low, high = (r.summary.overall_tail_slowdown for r in results)
        assert high >= low


class TestRunSweepSeeds:
    """A replicated sweep runs the planned cells of its figure."""

    def _sweep(self, seeds):
        result = figure5.run_one_workload(
            "high_bimodal",
            [0.3, 0.6],
            n_requests=200,
            systems=[PersephoneCfcfsSystem(n_workers=4)],
            seeds=seeds,
        )
        return result.replicates["Persephone (c-FCFS)"]

    def test_replicates_actually_differ(self):
        replicates = self._sweep(seeds=(1, 2))
        a, b = replicates[1][0], replicates[2][0]
        assert a.summary.overall_tail_latency != b.summary.overall_tail_latency

    def test_empty_or_duplicate_seeds_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one seed"):
            self._sweep(seeds=())
        with pytest.raises(ConfigurationError, match="duplicate"):
            self._sweep(seeds=(3, 3))


class TestRunReplicatedSweep:
    def test_runs_under_derived_cell_seeds(self):
        spec = high_bimodal()
        result = figure5.run_one_workload(
            "high_bimodal",
            [0.5],
            n_requests=300,
            systems=[PersephoneCfcfsSystem(n_workers=4)],
            seeds=(1, 2),
        )
        replicates = result.replicates["Persephone (c-FCFS)"]
        assert sorted(replicates) == [1, 2]
        assert all(len(sweep) == 1 for sweep in replicates.values())
        # Each replicate must have run under the derived cell seed — the
        # same one a pooled repro-sweep cell of this grid point gets.
        plan = plan_experiment(
            "figure5", seeds=(1, 2), n_requests=300, utilizations=(0.5,)
        )
        for replicate, (result,) in replicates.items():
            (cell,) = [
                c for c in plan.cells
                if c.replicate == replicate
                and c.params_dict["workload"] == "high_bimodal"
                and c.params_dict["system"] == "Persephone"
            ]
            direct = run_once(
                PersephoneCfcfsSystem(n_workers=4),
                spec,
                0.5,
                n_requests=300,
                seed=cell.seed,
            )
            assert (
                result.summary.overall_tail_latency
                == direct.summary.overall_tail_latency
            )
