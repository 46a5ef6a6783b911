"""The rack experiment through the sweep stack: plan, run, merge."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import rack
from repro.sweep.cells import Cell, CellResult, derive_seed
from repro.sweep.merge import merge_results
from repro.sweep.planner import experiment_spec, plan_experiment
from repro.sweep.runner import run_cell


def rack_cell(system="Persephone", balancer="pow2", rho=0.7, n_requests=800,
              replicate=1):
    return Cell.make(
        "rack",
        {
            "system": system,
            "workload": "high_bimodal",
            "balancer": balancer,
            "rho": rho,
            "n_requests": n_requests,
            "n_servers": rack.N_SERVERS,
        },
        replicate,
    )


class TestPlanner:
    def test_grid_covers_balancers_systems_loads(self):
        plan = plan_experiment("rack", seeds=(1,), n_requests=500)
        assert len(plan.cells) == (
            len(rack.DEFAULT_BALANCERS) * 3 * len(rack.DEFAULT_UTILIZATIONS)
        )
        balancers = {c.params_dict["balancer"] for c in plan.cells}
        assert balancers == set(rack.DEFAULT_BALANCERS)
        systems = {c.params_dict["system"] for c in plan.cells}
        assert systems == {"Shenango", "Shinjuku", "Persephone"}
        assert all(
            c.params_dict["n_servers"] == rack.N_SERVERS for c in plan.cells
        )

    def test_systems_and_balancers_share_seeds_at_one_point(self):
        # Common random numbers: paired comparisons across both the
        # system AND the balancer axis (PAIRED_KEYS).
        a = rack_cell(system="Persephone", balancer="pow2")
        b = rack_cell(system="Shenango", balancer="sed")
        assert a.seed == b.seed
        # Different load points stay independent.
        assert a.seed != rack_cell(rho=0.85).seed

    def test_pre_rack_experiments_unaffected_by_paired_balancer_key(self):
        # Excluding "balancer" from seed params must not move any seed
        # for experiments that never carried that key.
        params = {"system": "Persephone", "workload": "high_bimodal",
                  "rho": 0.5, "n_requests": 300}
        seed = derive_seed("figure5", params, 1)
        assert seed == Cell.make("figure5", params, 1).seed


class TestRunner:
    @pytest.fixture(scope="class")
    def cell_result(self):
        cell = rack_cell(n_requests=600)
        return run_cell(cell)

    def test_rack_cell_runs_and_reports_metrics(self, cell_result):
        metrics = cell_result.metrics_dict
        assert metrics["completed"] > 0
        assert "overall_tail_slowdown" in metrics
        assert "load_imbalance" in metrics
        assert "spills" in metrics
        assert "stale_reads" in metrics
        assert cell_result.digest
        assert cell_result.sim_time_us > 0

    def test_rack_cell_is_deterministic(self, cell_result):
        again = run_cell(rack_cell(n_requests=600))
        assert again.digest == cell_result.digest
        assert again.metrics_dict == cell_result.metrics_dict

    def test_unknown_system_raises(self):
        cell = rack_cell(system="NoSuchSystem", n_requests=100)
        with pytest.raises(ConfigurationError):
            run_cell(cell)


class TestMerge:
    def _fake_result(self, system, balancer, rho, slowdown, replicate=1):
        cell = rack_cell(system=system, balancer=balancer, rho=rho,
                         replicate=replicate)
        return CellResult.build(
            cell,
            {"overall_tail_slowdown": slowdown, "throughput": 1.0,
             "overall_tail_latency": 100.0, "load_imbalance": 0.1},
            digest=f"d-{system}-{balancer}-{rho}-{replicate}",
            sim_time_us=1000.0,
        )

    def test_rack_findings_per_balancer(self):
        results = []
        for balancer, darc, shenango in (("pow2", 10.0, 30.0), ("sed", 5.0, 40.0)):
            results.append(self._fake_result("Persephone", balancer, 0.7, darc))
            results.append(self._fake_result("Shenango", balancer, 0.7, shenango))
        merged = merge_results("rack", results)
        assert merged.findings["DARC vs Shenango p99.9 slowdown @0.7 [pow2]"] == 3.0
        assert merged.findings["DARC vs Shenango p99.9 slowdown @0.7 [sed]"] == 8.0

    def test_findings_use_highest_load_only(self):
        results = [
            self._fake_result("Persephone", "pow2", 0.5, 2.0),
            self._fake_result("Shenango", "pow2", 0.5, 100.0),
            self._fake_result("Persephone", "pow2", 0.85, 10.0),
            self._fake_result("Shenango", "pow2", 0.85, 20.0),
        ]
        merged = merge_results("rack", results)
        assert merged.findings == {
            "DARC vs Shenango p99.9 slowdown @0.85 [pow2]": 2.0
        }

    def test_render_generic_table_lists_balancer_cells(self):
        results = [
            self._fake_result("Persephone", "pow2", 0.7, 10.0),
            self._fake_result("Shenango", "pow2", 0.7, 30.0),
        ]
        merged = merge_results("rack", results)
        text = merged.render()
        assert "balancer=pow2" in text
        assert "overall_tail_slowdown" in text
        assert "findings" in text

    def test_no_persephone_no_findings(self):
        results = [self._fake_result("Shenango", "pow2", 0.7, 30.0)]
        merged = merge_results("rack", results)
        assert merged.findings == {}
        assert merged.capacities == {}


class TestSpecRegistry:
    def test_rack_spec_table_metrics(self):
        spec = experiment_spec("rack")
        assert "overall_tail_slowdown" in spec.table_metrics
        assert "load_imbalance" in spec.table_metrics
        assert spec.workloads == (rack.WORKLOAD,)
