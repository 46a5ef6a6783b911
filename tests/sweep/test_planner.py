"""Planner: grid expansion, the spec registry, plan serialization."""

import pytest

from repro.errors import ConfigurationError
from repro.sweep.cells import Cell
from repro.sweep.planner import (
    SELFTEST,
    SweepPlan,
    experiment_spec,
    plan_experiment,
    plan_selftest,
    supported_experiments,
)


class TestRegistry:
    def test_public_experiments(self):
        names = supported_experiments()
        for expected in (
            "figure1", "figure3", "figure4", "figure5", "figure6",
            "figure7", "figure8", "figure9", "figure10", "chaos",
        ):
            assert expected in names
        assert SELFTEST not in names

    def test_unknown_experiment(self):
        with pytest.raises(ConfigurationError, match="unknown sweep experiment"):
            experiment_spec("figure99")

    def test_spec_matches_serial_driver_grid(self):
        # One description per experiment: the registry holds each figure
        # module's own spec, which its serial driver also runs.
        import importlib

        for name in supported_experiments():
            module = importlib.import_module(f"repro.experiments.{name}")
            assert experiment_spec(name) is module.SPEC

    def test_cli_choices_are_the_registry(self):
        from repro.cli import build_parser

        (action,) = [
            a for a in build_parser()._actions if a.dest == "experiment"
        ]
        assert sorted(action.choices) == sorted(
            supported_experiments() + ["tables", "all"]
        )


class TestPlanExperiment:
    def test_figure5_expansion(self):
        plan = plan_experiment(
            "figure5", seeds=(1, 2), n_requests=2000, utilizations=(0.5, 0.85)
        )
        spec = experiment_spec("figure5")
        n_systems = {
            w: len(spec.systems_for(w)) for w in spec.workloads
        }
        expected = sum(2 * 2 * n for n in n_systems.values())
        assert len(plan.cells) == expected
        assert plan.seeds == (1, 2)
        assert plan.n_requests == 2000
        # Every cell carries the full binding.
        for cell in plan.cells:
            p = cell.params_dict
            assert set(p) == {"system", "workload", "rho", "n_requests"}
            assert p["n_requests"] == 2000
            assert p["rho"] in (0.5, 0.85)
        # Unique cells, deterministic order: workload-major, then rho.
        assert len(set(plan.cells)) == len(plan.cells)
        workloads = [c.params_dict["workload"] for c in plan.cells]
        assert workloads == sorted(workloads, key=spec.workloads.index)

    def test_same_args_same_plan(self):
        a = plan_experiment("figure5", seeds=(1, 2), n_requests=2000)
        b = plan_experiment("figure5", seeds=(1, 2), n_requests=2000)
        assert a == b

    def test_figure4_reserved_choices(self):
        from repro.experiments import figure4

        plan = plan_experiment("figure4", seeds=(1,), n_requests=2000)
        choices = {c.params_dict["system"] for c in plan.cells}
        assert "c-FCFS" in choices
        for k in figure4.DEFAULT_RESERVED:
            if k < figure4.N_WORKERS:
                assert f"reserved{k}" in choices

    def test_figure7_phased_params(self):
        plan = plan_experiment("figure7", seeds=(1, 2))
        names = {c.params_dict["system"] for c in plan.cells}
        assert names == {"c-FCFS", "DARC"}
        for cell in plan.cells:
            assert set(cell.params_dict) == {"system", "workload"}
            assert cell.params_dict["workload"] == "phased"

    def test_chaos_grid(self):
        from repro.experiments import chaos

        plan = plan_experiment("chaos", seeds=(1,), n_requests=3000)
        assert len(plan.cells) == len(chaos.default_systems())
        for cell in plan.cells:
            assert cell.params_dict["rho"] == chaos.UTILIZATION

    def test_no_seeds_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one seed"):
            plan_experiment("figure5", seeds=())

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            plan_experiment("figure5", seeds=(1, 1))

    def test_plan_doc_round_trip(self):
        plan = plan_experiment(
            "figure5", seeds=(1, 2), n_requests=2000, utilizations=(0.5,)
        )
        restored = SweepPlan.from_doc(plan.to_doc())
        assert restored == plan

    def test_from_doc_rejects_wrong_kind(self):
        doc = plan_experiment("figure3", seeds=(1,)).to_doc()
        doc["kind"] = "nonsense"
        with pytest.raises(ConfigurationError, match="not a sweep plan"):
            SweepPlan.from_doc(doc)


class TestPlanSelftest:
    def test_expansion(self):
        plan = plan_selftest(3, seeds=(1, 2), mode="ok")
        assert plan.experiment == SELFTEST
        assert len(plan.cells) == 6
        assert all(isinstance(c, Cell) for c in plan.cells)
        indices = {c.params_dict["index"] for c in plan.cells}
        assert indices == {0, 1, 2}

    def test_selftest_cells_have_distinct_seeds(self):
        plan = plan_selftest(4, seeds=(1,), mode="ok")
        seeds = [c.seed for c in plan.cells]
        assert len(set(seeds)) == len(seeds)
