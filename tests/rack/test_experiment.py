"""The rack figure driver and its CLI/sweep registration."""

from repro.experiments.common import overall_slowdown_metric
from repro.cli import EXPERIMENTS
from repro.experiments import rack
from repro.experiments.results import FigureResult

TINY = dict(
    n_requests=1500,
    seed=2,
    n_servers=4,
    balancers=("pow2", "type-affinity"),
    utilizations=(0.7,),
)


class TestRunGrid:
    def test_one_figure_result_per_balancer(self):
        results = rack.run(**TINY)
        assert set(results) == {"pow2", "type-affinity"}
        for result in results.values():
            assert isinstance(result, FigureResult)
            series = result.series(overall_slowdown_metric)
            assert set(series) == {"Shenango", "Shinjuku", "Persephone"}
            for values in series.values():
                assert len(values) == 1
                assert values[0] > 0

    def test_findings_compare_darc_to_baselines(self):
        results = rack.run(**TINY)
        for result in results.values():
            keys = list(result.findings)
            assert any("DARC vs Shenango" in k for k in keys)
            assert any("DARC vs Shinjuku" in k for k in keys)

    def test_render_mentions_every_balancer(self):
        results = rack.run(**TINY)
        text = rack.render(results)
        assert "Rack [pow2]" in text
        assert "Rack [type-affinity]" in text
        assert "DARC advantage by balancer" in text

    def test_replicated_seeds_produce_ci_cells(self):
        results = rack.run(
            n_requests=800, seed=1, seeds=(1, 2), n_servers=4,
            balancers=("pow2",), utilizations=(0.7,),
        )
        result = results["pow2"]
        stats = result.series_ci(overall_slowdown_metric)
        for values in stats.values():
            assert values[0].n == 2


class TestRegistration:
    def test_cli_knows_rack(self):
        assert "rack" in EXPERIMENTS

    def test_sweep_planner_knows_rack(self):
        from repro.sweep.planner import experiment_spec

        spec = experiment_spec("rack")
        assert spec.kind == "rack"
        assert spec.capacity_metric == "overall_tail_slowdown"
