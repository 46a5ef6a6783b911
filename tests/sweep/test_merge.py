"""Merge layer: grouping, per-metric CIs, capacities and findings."""

import pytest

from repro.sweep.cells import Cell, CellResult
from repro.sweep.executor import execute_cells
from repro.sweep.merge import merge_results
from repro.sweep.planner import SELFTEST, experiment_spec, plan_selftest

WORKLOAD = "high_bimodal"
RHOS = (0.5, 0.85)


def _result(system, rho, replicate, slowdown, drop_rate=0.0):
    cell = Cell.make(
        "figure5",
        {"system": system, "workload": WORKLOAD, "rho": rho, "n_requests": 1000},
        replicate,
    )
    return CellResult.build(
        cell,
        {
            "overall_tail_slowdown": slowdown,
            "overall_tail_latency": slowdown * 20.0,
            "throughput": 1.0,
            "drop_rate": drop_rate,
        },
        digest=f"{system}-{rho}-{replicate}",
        sim_time_us=1e6,
    )


def _grid(slowdowns, drop_rate=0.0, seeds=(1, 2, 3)):
    """slowdowns: {(system, rho): mean slowdown}; replicates jittered."""
    results = []
    for (system, rho), value in slowdowns.items():
        for index, replicate in enumerate(seeds):
            jitter = 0.1 * (index - 1)
            results.append(
                _result(system, rho, replicate, value + jitter, drop_rate)
            )
    return results


class TestGrouping:
    def test_replicates_collapse_to_groups(self):
        slo = experiment_spec("figure5").slo[WORKLOAD]
        results = _grid({("Persephone", 0.5): slo / 2, ("Persephone", 0.85): slo / 2})
        merged = merge_results("figure5", results)
        assert merged.n_cells == 6
        assert len(merged.groups) == 2
        group = merged.groups[0]
        assert group.n_replicates == 3
        assert [r for r, _ in group.digests] == [1, 2, 3]

    def test_metric_cis(self):
        results = _grid({("Persephone", 0.5): 2.0})
        merged = merge_results("figure5", results, confidence=0.95)
        stat = merged.groups[0].metric("overall_tail_slowdown")
        assert stat.n == 3
        assert stat.mean == pytest.approx(2.0)
        assert stat.half_width > 0
        assert merged.groups[0].metric("no_such_metric").n == 0

    def test_missing_metric_in_one_replicate_drops_to_nan(self):
        results = _grid({("Persephone", 0.5): 2.0})
        # Strip one replicate's metric: n stays honest at 2.
        short = results[0]._replace(
            metrics=tuple(
                (k, v) for k, v in results[0].metrics if k != "throughput"
            )
        )
        merged = merge_results("figure5", [short] + results[1:])
        assert merged.groups[0].metric("throughput").n == 2


class TestCapacitiesAndFindings:
    def test_capacity_is_best_passing_load(self):
        slo = experiment_spec("figure5").slo[WORKLOAD]
        merged = merge_results(
            "figure5",
            _grid({
                ("Persephone", 0.5): slo / 2,
                ("Persephone", 0.85): slo / 2,
                ("Shenango", 0.5): slo / 2,
                ("Shenango", 0.85): slo * 10,
            }),
        )
        caps = merged.capacities
        assert caps[f"capacity@{slo:g} [{WORKLOAD}/Persephone]"] == 0.85
        assert caps[f"capacity@{slo:g} [{WORKLOAD}/Shenango]"] == 0.5
        ratio = merged.findings[f"DARC vs Shenango capacity [{WORKLOAD}]"]
        assert ratio == pytest.approx(0.85 / 0.5)

    def test_drops_disqualify_a_point(self):
        slo = experiment_spec("figure5").slo[WORKLOAD]
        merged = merge_results(
            "figure5",
            _grid({("Persephone", 0.5): slo / 2}, drop_rate=0.01),
        )
        assert merged.capacities[
            f"capacity@{slo:g} [{WORKLOAD}/Persephone]"
        ] is None

    def test_no_slo_no_capacities(self):
        merged = merge_results("figure9", _grid({("Persephone", 0.5): 2.0}))
        assert merged.capacities == {}
        assert merged.findings == {}


class TestRenderAndDoc:
    def test_load_table_mentions_ci(self):
        slo = experiment_spec("figure5").slo[WORKLOAD]
        merged = merge_results(
            "figure5", _grid({("Persephone", 0.5): slo / 2})
        )
        text = merged.render()
        assert "figure5" in text
        assert "mean±95% CI over 3 seeds" in text
        assert "±" in text

    def test_doc_shape(self):
        merged = merge_results("figure5", _grid({("Persephone", 0.5): 2.0}))
        doc = merged.to_doc()
        assert doc["kind"] == "repro-sweep-merged"
        assert doc["n_cells"] == 3
        (group,) = doc["groups"]
        assert group["replicates"] == 3
        stat = group["metrics"]["overall_tail_slowdown"]
        assert set(stat) == {"n", "mean", "std", "half_width", "low", "high"}

    def test_selftest_end_to_end(self):
        plan = plan_selftest(2, seeds=(1, 2, 3), mode="ok")
        outcomes = execute_cells(plan.cells)
        merged = merge_results(SELFTEST, [o.result for o in outcomes])
        assert merged.n_cells == 6
        assert len(merged.groups) == 2
        text = merged.render()
        assert "replicated metrics" in text


class _Summary:
    def __init__(self, slowdown, drop_rate):
        self.overall_tail_slowdown = slowdown
        self.drop_rate = drop_rate


class _Run:
    def __init__(self, rho, slowdown, drop_rate):
        self.utilization = rho
        self.summary = _Summary(slowdown, drop_rate)


class TestOneCapacityRule:
    """A figure driver and ``repro-sweep merge`` judge capacity alike."""

    NAN = float("nan")
    RHOS = (0.2, 0.5, 0.8)
    #: system -> per-load ``[(slowdown, drop_rate) per seed]`` for seeds
    #: 1, 2, 3 (the SLO is figure5's 20x on high_bimodal).
    GRID = {
        # Passes everywhere; capacity is the top load.
        "A": [[(1.0, 0.0)] * 3, [(5.0, 0.0)] * 3, [(9.0, 0.0)] * 3],
        # One replicate drops at 0.5, and 0.8 misses the SLO on its mean.
        "B": [
            [(2.0, 0.0)] * 3,
            [(3.0, 0.0), (3.0, 0.01), (3.0, 0.0)],
            [(10.0, 0.0), (30.0, 0.0), (35.0, 0.0)],
        ],
        # NaN at 0.5; at 0.8 one NaN replicate leaves a passing mean.
        "C": [
            [(50.0, 0.0)] * 3,
            [(NAN, 0.0)] * 3,
            [(4.0, 0.0), (NAN, 0.0), (6.0, 0.0)],
        ],
        # Nothing passes.
        "D": [[(40.0, 0.0)] * 3, [(NAN, 0.0)] * 3, [(1.0, 0.5)] * 3],
    }

    def _figure_result(self, seeds):
        from repro.experiments.results import FigureResult

        result = FigureResult("F", self.RHOS)
        for system, points in self.GRID.items():
            sweeps = {
                seed: [
                    _Run(rho, *point[index])
                    for rho, point in zip(self.RHOS, points)
                ]
                for index, seed in enumerate(seeds)
            }
            if len(seeds) == 1:
                result.add_sweep(system, sweeps[seeds[0]])
            else:
                result.add_replicated(system, sweeps)
        return result

    def _cells(self, seeds):
        cells = []
        for system, points in self.GRID.items():
            for rho, point in zip(self.RHOS, points):
                for index, seed in enumerate(seeds):
                    slowdown, drop_rate = point[index]
                    cell = Cell.make(
                        "figure5",
                        {"system": system, "workload": WORKLOAD, "rho": rho},
                        seed,
                    )
                    cells.append(
                        CellResult.build(
                            cell,
                            {"overall_tail_slowdown": slowdown, "drop_rate": drop_rate},
                            digest="-",
                            sim_time_us=1.0,
                        )
                    )
        return cells

    @pytest.mark.parametrize("seeds", [(1,), (1, 2, 3)], ids=["one-seed", "three-seeds"])
    def test_figure_result_and_merge_agree(self, seeds):
        slo = experiment_spec("figure5").slo[WORKLOAD]
        figure = self._figure_result(seeds).capacities(
            slo, lambda run: run.summary.overall_tail_slowdown
        )
        merged = merge_results("figure5", self._cells(seeds)).capacities
        assert merged == {
            f"capacity@{slo:g} [{WORKLOAD}/{system}]": cap
            for system, cap in figure.items()
        }
        expected = {"A": 0.8, "B": 0.8, "C": 0.8, "D": None}
        if len(seeds) == 3:
            expected["B"] = 0.2
        assert figure == expected
