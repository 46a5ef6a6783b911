"""A serial ``--seeds`` run and a pooled sweep of one grid state the same
capacities and findings.

Both read the figure's one findings function, over the same cells.  The
pooled names carry the section (``[<workload>]``) where the serial driver
prints one table per workload, and list capacities apart from findings.
"""

import math

import pytest

from repro.experiments import figure3, figure5
from repro.experiments.common import overall_slowdown_metric, typed_latency_metric
from repro.sweep.executor import execute_cells
from repro.sweep.merge import merge_results
from repro.sweep.planner import plan_experiment

SEEDS = (1, 2)
N_REQUESTS = 600
LOADS = (0.5, 0.85)


def pooled(name):
    plan = plan_experiment(
        name, seeds=SEEDS, n_requests=N_REQUESTS, utilizations=LOADS
    )
    return merge_results(name, [o.result for o in execute_cells(plan.cells)])


def assert_same(actual, expected):
    assert sorted(actual) == sorted(expected)
    for key, value in expected.items():
        got = actual[key]
        if isinstance(value, float) and math.isnan(value):
            assert isinstance(got, float) and math.isnan(got), key
        else:
            assert got == value, key


def serial_view(results, slo, metric):
    """Serial ``{workload: FigureResult}`` in the pooled naming."""
    capacities, findings = {}, {}
    for workload, result in results.items():
        for system, cap in result.capacities(slo[workload], metric).items():
            capacities[f"capacity@{slo[workload]:g} [{workload}/{system}]"] = cap
        for key, value in result.findings.items():
            if not key.startswith("capacity@"):
                findings[f"{key} [{workload}]" if len(results) > 1 else key] = value
    return capacities, findings


@pytest.mark.parametrize("name", ["figure3", "figure5"])
def test_pooled_capacities_and_findings_equal_serial(name):
    if name == "figure3":
        serial = {
            "high_bimodal": figure3.run(
                utilizations=LOADS, n_requests=N_REQUESTS, seeds=SEEDS
            )
        }
        slo = {"high_bimodal": figure3.SHORT_LATENCY_SLO_US}
        metric = typed_latency_metric(figure3.SHORT_TYPE)
    else:
        serial = figure5.run(utilizations=LOADS, n_requests=N_REQUESTS, seeds=SEEDS)
        slo = {"high_bimodal": figure5.SLO_HIGH, "extreme_bimodal": figure5.SLO_EXTREME}
        metric = overall_slowdown_metric
    capacities, findings = serial_view(serial, slo, metric)
    assert findings
    merged = pooled(name)
    assert_same(merged.capacities, capacities)
    assert_same(merged.findings, findings)
