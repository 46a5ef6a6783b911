"""Pinned capacities and findings of small Figure 5 runs.

Capacity at an SLO is the paper's headline number, so these pins hold
the whole path fixed: simulation, replicate means and the capacity rule,
for single-seed and replicated runs alike.  The bounded c-FCFS system
drops requests at every load point; its lowest point meets the SLO on
the metric alone, so its capacity is ``None`` only because a dropped
request disqualifies the point.
"""

import math

import pytest

from repro.experiments import figure5
from repro.policies.fcfs import CentralizedFCFS
from repro.systems.base import SystemModel
from repro.systems.persephone import PersephoneSystem

N_REQUESTS = 1500
NAN = float("nan")


def slowdown(result):
    return result.summary.overall_tail_slowdown


class BoundedCfcfs(SystemModel):
    """c-FCFS with a two-slot queue: drops at every pinned load point."""

    name = "Bounded c-FCFS"

    def make_scheduler(self, spec, rngs):
        return CentralizedFCFS(queue_capacity=2)


def assert_same(actual, expected):
    assert list(actual) == list(expected)
    for key, value in expected.items():
        got = actual[key]
        if isinstance(value, float) and math.isnan(value):
            assert isinstance(got, float) and math.isnan(got), key
        else:
            assert got == value, key


FIGURE5_PINS = {
    None: {
        "high_bimodal": (
            {"Shenango": None, "Shinjuku": 0.85, "Persephone": 0.5},
            {
                "capacity@20x [Shenango]": NAN,
                "capacity@20x [Shinjuku]": 0.85,
                "capacity@20x [Persephone]": 0.5,
                "DARC vs Shinjuku capacity": 0.5882352941176471,
            },
        ),
        "extreme_bimodal": (
            {"Shenango": 0.85, "Shinjuku": 0.85, "Persephone": 0.85},
            {
                "capacity@50x [Shenango]": 0.85,
                "capacity@50x [Shinjuku]": 0.85,
                "capacity@50x [Persephone]": 0.85,
                "DARC vs Shenango capacity": 1.0,
                "DARC vs Shinjuku capacity": 1.0,
            },
        ),
    },
    (1, 2, 3): {
        "high_bimodal": (
            {"Shenango": 0.5, "Shinjuku": 0.85, "Persephone": 0.5},
            {
                "capacity@20x [Shenango]": 0.5,
                "capacity@20x [Shinjuku]": 0.85,
                "capacity@20x [Persephone]": 0.5,
                "DARC vs Shenango capacity": 1.0,
                "DARC vs Shinjuku capacity": 0.5882352941176471,
            },
        ),
        "extreme_bimodal": (
            {"Shenango": 0.85, "Shinjuku": 0.85, "Persephone": 0.85},
            {
                "capacity@50x [Shenango]": 0.85,
                "capacity@50x [Shinjuku]": 0.85,
                "capacity@50x [Persephone]": 0.85,
                "DARC vs Shenango capacity": 1.0,
                "DARC vs Shinjuku capacity": 1.0,
            },
        ),
    },
}

SLO = {"high_bimodal": figure5.SLO_HIGH, "extreme_bimodal": figure5.SLO_EXTREME}


@pytest.mark.parametrize("seeds", [None, (1, 2, 3)], ids=["one-seed", "three-seeds"])
def test_figure5_capacities_and_findings(seeds):
    results = figure5.run(
        utilizations=(0.5, 0.85), n_requests=N_REQUESTS, seeds=seeds
    )
    assert list(results) == ["high_bimodal", "extreme_bimodal"]
    for workload, result in results.items():
        capacities, findings = FIGURE5_PINS[seeds][workload]
        assert_same(result.capacities(SLO[workload], slowdown), capacities)
        assert_same(result.findings, findings)


#: seeds -> (Bounded c-FCFS slowdown series, its per-replicate drop rates).
DROP_PINS = {
    None: (
        [7.537627251970698, 25.869463661747908],
        [[0.0006666666666666666, 0.030666666666666665]],
    ),
    (1, 2, 3): (
        [9.492507379762456, 21.401067803184546],
        [
            [0.0033333333333333335, 0.03333333333333333],
            [0.0033333333333333335, 0.026],
            [0.002, 0.02666666666666667],
        ],
    ),
}


@pytest.mark.parametrize("seeds", [None, (1, 2, 3)], ids=["one-seed", "three-seeds"])
def test_dropped_point_is_disqualified(seeds):
    result = figure5.run_one_workload(
        "high_bimodal",
        (0.5, 0.7),
        n_requests=N_REQUESTS,
        seeds=seeds,
        systems=[PersephoneSystem(n_workers=14), BoundedCfcfs(n_workers=14)],
    )
    series, drops = DROP_PINS[seeds]
    bounded = result.replicates.get("Bounded c-FCFS") or {
        0: result.sweeps["Bounded c-FCFS"]
    }
    assert result.series(slowdown)["Bounded c-FCFS"] == series
    assert [[r.summary.drop_rate for r in sweep] for sweep in bounded.values()] == drops
    # The 0.5 point meets the SLO on its metric; only its drops rule it out.
    assert series[0] <= figure5.SLO_HIGH
    assert_same(
        result.capacities(figure5.SLO_HIGH, slowdown),
        {"Persephone (DARC)": 0.5, "Bounded c-FCFS": None},
    )
    assert_same(
        result.findings,
        {
            "capacity@20x [Persephone (DARC)]": 0.5,
            "capacity@20x [Bounded c-FCFS]": NAN,
        },
    )
