"""Figure 5 reproduction: the three systems on both bimodal workloads.

Paper: (a) High Bimodal at a 20x slowdown target — DARC sustains 2.35x /
1.3x more load than Shenango / Shinjuku; Shinjuku caps near 75%.
(b) Extreme Bimodal at a 50x target — DARC and Shinjuku sustain ~1.4x
more than Shenango; DARC edges Shinjuku (1.25x load, up to 1.4x better
short slowdown); Shinjuku caps near 55%.
"""

from repro.experiments import figure5


def test_figure5(bench_n_requests):
    results = figure5.run(n_requests=bench_n_requests, seed=1)
    print()
    print(figure5.render(results))

    high = results["high_bimodal"].findings
    extreme = results["extreme_bimodal"].findings

    # High Bimodal: DARC clearly ahead of Shenango (paper 2.35x) and at
    # least matching Shinjuku (paper 1.3x).
    assert high["DARC vs Shenango capacity"] > 1.2
    assert high["DARC vs Shinjuku capacity"] >= 1.0

    # Extreme Bimodal: DARC ahead of Shenango (paper 1.4x) and at least
    # matching Shinjuku (paper 1.25x).
    assert extreme["DARC vs Shenango capacity"] > 1.1
    assert extreme["DARC vs Shinjuku capacity"] >= 1.0
