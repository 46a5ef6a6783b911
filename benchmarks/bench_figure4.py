"""Figure 4 reproduction: the DARC-static reserved-core sweep.

Paper (95% load): the best manual reservation is 1 core for High Bimodal
(4.4x improvement over c-FCFS) and 2 cores for Extreme Bimodal (1.5x) —
matching what Algorithm 2 picks automatically; over-reserving starves
long requests and under-reserving reverts to FP's HOL blocking.
"""

from repro.experiments import figure4


def test_figure4(bench_n_requests):
    result = figure4.run(n_requests=bench_n_requests, seed=1)
    print()
    print(result.render())

    best_high = result.best_reserved("high_bimodal")
    best_extreme = result.best_reserved("extreme_bimodal")

    # Paper: optimum at 1 (High) and 2 (Extreme).  The Extreme optimum is
    # horizon-dependent: reserving 3-4 cores leaves the long partition
    # marginally unstable (rho ~ 1.01), which takes *seconds* of simulated
    # time (~10^8 requests, the paper's 20s runs) to visibly diverge; at
    # simulation-scale horizons the measured optimum lands at 2-4 and
    # moves toward the paper's 2 as n_requests grows (see EXPERIMENTS.md).
    assert 1 <= best_high <= 2
    assert 1 <= best_extreme <= 4

    # The sweep's extremes must be worse than its optimum: 0 reserved
    # (plain FP) and 13 reserved (starved longs).
    for name in ("high_bimodal", "extreme_bimodal"):
        slowdowns = result.slowdowns(name)
        best_val = slowdowns[result.best_reserved(name)]
        assert slowdowns[0] > best_val
        assert slowdowns[max(slowdowns)] > best_val
        # The optimum beats the c-FCFS reference (paper: 4.4x / 1.5x).
        from repro.experiments.common import overall_slowdown_metric

        ref = overall_slowdown_metric(result.references[name])
        assert best_val < ref
