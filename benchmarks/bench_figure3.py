"""Figure 3 reproduction: DARC vs c-FCFS vs d-FCFS inside Perséphone.

Paper (High Bimodal, 14 workers): DARC improves slowdown over c-FCFS by
up to 15.7x, sustains ~2.3x more load at a 20us short-request SLO, costs
long requests up to 4.2x, reserves 1 core, wastes ~0.86 core.
"""

from repro.experiments import figure3


def test_figure3(bench_n_requests):
    result = figure3.run(n_requests=bench_n_requests, seed=1)
    print()
    print(figure3.render(result))

    findings = result.findings

    # DARC reserves exactly 1 core for shorts and the Eq. 2 waste ~0.86.
    assert findings["DARC reserved cores for SHORT"] == 1.0
    assert abs(findings["DARC expected CPU waste (cores)"] - 0.86) < 0.05
    # Slowdown improvement is large (paper: up to 15.7x).
    assert findings["max slowdown improvement (DARC over c-FCFS)"] > 5.0
    # Long requests pay, but boundedly (paper: up to 4.2x).
    assert findings["max long-request latency cost (DARC/c-FCFS)"] < 10.0
    # Capacity at the short-latency SLO improves (paper: 2.3x).
    cap_key = "capacity ratio @ short p99.9 <= 20us"
    assert findings[cap_key] > 1.2
