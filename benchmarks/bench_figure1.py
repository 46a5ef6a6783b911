"""Figure 1 reproduction: the §2 motivating policy simulation.

Paper: on 16 workers with the 99.5% x 0.5us + 0.5% x 500us mix, at a 10x
per-type p99.9 slowdown SLO, c-FCFS sustains ~2.1 Mrps (~40% of the
5.34 Mrps peak), TS(5us, 1us) ~3.7 Mrps (~70%), DARC ~5.1 Mrps (~95%);
d-FCFS never meets the SLO.
"""

import math

from repro.experiments import figure1


def test_figure1(bench_n_requests):
    result = figure1.run(n_requests=bench_n_requests, seed=1)
    print()
    print(figure1.render(result))

    caps = {
        name: result.findings.get(f"capacity@10x [{name}] (frac of peak)")
        for name in ("d-FCFS", "c-FCFS", "TS (5us, 1us)", "DARC")
    }

    # Shape assertions (paper: 0.40 / 0.70 / 0.95 of peak).
    assert caps["d-FCFS"] is None or math.isnan(caps["d-FCFS"])
    assert caps["c-FCFS"] is not None and caps["c-FCFS"] <= 0.65
    assert caps["DARC"] is not None and caps["DARC"] >= 0.85
    assert caps["DARC"] > caps["c-FCFS"]
    ts = caps["TS (5us, 1us)"]
    assert ts is not None and caps["c-FCFS"] <= ts <= caps["DARC"]
