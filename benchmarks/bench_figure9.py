"""Figure 9 reproduction: DARC with a broken (random) classifier.

Paper: with requests pushed to random typed queues, every queue holds an
even mix of both types and DARC-random's behaviour converges to c-FCFS —
broken classifiers degrade gracefully.
"""

import numpy as np

from repro.experiments.common import overall_slowdown_metric
from repro.experiments import figure9


def test_figure9(bench_n_requests):
    result = figure9.run(n_requests=bench_n_requests, seed=1)
    print()
    print(figure9.render(result))

    gap = result.findings.get("mean |log slowdown ratio| (DARC-random vs c-FCFS)")
    assert gap is not None

    darc = result.sweeps["DARC"]
    rand = result.sweeps["DARC-random"]
    cfcfs = result.sweeps["c-FCFS"]

    # At the high-load end: working DARC is far below c-FCFS, while
    # DARC-random is much closer to c-FCFS than to working DARC.
    s_darc = overall_slowdown_metric(darc[-1])
    s_rand = overall_slowdown_metric(rand[-1])
    s_cfcfs = overall_slowdown_metric(cfcfs[-1])
    assert s_darc < s_cfcfs / 3
    assert abs(np.log(s_rand / s_cfcfs)) < abs(np.log(s_rand / max(s_darc, 1e-9)))
