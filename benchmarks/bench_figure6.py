"""Figure 6 reproduction: TPC-C across the three systems.

Paper (85% load): Perséphone improves Payment / OrderStatus / NewOrder
p99.9 latency by 9.2x / 7x / 3.6x over Shenango, reduces overall
slowdown up to 4.6x (3.1x vs Shinjuku), and sustains 1.2x / 1.05x more
load at a 10x overall-slowdown target.  DARC groups {Payment,
OrderStatus} / {NewOrder} / {Delivery, StockLevel} onto 2 / 6 / 6
workers.
"""

from repro.experiments import figure6


def test_figure6(bench_n_requests):
    result = figure6.run(n_requests=bench_n_requests, seed=1)
    print()
    print(figure6.render(result))

    findings = result.findings

    # Short transactions improve a lot vs Shenango at ~85% load.
    assert findings["Payment p99.9 improvement vs Shenango @~85%"] > 2.0
    assert findings["OrderStatus p99.9 improvement vs Shenango @~85%"] > 2.0
    assert findings["NewOrder p99.9 improvement vs Shenango @~85%"] > 1.5
    # Overall slowdown improves (paper: up to 4.6x).
    assert findings["overall slowdown improvement vs Shenango @~85%"] > 1.5
    # Capacity at the 10x target (paper: 1.2x / 1.05x).
    assert findings["capacity ratio vs Shenango"] >= 1.0
    assert findings["capacity ratio vs Shinjuku"] >= 0.95
    # The learned grouping uses three groups of roughly 2/6/6 workers.
    groups = [findings.get(f"group {i} reserved workers") for i in range(3)]
    assert None not in groups
    assert groups[0] in (1.0, 2.0, 3.0)
    assert 5.0 <= groups[1] <= 7.0
    assert 4.0 <= groups[2] <= 7.0
