"""Figure 8 reproduction: the RocksDB service.

Paper: 50% GET (1.5us) / 50% SCAN (635us); at a 20x slowdown target DARC
sustains 2.3x / 1.3x more load than Shenango / Shinjuku (15us quantum);
DARC reserves 1 core for GETs, idling ~0.96 core on average.
"""

from repro.experiments import figure8


def test_figure8(bench_n_requests):
    result = figure8.run(n_requests=bench_n_requests, seed=1)
    print()
    print(figure8.render(result))

    findings = result.findings

    assert findings["DARC reserved cores for GET"] == 1.0
    assert abs(findings["DARC expected CPU waste (cores)"] - 0.97) < 0.05
    assert findings["DARC vs Shenango capacity"] > 1.2
    assert findings["DARC vs Shinjuku capacity"] >= 1.0
