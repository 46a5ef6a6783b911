"""Paper-reproduction checks.

Each test regenerates one of the paper's tables or figures (or an
extension of them) at reproduction scale, prints the text analogue
(run with ``-s`` to see it) and asserts the paper's claims about it.
Simulations are deterministic per seed, so one run per check is
meaningful.  These are plain pytest tests; simulator speed is measured
by ``benchmarks/suite/run.py`` instead.

Run:  python -m pytest benchmarks --ignore=benchmarks/suite -q
      python -m pytest benchmarks --ignore=benchmarks/suite -q -s  # with figures
      REPRO_BENCH_N=20000 python -m pytest benchmarks ...          # faster
"""

import os

import pytest

#: Arrivals per load point; override with the REPRO_BENCH_N env var.
DEFAULT_N = int(os.environ.get("REPRO_BENCH_N", "60000"))


@pytest.fixture(scope="session")
def bench_n_requests() -> int:
    return DEFAULT_N
