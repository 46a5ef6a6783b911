"""Validate the simulator against closed-form queueing theory.

These tests are the strongest correctness evidence the suite has: if the
event engine, generator or FCFS policies were subtly wrong, the measured
mean waits would not land on Pollaczek–Khinchine / Erlang C predictions.
"""

import numpy as np
import pytest

from repro.theory.queueing import (
    bimodal_moments,
    mg1_mean_wait,
    mm1_mean_wait,
    mmc_mean_wait,
)
from repro.metrics.recorder import Recorder
from repro.policies.fcfs import CentralizedFCFS
from repro.server.config import ServerConfig
from repro.server.server import Server
from repro.sim.engine import EventLoop
from repro.sim.randomness import RngRegistry
from repro.workload.arrivals import PoissonArrivals
from repro.workload.distributions import Exponential, Fixed
from repro.workload.generator import OpenLoopGenerator
from repro.workload.spec import TypedClass, WorkloadSpec


def simulate_fcfs(spec, rate, n_workers, n_requests, seed=11):
    rngs = RngRegistry(seed=seed)
    loop = EventLoop()
    recorder = Recorder()
    server = Server(
        loop, CentralizedFCFS(), config=ServerConfig(n_workers=n_workers),
        recorder=recorder,
    )
    generator = OpenLoopGenerator(
        loop,
        spec,
        PoissonArrivals(rate),
        server.ingress,
        type_rng=rngs.stream("t"),
        service_rng=rngs.stream("s"),
        arrival_rng=rngs.stream("a"),
        limit=n_requests,
    )
    generator.start()
    loop.run()
    return recorder.columns().after_warmup(0.2)


class TestMM1:
    @pytest.mark.parametrize("rho", [0.3, 0.6, 0.8])
    def test_mean_wait_matches_theory(self, rho):
        mu = 1.0  # service rate per us
        spec = WorkloadSpec("mm1", [TypedClass("job", 1.0, Exponential(1.0 / mu))])
        cols = simulate_fcfs(spec, rate=rho * mu, n_workers=1, n_requests=60_000)
        expected = mm1_mean_wait(rho * mu, mu)
        assert cols.waits.mean() == pytest.approx(expected, rel=0.12)


class TestMG1:
    def test_deterministic_service(self):
        lam, s = 0.7, 1.0
        spec = WorkloadSpec("md1", [TypedClass("job", 1.0, Fixed(s))])
        cols = simulate_fcfs(spec, rate=lam, n_workers=1, n_requests=60_000)
        expected = mg1_mean_wait(lam, s, s * s)
        assert cols.waits.mean() == pytest.approx(expected, rel=0.12)

    def test_bimodal_service_heavy_variance(self):
        # The High Bimodal distribution through M/G/1: the PK formula
        # captures exactly the dispersion effect the paper targets.
        lam = 0.7 / 50.5
        spec = WorkloadSpec(
            "mg1-bimodal",
            [TypedClass("s", 0.5, Fixed(1.0)), TypedClass("l", 0.5, Fixed(100.0))],
        )
        mean, second = bimodal_moments(1.0, 100.0, 0.5)
        cols = simulate_fcfs(spec, rate=lam, n_workers=1, n_requests=60_000)
        expected = mg1_mean_wait(lam, mean, second)
        assert cols.waits.mean() == pytest.approx(expected, rel=0.15)


class TestMMc:
    @pytest.mark.parametrize("c", [2, 8])
    def test_mean_wait_matches_erlang_c(self, c):
        mu = 1.0
        rho = 0.7
        lam = rho * c * mu
        spec = WorkloadSpec("mmc", [TypedClass("job", 1.0, Exponential(1.0 / mu))])
        cols = simulate_fcfs(spec, rate=lam, n_workers=c, n_requests=80_000)
        expected = mmc_mean_wait(lam, mu, c)
        assert cols.waits.mean() == pytest.approx(expected, rel=0.15)


class TestLittlesLaw:
    def test_throughput_equals_arrival_rate_when_stable(self):
        spec = WorkloadSpec("l", [TypedClass("job", 1.0, Exponential(2.0))])
        rate = 0.25
        cols = simulate_fcfs(spec, rate=rate, n_workers=1, n_requests=50_000)
        duration = cols.finishes.max() - cols.arrivals.min()
        measured = len(cols) / duration
        assert measured == pytest.approx(rate, rel=0.05)
