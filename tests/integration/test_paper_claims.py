"""End-to-end checks of the paper's headline *qualitative* claims.

These are small-scale versions of the figure experiments: they assert
directionally (who beats whom, where) rather than exact numbers, which
need the full-size benchmark runs.
"""

import pytest

from repro.experiments.common import overall_slowdown_metric, run_once
from repro.systems.persephone import (
    PersephoneCfcfsSystem,
    PersephoneDfcfsSystem,
    PersephoneSystem,
)
from repro.systems.shenango import ShenangoSystem
from repro.systems.shinjuku import ShinjukuSystem
from repro.workload.presets import extreme_bimodal, high_bimodal, rocksdb, tpcc

N = 20_000


def slowdown(system, spec, rho, seed=5, n=N):
    return run_once(system, spec, rho, n_requests=n, seed=seed).summary


class TestFigure3Claims:
    def test_darc_beats_cfcfs_on_high_bimodal(self):
        spec = high_bimodal()
        darc = slowdown(PersephoneSystem(n_workers=14, oracle=True), spec, 0.8)
        cfcfs = slowdown(PersephoneCfcfsSystem(n_workers=14), spec, 0.8)
        assert darc.overall_tail_slowdown < cfcfs.overall_tail_slowdown / 3

    def test_cfcfs_beats_dfcfs(self):
        spec = high_bimodal()
        cfcfs = slowdown(PersephoneCfcfsSystem(n_workers=14), spec, 0.6)
        dfcfs = slowdown(PersephoneDfcfsSystem(n_workers=14), spec, 0.6)
        assert cfcfs.overall_tail_slowdown < dfcfs.overall_tail_slowdown

    def test_darc_short_latency_protected_at_high_load(self):
        spec = high_bimodal()
        darc = slowdown(PersephoneSystem(n_workers=14, oracle=True), spec, 0.9)
        short = darc.per_type[0]
        # Shorts never wait behind 100us longs: tail stays ~ a few us.
        assert short.tail_latency < 20.0

    def test_darc_costs_longs_something(self):
        spec = high_bimodal()
        darc = slowdown(PersephoneSystem(n_workers=14, oracle=True), spec, 0.8)
        cfcfs = slowdown(PersephoneCfcfsSystem(n_workers=14), spec, 0.8)
        # The paper: up to 4.2x long-latency cost. Assert it exists but is
        # bounded (not a starvation collapse).
        assert darc.per_type[1].tail_latency >= cfcfs.per_type[1].tail_latency * 0.8
        assert darc.per_type[1].tail_latency <= cfcfs.per_type[1].tail_latency * 10


class TestFigure5Claims:
    def test_darc_beats_shenango_high_bimodal(self):
        spec = high_bimodal()
        darc = slowdown(PersephoneSystem(n_workers=14, oracle=True), spec, 0.75)
        shen = slowdown(ShenangoSystem(n_workers=14), spec, 0.75)
        assert darc.overall_tail_slowdown < shen.overall_tail_slowdown

    def test_darc_beats_shinjuku_at_high_load(self):
        spec = high_bimodal()
        darc = slowdown(PersephoneSystem(n_workers=14, oracle=True), spec, 0.85)
        shin = slowdown(
            ShinjukuSystem(n_workers=14, quantum_us=5.0, mode="multi"), spec, 0.85
        )
        assert darc.overall_tail_slowdown < shin.overall_tail_slowdown

    def test_shinjuku_overheads_cap_load_extreme_bimodal(self):
        # §5.4.2: past ~55% Shinjuku's 5us preemption cannot keep up.
        spec = extreme_bimodal()
        shin = slowdown(
            ShinjukuSystem(n_workers=14, quantum_us=5.0, mode="single"), spec, 0.9,
        )
        darc = slowdown(PersephoneSystem(n_workers=14, oracle=True), spec, 0.9)
        assert darc.overall_tail_slowdown < shin.overall_tail_slowdown

    def test_shinjuku_beats_shenango_mid_load_high_bimodal(self):
        spec = high_bimodal()
        shin = slowdown(
            ShinjukuSystem(n_workers=14, quantum_us=5.0, mode="multi"), spec, 0.6
        )
        shen = slowdown(ShenangoSystem(n_workers=14), spec, 0.6)
        assert shin.overall_tail_slowdown < shen.overall_tail_slowdown


class TestTpccClaims:
    def test_darc_favors_short_transactions(self):
        spec = tpcc()
        darc = slowdown(PersephoneSystem(n_workers=14, oracle=True), spec, 0.85)
        shen = slowdown(ShenangoSystem(n_workers=14), spec, 0.85)
        payment_darc = darc.type_by_name("Payment").tail_latency
        payment_shen = shen.type_by_name("Payment").tail_latency
        assert payment_darc < payment_shen

    def test_darc_reduces_overall_slowdown(self):
        spec = tpcc()
        darc = slowdown(PersephoneSystem(n_workers=14, oracle=True), spec, 0.85)
        shen = slowdown(ShenangoSystem(n_workers=14), spec, 0.85)
        assert darc.overall_tail_slowdown < shen.overall_tail_slowdown


class TestRocksDbClaims:
    def test_darc_beats_both_at_high_load(self):
        spec = rocksdb()
        darc = slowdown(PersephoneSystem(n_workers=14, oracle=True), spec, 0.85)
        shen = slowdown(ShenangoSystem(n_workers=14), spec, 0.85)
        shin = slowdown(
            ShinjukuSystem(n_workers=14, quantum_us=15.0, mode="multi"), spec, 0.85
        )
        assert darc.overall_tail_slowdown < shen.overall_tail_slowdown
        assert darc.overall_tail_slowdown < shin.overall_tail_slowdown
