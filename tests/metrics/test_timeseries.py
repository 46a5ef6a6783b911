"""Tests for windowed time series and allocation timelines."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.metrics.percentiles import P999
from repro.metrics.recorder import Recorder
from repro.metrics.timeseries import AllocationTimeline, WindowedStats
from repro.workload.request import Request


def recorder_with(arrivals_latencies, type_id=0):
    rec = Recorder()
    for i, (arrival, latency) in enumerate(arrivals_latencies):
        r = Request(i, type_id, arrival, 1.0)
        r.first_service_time = arrival
        r.finish_time = arrival + latency
        rec.on_complete(r)
    return rec


class _Columns:
    """Just the two columns ``WindowedStats.series`` reads."""

    def __init__(self, arrivals, latencies):
        self.arrivals = arrivals
        self.latencies = latencies

    def __len__(self):
        return len(self.arrivals)


class TestWindowedStats:
    def test_bins_by_arrival_time(self):
        rec = recorder_with([(1.0, 5.0), (2.0, 7.0), (11.0, 100.0)])
        stats = WindowedStats(window_us=10.0)
        times, values = stats.series(rec.columns())
        assert list(times) == [0.0, 10.0]
        assert values[0] == pytest.approx(7.0, abs=0.1)
        assert values[1] == pytest.approx(100.0)

    def test_empty_window_is_nan(self):
        rec = recorder_with([(1.0, 5.0), (25.0, 5.0)])
        stats = WindowedStats(window_us=10.0)
        _, values = stats.series(rec.columns())
        assert math.isnan(values[1])

    def test_type_filter(self):
        rec = Recorder()
        for i, tid in enumerate([0, 1, 0]):
            r = Request(i, tid, 1.0, 1.0)
            r.finish_time = 1.0 + (10.0 if tid else 2.0)
            r.first_service_time = 1.0
            rec.on_complete(r)
        stats = WindowedStats(window_us=10.0)
        _, values = stats.series(rec.columns(), type_id=1)
        assert values[0] == pytest.approx(10.0)

    def test_empty_columns(self):
        stats = WindowedStats(window_us=10.0)
        times, values = stats.series(Recorder().columns())
        assert len(times) == 0
        assert len(values) == 0

    def test_invalid_window(self):
        with pytest.raises(ConfigurationError):
            WindowedStats(window_us=0.0)

    def test_matches_per_window_percentile_bit_for_bit(self):
        window_us = 500.0
        rng = np.random.default_rng(42)
        arrivals = np.sort(rng.uniform(0.0, 25_000.0, 50_000))
        # A gap of three empty windows, so NaN placement is checked too.
        keep = (arrivals < 5_000.0) | (arrivals >= 6_500.0)
        cols = _Columns(arrivals[keep], np.exp(rng.normal(3.0, 1.5, 50_000))[keep])
        times, values = WindowedStats(window_us).series(cols, None, P999)

        idx = (cols.arrivals // window_us).astype(np.int64)
        ref = np.full(int(float(cols.arrivals.max()) // window_us) + 1, np.nan)
        for w in range(len(ref)):
            mask = idx == w
            if mask.any():
                ref[w] = float(np.percentile(cols.latencies[mask], P999))
        assert len(times) == len(values) == len(ref) == 50
        assert int(np.isnan(ref).sum()) == 3
        both_nan = np.isnan(values) & np.isnan(ref)
        assert bool(np.all((values == ref) | both_nan))


class TestThroughputSeries:
    def test_counts_completions_per_window(self):
        rec = recorder_with([(0.0, 1.0), (0.0, 2.0), (0.0, 15.0)])
        stats = WindowedStats(window_us=10.0)
        times, rates = stats.throughput_series(rec.columns())
        assert list(times) == [0.0, 10.0]
        assert rates[0] == pytest.approx(0.2)   # 2 completions / 10us
        assert rates[1] == pytest.approx(0.1)

    def test_type_filter(self):
        rec = Recorder()
        for i, tid in enumerate([0, 1, 1]):
            r = Request(i, tid, 0.0, 1.0)
            r.finish_time = 5.0
            r.first_service_time = 0.0
            rec.on_complete(r)
        stats = WindowedStats(window_us=10.0)
        _, rates = stats.throughput_series(rec.columns(), type_id=1)
        assert rates[0] == pytest.approx(0.2)

    def test_empty(self):
        stats = WindowedStats(window_us=10.0)
        times, rates = stats.throughput_series(Recorder().columns())
        assert len(times) == 0 and len(rates) == 0


class TestAllocationTimeline:
    def test_step_semantics(self):
        timeline = AllocationTimeline([(10.0, {0: 1}), (20.0, {0: 2})])
        assert timeline.at(5.0, 0) == 0   # before first reservation: c-FCFS
        assert timeline.at(10.0, 0) == 1
        assert timeline.at(15.0, 0) == 1
        assert timeline.at(25.0, 0) == 2

    def test_missing_type_is_zero(self):
        timeline = AllocationTimeline([(10.0, {0: 1})])
        assert timeline.at(15.0, 9) == 0

    def test_sample_vectorized(self):
        timeline = AllocationTimeline([(10.0, {0: 3})])
        values = timeline.sample(np.array([0.0, 10.0, 50.0]), 0)
        assert list(values) == [0, 3, 3]

    def test_unsorted_log_is_sorted(self):
        timeline = AllocationTimeline([(20.0, {0: 2}), (10.0, {0: 1})])
        assert timeline.at(15.0, 0) == 1

    def test_update_times(self):
        timeline = AllocationTimeline([(10.0, {}), (20.0, {})])
        assert timeline.update_times() == [10.0, 20.0]
