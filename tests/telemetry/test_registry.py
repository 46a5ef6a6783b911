"""Metric primitives: monotonic counters, gauges, fixed-bound
histograms, and the registry's get-or-create family/series model."""

import pytest

from repro.errors import TelemetryError
from repro.telemetry import (
    DEFAULT_BOUNDS,
    MetricsRegistry,
    log_spaced_bounds,
    series_key,
)


class TestCounter:
    def test_inc_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_things_total")
        c.inc()
        c.inc(3)
        assert c.value == 4

    def test_negative_inc_rejected(self):
        c = MetricsRegistry().counter("repro_things_total")
        with pytest.raises(TelemetryError):
            c.inc(-1)

    def test_set_total_must_be_monotonic(self):
        c = MetricsRegistry().counter("repro_things_total")
        c.set_total(10)
        c.set_total(10)  # equal is fine
        with pytest.raises(TelemetryError):
            c.set_total(9)


class TestGauge:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("repro_depth")
        g.set(5)
        g.inc(2)
        g.dec(4)
        assert g.value == 3


class TestHistogram:
    def test_bounds_must_be_ascending(self):
        reg = MetricsRegistry()
        with pytest.raises(TelemetryError):
            reg.histogram("repro_lat_us", bounds=[2.0, 1.0])
        with pytest.raises(TelemetryError):
            reg.histogram("repro_lat2_us", bounds=[])

    def test_observe_buckets_and_overflow(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_lat_us", bounds=[1.0, 10.0, 100.0])
        for v in (0.5, 5.0, 5.0, 50.0, 5000.0):
            h.observe(v)
        # bucket_counts: per-bound (non-cumulative) + one overflow slot
        assert h.count == 5
        assert h.sum == pytest.approx(5060.5)
        cumulative = h.cumulative_buckets()
        # le=1.0 -> 1, le=10.0 -> 3, le=100.0 -> 4, le=+Inf -> 5
        assert [c for _, c in cumulative] == [1, 3, 4, 5]
        assert cumulative[-1][0] == float("inf")

    def test_default_bounds_are_log_spaced_and_fixed(self):
        assert list(DEFAULT_BOUNDS) == sorted(DEFAULT_BOUNDS)
        assert len(DEFAULT_BOUNDS) == 25
        assert DEFAULT_BOUNDS[0] == pytest.approx(0.1)
        assert DEFAULT_BOUNDS[-1] == pytest.approx(1e7)
        with pytest.raises(TelemetryError):
            log_spaced_bounds(per_decade=0)
        with pytest.raises(TelemetryError):
            log_spaced_bounds(lo_exp=3, hi_exp=3)


class TestRegistry:
    def test_get_or_create_returns_same_series(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_x_total", type=1)
        b = reg.counter("repro_x_total", type=1)
        assert a is b
        assert reg.counter("repro_x_total", type=2) is not a
        assert len(reg) == 2

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total")
        with pytest.raises(TelemetryError):
            reg.gauge("repro_x_total")

    def test_series_key_is_label_sorted(self):
        # Labels are frozen into sorted order before keying, so argument
        # order never creates a second series.
        assert series_key("m", (("a", "1"), ("b", "2"))) == 'm{a="1",b="2"}'
        reg = MetricsRegistry()
        assert reg.counter("repro_x_total", b=2, a=1) is reg.counter(
            "repro_x_total", a=1, b=2
        )

    def test_family_total_sums_across_labels(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total", type=0).inc(3)
        reg.counter("repro_x_total", type=1).inc(4)
        assert reg.family_total("repro_x_total") == 7
        assert reg.family_total("repro_missing_total") == 0

    def test_pull_source_runs_on_collect(self):
        reg = MetricsRegistry()
        seen = []

        def source(registry, now):
            seen.append(now)
            registry.gauge("repro_pulled").set(now)

        reg.register_source(source)
        reg.collect(42.0)
        assert seen == [42.0]
        assert reg.gauge("repro_pulled").value == 42.0


class TestLookupCache:
    """The registry caches get-or-create calls; a cached lookup must
    resolve exactly as the uncached path would."""

    def test_kind_conflict_still_raises_after_a_cache_hit(self):
        reg = MetricsRegistry()
        counter = reg.counter("repro_x_total", type=1)
        assert reg.counter("repro_x_total", type=1) is counter  # cache hit
        with pytest.raises(TelemetryError, match="not a gauge"):
            reg.gauge("repro_x_total", type=1)
        with pytest.raises(TelemetryError, match="not a histogram"):
            reg.histogram("repro_x_total", type=1)
        with pytest.raises(TelemetryError, match="already registered as counter"):
            reg.gauge("repro_x_total", type=2)
        assert reg.counter("repro_x_total", type=1) is counter

    def test_int_and_str_labels_resolve_to_one_series(self):
        reg = MetricsRegistry()
        as_int = reg.histogram("repro_lat_us", type=1)
        assert reg.histogram("repro_lat_us", type="1") is as_int
        assert reg.histogram("repro_lat_us", type=1) is as_int
        assert len(reg) == 1

    def test_keyword_order_resolves_to_one_series(self):
        reg = MetricsRegistry()
        first = reg.gauge("repro_depth", queue="central", server=3)
        assert reg.gauge("repro_depth", server=3, queue="central") is first
        assert reg.gauge("repro_depth", server="3", queue="central") is first
        assert len(reg) == 1

    def test_equal_values_that_print_differently_stay_apart(self):
        # 1 == 1.0 == True, but each freezes to a different label value.
        reg = MetricsRegistry()
        as_int = reg.counter("repro_x_total", type=1)
        as_float = reg.counter("repro_x_total", type=1.0)
        as_bool = reg.counter("repro_x_total", type=True)
        assert len({id(as_int), id(as_float), id(as_bool)}) == 3
        assert [m.key for m in reg.series()] == [
            'repro_x_total{type="1"}',
            'repro_x_total{type="1.0"}',
            'repro_x_total{type="True"}',
        ]
        assert reg.counter("repro_x_total", type=1.0) is as_float
        assert reg.counter("repro_x_total", type=True) is as_bool

    def test_unhashable_label_value_is_accepted(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("repro_odd", tag=[1, 2])
        assert gauge.labels == (("tag", "[1, 2]"),)
        assert reg.gauge("repro_odd", tag=[1, 2]) is gauge
        assert reg.gauge("repro_odd", tag="[1, 2]") is gauge
        assert len(reg) == 1

    def test_precomputed_keys_match_series_key(self):
        reg = MetricsRegistry()
        counter = reg.counter("repro_x_total", type=1, a="z")
        gauge = reg.gauge("repro_level")
        hist = reg.histogram("repro_lat_us", type=0)
        assert counter.key == series_key("repro_x_total", (("a", "z"), ("type", "1")))
        assert gauge.key == series_key("repro_level", ())
        assert hist.key == series_key("repro_lat_us", (("type", "0"),))
        hist.observe(2.0)
        assert list(hist.sample_items()) == [
            (series_key("repro_lat_us_count", hist.labels), 1.0),
            (series_key("repro_lat_us_sum", hist.labels), 2.0),
        ]
        assert [key for key, _, _ in reg.sample_items()] == [
            'repro_x_total{a="z",type="1"}',
            "repro_level",
            'repro_lat_us_count{type="0"}',
            'repro_lat_us_sum{type="0"}',
        ]

    def test_dump_round_trip_is_unchanged(self):
        from repro.telemetry.export import (
            prometheus_text,
            registry_dump,
            registry_from_dump,
        )

        reg = MetricsRegistry()
        reg.counter("repro_x_total", "Things.", type=1).inc(2)
        reg.counter("repro_x_total", "Things.", type="0").inc()
        reg.gauge("repro_level", "Level.", server=4, queue="central").set(3)
        reg.gauge("repro_odd", tag=[1]).set(-1)
        reg.histogram("repro_lat_us", "Latency.", bounds=(1.0, 10.0), type=0).observe(5.0)
        dump = registry_dump(reg)
        rebuilt = registry_from_dump(dump)
        assert registry_dump(rebuilt) == dump
        assert prometheus_text(rebuilt) == prometheus_text(reg)
        assert [m.key for m in rebuilt.series()] == [m.key for m in reg.series()]
        assert dump[0]["series"] == [
            {"labels": [["type", "1"]], "value": 2.0},
            {"labels": [["type", "0"]], "value": 1.0},
        ]
        # The rebuilt registry resolves raw calls onto its restored series.
        assert rebuilt.counter("repro_x_total", type=1) is rebuilt.get('repro_x_total{type="1"}')


class TestTimeline:
    @staticmethod
    def _reference(scrapes, registry, times, series):
        """One scrape as a walk over ``registry.sample_items()``."""
        index = len(times)
        times.append(len(times))
        changed = 0
        for key, family, value in registry.sample_items():
            if key not in series:
                series[key] = (family, [])
            points = series[key][1]
            if not points or points[-1][1] != value:
                points.append((index, value))
                changed += 1
        scrapes.append(changed)

    def test_bound_walk_matches_a_walk_over_sample_items(self):
        from repro.telemetry.timeline import MetricsTimeline

        reg = MetricsRegistry()
        timeline = MetricsTimeline()
        expected_changes, times, series = [], [], {}
        changes = []

        def scrape():
            changes.append(timeline.record(float(len(timeline.times)), reg))
            self._reference(expected_changes, reg, times, series)

        reg.counter("repro_b_total", type=1).inc()
        reg.gauge("repro_level").set(2)
        scrape()
        scrape()
        # A later series of the first family, a histogram, then a NaN.
        reg.counter("repro_b_total", type=0).inc(3)
        hist = reg.histogram("repro_lat_us", bounds=(1.0, 10.0))
        hist.observe(5.0)
        scrape()
        reg.gauge("repro_level").set(float("nan"))
        hist.observe(0.5)
        scrape()
        scrape()
        reg.gauge("repro_a", type=7).set(1)
        reg.counter("repro_b_total", type=2)
        scrape()
        assert changes == expected_changes
        assert list(timeline.series) == list(series)
        for key, (family, points) in series.items():
            track = timeline.series[key]
            assert track.family == family
            assert repr(track.points) == repr(points)
