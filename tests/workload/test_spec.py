"""Tests for workload specifications."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workload.distributions import Fixed
from repro.workload.presets import (
    extreme_bimodal,
    high_bimodal,
    rocksdb,
    tpcc,
    by_name,
)
from repro.workload.spec import TypedClass, WorkloadSpec, bimodal_spec, nmodal_spec


class TestWorkloadSpec:
    def test_ratios_must_sum_to_one(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec("bad", [TypedClass("a", 0.5, Fixed(1.0))])

    def test_empty_raises(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec("empty", [])

    def test_mean_service_time_high_bimodal(self):
        # Table 3: 50% x 1us + 50% x 100us -> 50.5us.
        assert high_bimodal().mean_service_time() == pytest.approx(50.5)

    def test_mean_service_time_extreme_bimodal(self):
        # 99.5% x 0.5us + 0.5% x 500us -> 2.9975us.
        assert extreme_bimodal().mean_service_time() == pytest.approx(2.9975)

    def test_peak_load_fig1(self):
        # §2: 16 workers on the Fig. 1 mix peak at ~5.3 Mrps.
        spec = extreme_bimodal()
        assert spec.peak_load(16) == pytest.approx(5.34, abs=0.01)

    def test_peak_load_invalid_workers(self):
        with pytest.raises(WorkloadError):
            high_bimodal().peak_load(0)

    def test_dispersion(self):
        assert high_bimodal().dispersion() == pytest.approx(100.0)
        assert extreme_bimodal().dispersion() == pytest.approx(1000.0)
        assert rocksdb().dispersion() == pytest.approx(635.0 / 1.5)

    def test_demand_shares_sum_to_one(self):
        for spec in (high_bimodal(), tpcc(), rocksdb()):
            assert spec.demand_shares().sum() == pytest.approx(1.0)

    def test_demand_shares_high_bimodal(self):
        # Short contributes 0.5/50.5 of demand (why DARC's 14x share is 0.139).
        shares = high_bimodal().demand_shares()
        assert shares[0] == pytest.approx(0.5 / 50.5)

    def test_sample_type_respects_ratios(self):
        spec = extreme_bimodal()
        rng = np.random.default_rng(0)
        types = spec.sample_types(rng, 100_000)
        assert (types == 0).mean() == pytest.approx(0.995, abs=0.003)

    def test_sample_type_single(self):
        spec = high_bimodal()
        rng = np.random.default_rng(1)
        counts = {0: 0, 1: 0}
        for _ in range(2000):
            counts[spec.sample_type(rng)] += 1
        assert counts[0] == pytest.approx(1000, abs=120)

    def test_sample_service(self):
        spec = high_bimodal()
        rng = np.random.default_rng(2)
        assert spec.sample_service(0, rng) == 1.0
        assert spec.sample_service(1, rng) == 100.0

    def test_type_specs_order_and_ids(self):
        specs = tpcc().type_specs()
        assert [s.type_id for s in specs] == [0, 1, 2, 3, 4]
        assert specs[0].name == "Payment"
        assert specs[4].name == "StockLevel"

    def test_describe_mentions_all_types(self):
        text = tpcc().describe()
        for name in ("Payment", "OrderStatus", "NewOrder", "Delivery", "StockLevel"):
            assert name in text


class _StubUniform:
    """An rng whose uniforms are all ``value``."""

    def __init__(self, value):
        self.value = value

    def random(self, size=None):
        return self.value if size is None else np.full(size, self.value)


class TestCumulativeTail:
    """Ratios summing to 1 - 4e-10 pass the 1e-9 check; a uniform above
    that sum must still map to the last type, not to ``n_types``."""

    SHORT_SUM = [0.5, 0.4999999996]
    U = 0.9999999998

    def _spec(self):
        a, b = self.SHORT_SUM
        return nmodal_spec("short-sum", [("A", 1.0, a), ("B", 100.0, b)])

    def test_uniform_past_the_ratio_sum_maps_to_last_type(self):
        spec = self._spec()
        assert sum(self.SHORT_SUM) < self.U
        rng = _StubUniform(self.U)
        assert spec.sample_type(rng) == 1
        assert spec.sample_types(rng, 3).tolist() == [1, 1, 1]
        assert spec.sample_service(spec.sample_type(rng), rng) == 100.0
        assert spec.cumulative[-1] == 1.0

    def test_generator_draws_the_last_type(self):
        from repro.workload.generator import RequestDraws

        draws = RequestDraws(self._spec(), _StubUniform(self.U), np.random.default_rng(0))
        assert draws.draw() == (1, 100.0)

    def test_presets_already_end_at_exactly_one(self):
        # Pinning the tail to 1.0 moves no preset's type mapping.
        from repro.workload.presets import PRESETS

        for make in PRESETS.values():
            spec = make()
            assert float(np.cumsum([c.ratio for c in spec.classes])[-1]) == 1.0


class TestConstructors:
    def test_bimodal_spec_names(self):
        spec = bimodal_spec("x", 1.0, 0.5, 100.0, short_name="GET", long_name="SCAN")
        assert spec.type_names() == ["GET", "SCAN"]

    def test_nmodal_spec(self):
        spec = nmodal_spec("m", [("a", 1.0, 0.2), ("b", 2.0, 0.8)])
        assert spec.n_types == 2
        assert spec.mean_service_time() == pytest.approx(0.2 * 1 + 0.8 * 2)

    def test_by_name_roundtrip(self):
        assert by_name("tpcc").name == "tpcc"

    def test_by_name_unknown(self):
        with pytest.raises(KeyError):
            by_name("nope")


class TestTpccPreset:
    def test_table4_values(self):
        spec = tpcc()
        means = {c.name: c.distribution.mean() for c in spec.classes}
        assert means == {
            "Payment": 5.7,
            "OrderStatus": 6.0,
            "NewOrder": 20.0,
            "Delivery": 88.0,
            "StockLevel": 100.0,
        }
        ratios = {c.name: c.ratio for c in spec.classes}
        assert ratios["Payment"] == 0.44
        assert ratios["NewOrder"] == 0.44
        assert sum(ratios.values()) == pytest.approx(1.0)
