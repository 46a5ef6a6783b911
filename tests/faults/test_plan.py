"""FaultPlan DSL: construction, validation, ordering, introspection."""

import pytest

from repro.errors import ConfigurationError
from repro.faults.plan import (
    FaultPlan,
    PacketDrop,
    PacketDup,
    WorkerCrash,
    WorkerRecover,
    WorkerSlowdown,
)


class TestEvents:
    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkerCrash(-1.0, 0)

    def test_negative_worker_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkerCrash(1.0, -2)

    def test_slowdown_validation(self):
        with pytest.raises(ConfigurationError):
            WorkerSlowdown(1.0, 0, factor=0.0)
        with pytest.raises(ConfigurationError):
            WorkerSlowdown(5.0, 0, factor=2.0, until=5.0)
        event = WorkerSlowdown(5.0, 0, factor=2.0, until=9.0)
        assert event.factor == 2.0 and event.until == 9.0

    @pytest.mark.parametrize("at", [float("nan"), float("inf")])
    def test_non_finite_time_rejected(self, at):
        with pytest.raises(ConfigurationError):
            WorkerCrash(at, 0)

    @pytest.mark.parametrize("factor", [float("nan"), float("inf")])
    def test_non_finite_slowdown_factor_rejected(self, factor):
        with pytest.raises(ConfigurationError):
            WorkerSlowdown(1.0, 0, factor=factor)

    @pytest.mark.parametrize("until", [float("nan"), float("inf")])
    def test_non_finite_slowdown_until_rejected(self, until):
        with pytest.raises(ConfigurationError):
            WorkerSlowdown(1.0, 0, factor=2.0, until=until)

    def test_nan_packet_window_end_rejected(self):
        with pytest.raises(ConfigurationError):
            PacketDrop(1.0, float("nan"), 0.5)

    def test_packet_window_validation(self):
        with pytest.raises(ConfigurationError):
            PacketDrop(5.0, 4.0, 0.5)
        with pytest.raises(ConfigurationError):
            PacketDrop(1.0, 2.0, 1.5)
        window = PacketDrop(1.0, 2.0, 0.5)
        assert window.active(1.0)
        assert window.active(1.9)
        assert not window.active(2.0)
        assert not window.active(0.5)


class TestPlan:
    def test_events_sorted_by_time(self):
        plan = FaultPlan(
            [WorkerRecover(9.0, 0), WorkerCrash(1.0, 0), WorkerCrash(5.0, 1)]
        )
        assert [e.at for e in plan.events] == [1.0, 5.0, 9.0]

    def test_same_instant_keeps_authored_order(self):
        crash = WorkerCrash(3.0, 0)
        recover = WorkerRecover(3.0, 1)
        plan = FaultPlan([crash, recover])
        assert plan.events == [crash, recover]

    def test_non_event_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(["crash at 3"])

    def test_crash_recover_helper(self):
        plan = FaultPlan.crash_recover([0, 1], crash_at=10.0, recover_at=20.0)
        assert len(plan) == 4
        kinds = [e.kind for e in plan.events]
        assert kinds == ["crash", "crash", "recover", "recover"]
        assert plan.first_fault_time() == 10.0

    def test_crash_recover_ordering_enforced(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.crash_recover([0], crash_at=10.0, recover_at=10.0)

    def test_crash_without_recover(self):
        plan = FaultPlan.crash_recover([2], crash_at=10.0)
        assert len(plan) == 1
        assert plan.events[0].kind == "crash"

    def test_add_returns_new_plan(self):
        plan = FaultPlan([WorkerCrash(5.0, 0)])
        grown = plan.add(WorkerCrash(1.0, 1))
        assert len(plan) == 1
        assert len(grown) == 2
        assert grown.events[0].at == 1.0

    def test_needs_rng_only_for_packet_faults(self):
        assert not FaultPlan([WorkerCrash(1.0, 0)]).needs_rng
        assert FaultPlan([PacketDrop(1.0, 2.0, 0.5)]).needs_rng
        assert FaultPlan([PacketDup(1.0, 2.0, 0.5)]).needs_rng

    def test_validate_against_machine_size(self):
        plan = FaultPlan([WorkerCrash(1.0, 4)])
        plan.validate(n_workers=5)
        with pytest.raises(ConfigurationError):
            plan.validate(n_workers=4)

    def test_empty_plan(self):
        plan = FaultPlan()
        assert plan.is_empty
        assert plan.first_fault_time() is None
        assert plan.describe() == "FaultPlan(empty)"
        assert not plan.needs_rng

    def test_describe_lists_events(self):
        plan = FaultPlan([WorkerCrash(1.0, 0), PacketDrop(2.0, 3.0, 0.25)])
        text = plan.describe()
        assert "crash(w0)" in text
        assert "packet-drop" in text
