"""DARC's breach re-check against a full Algorithm-2 re-run.

While an SLO breach is pending, DARC re-checks every completion: has the
demand picture moved (``window_deviation``), and may re-running
Algorithm 2's grant step over the profiling window group or grant
differently from the installed plan (``grants_may_differ``)?  Both read
the profiler's window entries and build no snapshot, share dict, group
or plan.  These tests hold them to the reference they replace, float
for float:

* the library path — ``ProfileSnapshot.demand_shares`` into
  ``demand_deviation``, and ``plan_grants(...).same_grants(...)``;
* a transcription of the grant arithmetic as Algorithm 2 states it
  (left-to-right sums from 0.0, half-up rounding), written apart from
  the library's loops, so a change to the shared grouping and rounding
  core cannot move both sides at once.
"""

import functools
import math
import operator

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.darc import DarcScheduler
from repro.core.profiler import WorkloadProfiler
from repro.core.reservation import (
    compute_reservation,
    demand_deviation,
    grants_may_differ,
    plan_grants,
    window_deviation,
)

from ..conftest import make_harness

#: Means on a few binades of a few mantissas: exact factor-of-two
#: ratios put types right on a δ = 2 group boundary, and repeated
#: values tie.
binade_means = st.builds(
    lambda mantissa, exponent: mantissa * 2.0 ** exponent,
    st.sampled_from([1.0, 1.25, 1.5, 1.1, 1.7]),
    st.integers(min_value=-8, max_value=12),
)
means = st.one_of(
    binade_means,
    st.floats(min_value=1e-3, max_value=1e5, allow_nan=False, allow_infinity=False),
)
type_ids = st.integers(min_value=0, max_value=7)

#: (type_id, mean, window count), unique type ids, in the order the
#: profiler first sees them.
windows = st.lists(
    st.tuples(type_ids, means, st.integers(min_value=1, max_value=1000)),
    min_size=1,
    max_size=6,
    unique_by=lambda t: t[0],
)
#: (type_id, mean, ratio) of the installed reservation.
installs = st.lists(
    st.tuples(
        type_ids,
        means,
        st.one_of(
            st.sampled_from([0.5, 0.25, 0.125, 0.1, 1.0 / 3.0]),
            st.floats(min_value=1e-4, max_value=1.0, allow_nan=False),
        ),
    ),
    min_size=1,
    max_size=6,
    unique_by=lambda t: t[0],
)
deltas = st.sampled_from([1.0, 2.0, math.inf])
roundings = st.sampled_from(["round", "ceil", "floor"])


def profiled(window):
    profiler = WorkloadProfiler()
    for tid, mean, count in window:
        profiler.seed(tid, mean, weight=count)
    return profiler


def left_to_right(values):
    """Σ values added in order from 0.0.  Builtin ``sum`` is not this
    from CPython 3.12 on, where it compensates float rounding."""
    return functools.reduce(operator.add, values, 0.0)


def reference_shares(entries):
    """Δ_i of Eq. 1 over ``entries``, summed left to right."""
    total = left_to_right(mean * ratio for _, mean, ratio in entries)
    if total <= 0:
        return {tid: 0.0 for tid, _, _ in entries}
    return {tid: mean * ratio / total for tid, mean, ratio in entries}


def reference_grant_step(entries, n_workers, delta, rounding):
    """Algorithm 2's grant step as the paper states it: (group type ids,
    fractional demands, grants)."""
    groups = []
    for entry in sorted(entries, key=lambda e: e[1]):
        if groups and entry[1] <= groups[-1][0][1] * delta:
            groups[-1].append(entry)
        else:
            groups.append([entry])
    contributions = [
        left_to_right(mean * ratio for _, mean, ratio in g) for g in groups
    ]
    total = left_to_right(contributions)
    demands = [c / total * n_workers for c in contributions]
    if rounding == "round":
        rounded = [math.floor(d + 0.5) for d in demands]
    elif rounding == "ceil":
        rounded = [math.ceil(d) for d in demands]
    else:
        rounded = [math.floor(d) for d in demands]
    ids = [[tid for tid, _, _ in g] for g in groups]
    return ids, demands, [max(1, r) for r in rounded]


def alive_of(n_workers, crashed):
    return [i for i in range(n_workers) if i not in crashed] or [n_workers - 1]


class TestRecheckParity:
    @given(
        installed_entries=installs,
        window=windows,
        n_workers=st.integers(min_value=1, max_value=32),
        crashed_then=st.sets(st.integers(min_value=0, max_value=31), max_size=8),
        crashed_now=st.sets(st.integers(min_value=0, max_value=31), max_size=8),
        delta=deltas,
        rounding=roundings,
        use_spillway=st.booleans(),
    )
    @settings(max_examples=400, deadline=None)
    # Two groups of equal demand over 5 workers: d = 2.5 exactly, where
    # half-up and banker's rounding part.
    @example(
        installed_entries=[(0, 1.0, 0.8), (1, 4.0, 0.2)],
        window=[(0, 1.0, 4), (1, 4.0, 1)],
        n_workers=5,
        crashed_then=set(),
        crashed_now=set(),
        delta=2.0,
        rounding="round",
        use_spillway=True,
    )
    # A type exactly δ times the group's smallest mean stays in the group.
    @example(
        installed_entries=[(0, 1.0, 0.5), (1, 2.0, 0.25), (2, 2.5, 0.25)],
        window=[(0, 1.0, 2), (1, 2.0, 1), (2, 2.5, 1)],
        n_workers=14,
        crashed_then=set(),
        crashed_now=set(),
        delta=2.0,
        rounding="round",
        use_spillway=True,
    )
    def test_recheck_equals_full_rerun(
        self,
        installed_entries,
        window,
        n_workers,
        crashed_then,
        crashed_now,
        delta,
        rounding,
        use_spillway,
    ):
        alive_then = alive_of(n_workers, crashed_then)
        installed = compute_reservation(
            installed_entries,
            n_workers=len(alive_then),
            delta=delta,
            rounding=rounding,
            use_spillway=use_spillway,
            worker_ids=alive_then if len(alive_then) != n_workers else None,
        )
        profiler = profiled(window)
        entries = profiler.window_entries()
        snapshot = profiler.snapshot()
        assert entries == list(snapshot)

        # Deviation: the same float as the snapshot path and the textbook.
        deviation = window_deviation(installed.demand_shares, entries)
        assert deviation == demand_deviation(
            installed.demand_shares, snapshot.demand_shares()
        )
        assert deviation == demand_deviation(
            installed.demand_shares, reference_shares(entries)
        )

        # Grants: the verdict of the library's full plan comparison ...
        n_now = len(alive_of(n_workers, crashed_now))
        verdict = grants_may_differ(installed.plan, entries, n_now, delta, rounding)
        plan = plan_grants(list(snapshot), n_now, delta=delta, rounding=rounding)
        assert verdict == (not plan.same_grants(installed.plan))
        # ... and of the textbook arithmetic, which also pins the plans.
        ids, demands, grants = reference_grant_step(entries, n_now, delta, rounding)
        assert ([g.type_ids for g in plan.groups], plan.demands, plan.grants) == (
            ids,
            demands,
            grants,
        )
        installed_ref = reference_grant_step(
            installed_entries, len(alive_then), delta, rounding
        )
        assert [g.type_ids for g in installed.plan.groups] == installed_ref[0]
        assert installed.plan.grants == installed_ref[2]
        assert verdict == (
            n_now != len(alive_then)
            or ids != installed_ref[0]
            or grants != installed_ref[2]
        )
        # A plan that may differ is the only one that can move a count.
        if not verdict:
            rerun = compute_reservation(
                entries, n_now, delta=delta, rounding=rounding, use_spillway=use_spillway
            )
            assert rerun.reserved_counts() == installed.reserved_counts()


class TestDarcRecheckVerdict:
    """The scheduler's decision on a pending breach equals the full
    Algorithm-2 re-run's: install when the shares moved past the
    threshold or the re-run's worker counts differ, else keep the
    reservation and the breach."""

    @given(
        installed_entries=installs,
        window=windows,
        n_workers=st.integers(min_value=1, max_value=32),
        crashed=st.sets(st.integers(min_value=0, max_value=31), max_size=8),
        delta=deltas,
        rounding=roundings,
        use_spillway=st.booleans(),
        threshold=st.sampled_from([0.1, 2.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_breach_decision_matches_reference(
        self,
        installed_entries,
        window,
        n_workers,
        crashed,
        delta,
        rounding,
        use_spillway,
        threshold,
    ):
        # min_samples so large the window never rolls over.
        sched = DarcScheduler(
            profile=True,
            min_samples=10**9,
            delta=delta,
            rounding=rounding,
            use_spillway=use_spillway,
            min_demand_deviation=threshold,
        )
        h = make_harness(sched, n_workers)
        alive = alive_of(n_workers, crashed)
        for worker in h.workers:
            if worker.worker_id not in alive:
                worker.fail()
        # Installed over the surviving cores, as after a crash.
        sched._install_reservation(installed_entries)
        installed = sched.reservation
        assert installed.n_workers == len(alive)
        for tid, mean, count in window:
            sched.profiler.seed(tid, mean, weight=count)
        snapshot = sched.profiler.snapshot()
        deviation = demand_deviation(installed.demand_shares, snapshot.demand_shares())
        rerun = compute_reservation(
            list(snapshot),
            len(alive),
            delta=delta,
            rounding=rounding,
            use_spillway=use_spillway,
        )
        expected = (
            deviation >= threshold
            or rerun.reserved_counts() != installed.reserved_counts()
        )

        sched._slo_breached = True
        before = sched.reservation_updates
        sched._maybe_update_reservation()
        installed_again = sched.reservation_updates != before
        assert installed_again == expected
        assert sched._slo_breached == (not expected)
        if expected:
            assert sched.reservation.reserved_counts() == rerun.reserved_counts()
