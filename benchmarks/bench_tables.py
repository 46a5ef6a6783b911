"""Table reproductions: Tables 1, 3, 4, 5 plus the TPC-C reservation of
§5.4.3, all generated from code so they cannot drift from the
implementation."""

import pytest

from repro.core.reservation import compute_reservation
from repro.experiments import tables
from repro.workload.presets import TPCC_TRANSACTIONS


def test_tables_render():
    text = tables.render_all()
    print()
    print(text)

    rows1 = tables.table1_rows()
    # Table 1's defining bits: only DARC is typed + non-WC + non-preempt.
    darc = next(r for r in rows1 if r[0] == "DARC")
    assert darc[1:4] == [True, True, True]
    cfcfs = next(r for r in rows1 if r[0] == "c-FCFS")
    assert cfcfs[1:4] == [False, False, True]
    ts = next(r for r in rows1 if r[0] == "TS")
    assert ts[1:4] == [True, False, False]

    # Table 3 dispersions.
    rows3 = {r[0]: r[5] for r in tables.table3_rows()}
    assert rows3["high_bimodal"] == pytest.approx(100.0)
    assert rows3["extreme_bimodal"] == pytest.approx(1000.0)

    # Table 4 ratios sum to 1 and max dispersion ~17.5x.
    rows4 = tables.table4_rows()
    assert sum(r[2] for r in rows4) == pytest.approx(1.0)
    assert max(r[3] for r in rows4) == pytest.approx(100.0 / 5.7)


def test_tpcc_reservation_table():
    """§5.4.3's worker assignment: groups A/B/C onto workers 1-2/3-8/9-14."""
    entries = [
        (i, runtime, ratio) for i, (_, runtime, ratio) in enumerate(TPCC_TRANSACTIONS)
    ]
    reservation = compute_reservation(entries, n_workers=14, delta=2.0)
    print()
    print(reservation.describe())
    reserved = [alloc.reserved for alloc in reservation.allocations]
    assert reserved == [[0, 1], [2, 3, 4, 5, 6, 7], [8, 9, 10, 11, 12, 13]]
    assert reservation.expected_waste() == pytest.approx(0.0, abs=1e-9)
