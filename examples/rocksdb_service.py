#!/usr/bin/env python3
"""The §5.4.4 RocksDB service: GET/SCAN over 5000 keys.

Executes real point lookups and full scans on the in-memory ordered
store, then sweeps load across Shenango, Shinjuku (15us quantum) and
Perséphone to find each system's capacity under a 20x slowdown SLO —
the paper's headline: DARC sustains ~2.3x / ~1.3x more load.

Run:  python examples/rocksdb_service.py [--quick]
"""

import sys

from repro.apps.rocksdb import RocksDbLike
from repro.experiments.common import overall_slowdown_metric, run_sweep
from repro.experiments.results import FigureResult
from repro.systems.persephone import PersephoneSystem
from repro.systems.shenango import ShenangoSystem
from repro.systems.shinjuku import ShinjukuSystem

SLO = 20.0
LOADS = (0.3, 0.5, 0.65, 0.75, 0.85, 0.95)


def demo_store() -> None:
    store = RocksDbLike()
    print(f"store: {store!r}")
    value = store.get_by_index(4242)
    print(f"GET #4242 -> {value[:24]!r}  (costs {store.get_us}us on the testbed)")
    items = store.scan()
    print(f"SCAN -> {len(items)} items (costs {store.scan_us}us, "
          f"{store.dispersion:.0f}x a GET)")
    window = store.range_scan("key00001000", "key00001005")
    print(f"range scan: {[k for k, _ in window]}\n")


def demo_capacity(n_requests: int) -> None:
    spec = RocksDbLike().workload_spec()
    systems = [
        ShenangoSystem(n_workers=14, name="Shenango"),
        ShinjukuSystem(n_workers=14, quantum_us=15.0, mode="multi", name="Shinjuku"),
        PersephoneSystem(n_workers=14, oracle=False, name="Persephone"),
    ]
    result = FigureResult("RocksDB", LOADS)
    for system in systems:
        sweep = run_sweep(system, spec, LOADS, n_requests=n_requests, seed=6)
        result.add_sweep(system.name, sweep)
        row = "  ".join(
            f"{overall_slowdown_metric(r):9.1f}x" for r in sweep
        )
        print(f"{system.name:<12} slowdown by load {LOADS}: {row}")
    capacities = result.capacities(SLO, overall_slowdown_metric)
    print()
    for name, cap in capacities.items():
        shown = f"{cap:.0%} of peak" if cap else "below lowest point"
        print(f"capacity at {SLO:g}x slowdown [{name}]: {shown}")
    if capacities.get("Persephone") and capacities.get("Shenango"):
        print(f"\nDARC sustains {capacities['Persephone'] / capacities['Shenango']:.1f}x "
              f"Shenango's load (paper: 2.3x)")
    if capacities.get("Persephone") and capacities.get("Shinjuku"):
        print(f"DARC sustains {capacities['Persephone'] / capacities['Shinjuku']:.2f}x "
              f"Shinjuku's load (paper: 1.3x)")


def main() -> None:
    # Profiled DARC spends its first ~2000 completions in c-FCFS warm-up;
    # --quick must stay comfortably above that or the recorded tail is
    # dominated by the pre-reservation window.
    n_requests = 25_000 if "--quick" in sys.argv else 60_000
    demo_store()
    demo_capacity(n_requests)


if __name__ == "__main__":
    main()
