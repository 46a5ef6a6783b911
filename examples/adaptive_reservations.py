#!/usr/bin/env python3
"""Watching DARC adapt to workload changes (the Fig. 7 experiment).

Drives four workload phases through a profiled DARC server:

  phase 1: A slow (100us) / B fast (1us), 50/50   -> B gets 1 core
  phase 2: speeds invert (A fast, B slow)         -> reservation flips
  phase 3: 99.5% A (fast)                         -> A's demand grows
  phase 4: A only                                 -> B falls to spillway

and prints the guaranteed-core timeline plus per-phase p99.9 latency.

Run:  python examples/adaptive_reservations.py
"""

from repro.experiments import figure7

PHASE_US = 100_000.0


def _shown(latency) -> str:
    """A window's p99.9, or "-" when the window had no requests."""
    return "-" if latency is None or latency != latency else f"{latency:.1f}"


def main() -> None:
    phases = figure7.default_phases(phase_us=PHASE_US)
    print("Phases (all at 80% utilization):")
    for i, phase in enumerate(phases):
        parts = ", ".join(
            f"{c.name}={c.distribution.mean():g}us@{c.ratio:.1%}"
            for c in phase.spec.classes
        )
        print(f"  {i + 1}: {parts}")
    print()

    result = figure7.run(phases=phases, seed=2, window_us=20_000.0)

    updates = result.reservation_updates["DARC"]
    print(f"DARC performed {updates} reservation updates\n")

    times, cores_a = result.alloc_series["DARC"][figure7.TYPE_A]
    _, cores_b = result.alloc_series["DARC"][figure7.TYPE_B]
    # Each latency series has its own windows: a type's series ends with
    # its last arrival (B sends nothing in phase 4).
    lat_a = dict(zip(*result.latency_series["DARC"][figure7.TYPE_A]))
    lat_b = dict(zip(*result.latency_series["DARC"][figure7.TYPE_B]))

    print(f"{'t (ms)':>8} {'cores A':>8} {'cores B':>8} "
          f"{'p99.9 A (us)':>14} {'p99.9 B (us)':>14}")
    for i, t in enumerate(times):
        la = _shown(lat_a.get(t))
        lb = _shown(lat_b.get(t))
        print(f"{t / 1000:>8.0f} {cores_a[i]:>8} {cores_b[i]:>8} {la:>14} {lb:>14}")

    print("\nFor comparison, c-FCFS p99.9 across the whole run:")
    summary = result.summaries["c-FCFS"]
    print(summary.describe())


if __name__ == "__main__":
    main()
