"""Figure 7 reproduction: adapting to sudden workload changes.

Paper: across four phases (speed inversion, ratio shift, type
disappearance) at 80% utilization, Perséphone's profiler tracks the new
per-type service times and ratios and adjusts core reservations within
~500 ms, while pending requests of a vanished type drain via the
spillway core.
"""

import numpy as np

from repro.experiments import figure7


def test_figure7(bench_n_requests):
    phases = figure7.default_phases(phase_us=120_000.0)
    result = figure7.run(phases=phases, seed=1, window_us=10_000.0)
    print()
    print(result.render())

    updates = result.reservation_updates["DARC"]
    # At least the initial reservation plus reactions to the three
    # workload changes.
    assert updates >= 3

    times, cores_a = result.alloc_series["DARC"][figure7.TYPE_A]
    _, cores_b = result.alloc_series["DARC"][figure7.TYPE_B]
    boundaries = result.phase_boundaries

    def window_mask(lo, hi):
        return (times >= lo) & (times < hi)

    # Phase 1 (A long, B short): once reserved, B holds few cores and A
    # holds many — sample the second half of the phase (post warm-up).
    phase1 = window_mask(boundaries[0] / 2, boundaries[0])
    assert cores_a[phase1].max() > cores_b[phase1].max()

    # Phase 2 (inverted): by the end of the phase the allocation flipped.
    phase2_late = window_mask((boundaries[0] + boundaries[1]) / 2, boundaries[1])
    assert cores_b[phase2_late].max() > cores_a[phase2_late].max()

    # Phase 3 (99.5% A-fast): A's reservation grows above one core.
    phase3_late = window_mask((boundaries[1] + boundaries[2]) / 2, boundaries[2])
    assert cores_a[phase3_late].max() >= 2

    # Every generated request eventually completed (spillway drained the
    # straggler B requests of phase 4).
    for summary in result.summaries.values():
        assert summary.dropped == 0
