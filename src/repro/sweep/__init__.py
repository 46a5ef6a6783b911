"""``repro.sweep`` — parallel experiment orchestration.

A sweep fans an experiment's (grid point × seed) space out into
independent *cells*, executes them serially or across a process pool,
checkpoints every completed cell to disk, and merges the results into
replicated tables with Student-t confidence intervals.  Determinism is
carried by the cells themselves — each derives its root seed from a
stable hash of its identity — so execution order, worker count and
resume boundaries cannot change any result.

Every name loads on first use, so ``import repro.sweep`` stays free of
the experiments/systems import graph until an orchestration layer is
used.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".cells": ("Cell", "CellResult", "PAIRED_KEYS", "derive_seed", "parse_seeds"),
        ".checkpoint": ("CheckpointStore",),
        ".executor": ("CellOutcome", "execute_cells"),
        ".merge": ("MergedSweep", "merge_results"),
        ".orchestrator": ("run_plan",),
        ".planner": (
            "SweepPlan",
            "experiment_spec",
            "plan_experiment",
            "supported_experiments",
        ),
        ".runner": ("run_cell",),
        ".stats": ("CIStat", "mean_ci", "t_critical"),
    },
)
