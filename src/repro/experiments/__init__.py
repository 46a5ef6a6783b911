"""Experiment drivers — one module per paper figure/table.

Each ``figureN`` module (and ``chaos``, ``rack``) declares its grid,
SLO and findings once as ``SPEC`` (a
:class:`~repro.sweep.planner.ExperimentSpec`), and exposes ``run(...)``
returning a structured result and ``render(result)`` producing the text
analogue of the paper's plot.  Scale knobs (``n_requests``,
``utilizations``) default to values that keep pure-Python runtimes
reasonable; crank them up for tighter tails.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".": (
            "figure1",
            "figure3",
            "figure4",
            "figure5",
            "figure6",
            "figure7",
            "figure8",
            "figure9",
            "figure10",
            "tables",
        ),
        ".common": (
            "DEFAULT_N_REQUESTS",
            "DEFAULT_WARMUP_FRAC",
            "RunResult",
            "run_once",
            "run_sweep",
            "run_trace",
        ),
        ".results": ("FigureResult",),
    },
)
