"""Post-hoc tail forensics: causal blame attribution over trace exports.

The trace plane (:mod:`repro.trace`) says *where* a tail request's time
went — pipeline, queue, preemption gaps, service.  This package says
*who* caused it: for every request above a configurable percentile it
reconstructs the **blocking set** (which concrete requests occupied the
victim's candidate workers during its wait windows) and aggregates
per-victim-type × per-blocker-type **blame matrices** — the causal form
of the paper's head-of-line-blocking argument.  On top of that sit the
rack **herding detector** (synchronized balancer choices under stale
views, over the decision log :mod:`repro.rack.tracing` records) and the
cross-run **regression observatory** (:mod:`repro.forensics.registry`).

Everything here is strictly post-hoc: analyses read exported trace
documents and never touch a live run, so forensics can never perturb a
simulation — digest neutrality is structural, not promised.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".blame": ("BlameReport", "analyze_blame"),
        ".herding": ("HerdingReport", "detect_herding"),
        ".registry": ("RunRegistry", "diff_groups"),
    },
)
