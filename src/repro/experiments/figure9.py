"""Figure 9 (§5.6): DARC with a broken (random) request classifier.

High Bimodal on an 8-worker server (the paper's two-node Silver 4114
setup).  DARC-random pushes every request to a uniformly random typed
queue; each queue then holds an even mix of both types, so reservations
protect nothing and behaviour converges to c-FCFS — which is exactly the
desired failure mode (broken classifiers degrade gracefully, they don't
melt down).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.classifier import RandomClassifier
from ..sweep.planner import ExperimentSpec
from ..systems.base import SystemModel
from ..systems.persephone import PersephoneCfcfsSystem, PersephoneSystem
from ..workload.presets import high_bimodal
from .common import collect_forensics, overall_slowdown_metric
from .results import FigureResult, run_load_figure

N_WORKERS = 8
DEFAULT_UTILIZATIONS = (0.2, 0.35, 0.5, 0.65, 0.8, 0.9)


def _random_classifier_factory(spec, rngs):
    return RandomClassifier(n_types=spec.n_types, rng=rngs.stream("classifier"))


def default_systems() -> List[SystemModel]:
    return [
        PersephoneCfcfsSystem(n_workers=N_WORKERS, name="c-FCFS"),
        PersephoneSystem(n_workers=N_WORKERS, oracle=False, name="DARC"),
        PersephoneSystem(
            n_workers=N_WORKERS,
            oracle=False,
            classifier_factory=_random_classifier_factory,
            name="DARC-random",
        ),
    ]


def findings(outcomes) -> Dict[str, Dict[str, float]]:
    """Convergence check: mean |log-ratio| of the DARC-random and c-FCFS
    slowdown curves (first replicate)."""
    facts: Dict[str, float] = {}
    systems = outcomes.values("system")
    if "DARC-random" in systems and "c-FCFS" in systems:
        ratios = []
        for rho in outcomes.rhos():
            a = outcomes.first("overall_tail_slowdown", system="DARC-random", rho=rho)
            b = outcomes.first("overall_tail_slowdown", system="c-FCFS", rho=rho)
            if a > 0 and b > 0 and a == a and b == b:
                ratios.append(abs(np.log(a / b)))
        if ratios:
            facts["mean |log slowdown ratio| (DARC-random vs c-FCFS)"] = float(
                np.mean(ratios)
            )
    return {"": facts}


SPEC = ExperimentSpec(
    name="figure9",
    kind="load_sweep",
    workloads=("high_bimodal",),
    spec_for=lambda workload: high_bimodal(),
    systems_for=lambda workload: default_systems(),
    utilizations=DEFAULT_UTILIZATIONS,
    n_requests=50_000,
    findings=findings,
)


def run(
    utilizations: Sequence[float] = DEFAULT_UTILIZATIONS,
    n_requests: int = 50_000,
    seed: int = 1,
    systems: Optional[List[SystemModel]] = None,
    sanitize: bool = False,
    trace_dir: Optional[str] = None,
    metrics_dir: Optional[str] = None,
    seeds: Optional[Sequence[int]] = None,
    forensics_dir: Optional[str] = None,
) -> FigureResult:
    result = run_load_figure(
        SPEC, "Figure 9 [random classifier]", utilizations, n_requests,
        seed=seed, seeds=seeds, systems=systems, sanitize=sanitize,
        trace_dir=trace_dir, metrics_dir=metrics_dir,
    )
    collect_forensics(forensics_dir, trace_dir, "figure9")
    return result


def render(result: FigureResult) -> str:
    return (
        result.render_metric(overall_slowdown_metric, "overall p99.9 slowdown (x)")
        + "\n\n"
        + result.render_findings()
    )
