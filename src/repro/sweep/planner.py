"""Cell planner: expand (experiment × grid point × seed) into cells.

Every orchestrable experiment registers an :class:`ExperimentSpec`
describing its grid — which workloads it runs, which systems it
compares, its default load points and request counts, and the SLO /
metric its capacity findings use.  :func:`plan_experiment` expands that
grid crossed with the requested seeds into a flat list of independent
:class:`~repro.sweep.cells.Cell`\\ s, each carrying a deterministically
derived root seed, and wraps it in a serializable :class:`SweepPlan`.

Each figure module declares its own ``SPEC``; the registry only
collects them, so a pooled sweep and the serial driver run exactly the
same cells — one description per experiment.
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union,
)

from ..errors import ConfigurationError
from .cells import Cell


class ExperimentSpec(NamedTuple):
    """One experiment's grid, declared once in its figure module.

    The planner expands it into cells, the runner executes those cells,
    the serial drivers run the same cells in-process, and
    :func:`~repro.sweep.merge.merge_results` and the drivers state the
    same findings through :attr:`findings`.
    """

    name: str
    #: "load_sweep" | "phased" | "chaos" | "rack" | "selftest"
    kind: str
    #: Workload tokens the experiment iterates over ("" when implicit).
    workloads: Tuple[str, ...]
    #: workload token -> WorkloadSpec (the phase list for "phased").
    spec_for: Optional[Callable[[str], Any]]
    #: workload token -> list of SystemModel (fresh instances per call).
    systems_for: Optional[Callable[[str], List[Any]]]
    #: Default load points (empty for experiments without a load axis).
    utilizations: Tuple[float, ...]
    #: Default arrivals per cell.
    n_requests: int
    #: workload token -> SLO threshold for capacity findings (may be {}).
    slo: Dict[str, float] = {}
    #: Metric key (in CellResult.metrics) the SLO applies to.
    capacity_metric: str = "overall_tail_slowdown"
    #: Metric keys the generic (non-load) merged table shows, in order.
    table_metrics: Tuple[str, ...] = ()
    #: Outcomes -> {section: {finding: value}}; a section is a workload
    #: or balancer the serial driver reports apart ("" for the whole
    #: experiment).  Capacity findings ("capacity@...") are the serial
    #: tables' view of what the merged output lists as capacities.
    findings: Optional[Callable[[Any], Dict[str, Dict[str, float]]]] = None
    #: Live run result -> extra cell metrics the findings read.
    cell_metrics: Optional[Callable[[Any], Dict[str, float]]] = None
    #: Balancers swept per workload (rack grids only).
    balancers: Tuple[str, ...] = ()
    #: Fixed parameters every cell carries (e.g. the rack's n_servers).
    cell_params: Dict[str, Any] = {}


def _registry() -> Dict[str, ExperimentSpec]:
    # Imported here (not at module top) so `import repro.sweep` stays
    # cheap and free of import cycles with repro.experiments.
    from ..experiments import (
        chaos,
        figure1,
        figure3,
        figure4,
        figure5,
        figure6,
        figure7,
        figure8,
        figure9,
        figure10,
        rack,
    )

    modules = (
        chaos, figure1, figure3, figure4, figure5, figure6, figure7,
        figure8, figure9, figure10, rack,
    )
    registry = {module.SPEC.name: module.SPEC for module in modules}
    registry[SELFTEST] = ExperimentSpec(
        name=SELFTEST,
        kind="selftest",
        workloads=("",),
        spec_for=None,
        systems_for=None,
        utilizations=(),
        n_requests=400,
        capacity_metric="value",
        table_metrics=("value",),
    )
    return registry


#: Hidden experiment exercising the executor itself (crash isolation,
#: timeouts, latency overlap) without a full simulation per cell.
SELFTEST = "_selftest"


def experiment_spec(name: str) -> ExperimentSpec:
    spec = _registry().get(name)
    if spec is None:
        raise ConfigurationError(
            f"unknown sweep experiment {name!r} (choices: "
            f"{', '.join(supported_experiments())})"
        )
    return spec


def supported_experiments() -> List[str]:
    """Public, orchestrable experiment names (selftest excluded)."""
    return sorted(name for name in _registry() if not name.startswith("_"))


class SweepPlan(NamedTuple):
    """A fully expanded, serializable sweep."""

    experiment: str
    seeds: Tuple[int, ...]
    n_requests: int
    utilizations: Tuple[float, ...]
    cells: Tuple[Cell, ...]

    def to_doc(self) -> Dict[str, Any]:
        return {
            "kind": "repro-sweep-plan",
            "version": 1,
            "experiment": self.experiment,
            "seeds": list(self.seeds),
            "n_requests": self.n_requests,
            "utilizations": list(self.utilizations),
            "cells": [cell.to_doc() for cell in self.cells],
        }

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "SweepPlan":
        if doc.get("kind") != "repro-sweep-plan":
            raise ConfigurationError(
                f"not a sweep plan document: kind={doc.get('kind')!r}"
            )
        return cls(
            experiment=doc["experiment"],
            seeds=tuple(int(s) for s in doc["seeds"]),
            n_requests=int(doc["n_requests"]),
            utilizations=tuple(float(u) for u in doc["utilizations"]),
            cells=tuple(Cell.from_doc(c) for c in doc["cells"]),
        )


def plan_experiment(
    experiment: Union[str, ExperimentSpec],
    seeds: Sequence[int] = (1,),
    n_requests: Optional[int] = None,
    utilizations: Optional[Sequence[float]] = None,
) -> SweepPlan:
    """Expand one experiment's grid × seeds into independent cells.

    ``experiment`` is a registered name or a spec (a serial driver
    passes its own spec with the caller's systems or balancers).  Cell
    ordering is deterministic (workload-major, then balancer, then load
    point, then system, then seed) but carries no meaning: every cell
    is independent and the executor may complete them in any order.
    """
    if not seeds:
        raise ConfigurationError("need at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ConfigurationError(f"duplicate seeds in {list(seeds)!r}")
    spec = (
        experiment_spec(experiment) if isinstance(experiment, str) else experiment
    )
    if spec.systems_for is None:
        raise ConfigurationError(f"experiment {spec.name!r} is not plannable")
    n = int(n_requests) if n_requests is not None else spec.n_requests
    utils = (
        tuple(float(u) for u in utilizations)
        if utilizations is not None
        else spec.utilizations
    )
    cells: List[Cell] = []
    for workload in spec.workloads:
        names = [s.name for s in spec.systems_for(workload)]
        for balancer in spec.balancers or (None,):
            # Experiments without a load axis (phased) carry neither a
            # load point nor a request count.
            for rho in utils or (None,):
                params: Dict[str, Any] = {"workload": workload, **spec.cell_params}
                if balancer is not None:
                    params["balancer"] = balancer
                if rho is not None:
                    params.update(rho=rho, n_requests=n)
                for name in names:
                    for seed in seeds:
                        cells.append(
                            Cell.make(spec.name, {**params, "system": name}, seed)
                        )
    return SweepPlan(
        experiment=spec.name,
        seeds=tuple(int(s) for s in seeds),
        n_requests=n,
        utilizations=utils,
        cells=tuple(cells),
    )


def plan_selftest(
    n_cells: int,
    seeds: Sequence[int] = (1,),
    mode: str = "ok",
    duration_ms: float = 0.0,
    n_requests: int = 400,
) -> SweepPlan:
    """A grid of executor-selftest cells (see :mod:`repro.sweep.runner`)."""
    cells = [
        Cell.make(
            SELFTEST,
            {
                "index": index,
                "mode": mode,
                "duration_ms": float(duration_ms),
                "n_requests": int(n_requests),
            },
            seed,
        )
        for index in range(n_cells)
        for seed in seeds
    ]
    return SweepPlan(
        experiment=SELFTEST,
        seeds=tuple(int(s) for s in seeds),
        n_requests=int(n_requests),
        utilizations=(),
        cells=tuple(cells),
    )
