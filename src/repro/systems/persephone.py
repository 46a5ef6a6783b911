"""The Perséphone system model: DARC behind the Fig. 2 pipeline."""

from __future__ import annotations

from typing import Callable, Optional

from ..core.classifier import OracleClassifier, RequestClassifier
from ..core.darc import DarcScheduler, check_darc_params
from ..core.static import DarcStatic
from ..policies.base import Scheduler
from ..policies.fcfs import CentralizedFCFS, DecentralizedFCFS
from ..server.config import ServerConfig
from ..sim.randomness import RngRegistry
from ..workload.spec import WorkloadSpec
from .base import SystemModel

ClassifierFactory = Callable[[WorkloadSpec, RngRegistry], RequestClassifier]


class PersephoneSystem(SystemModel):
    """Perséphone running DARC.

    ``oracle=True`` computes the reservation once from ground truth (the
    §2 policy simulations); ``oracle=False`` starts in c-FCFS and profiles
    online like the prototype (§5 experiments).

    ``classifier_factory`` lets experiments install broken classifiers
    (Fig. 9) or partial ones; by default an oracle header classifier.
    """

    def __init__(
        self,
        n_workers: int = 14,
        oracle: bool = False,
        delta: float = 2.0,
        min_samples: int = 2000,
        ema_alpha: float = 0.05,
        slo_slowdown: float = 10.0,
        min_demand_deviation: float = 0.10,
        classifier_factory: Optional[ClassifierFactory] = None,
        prototype_costs: bool = False,
        name: Optional[str] = None,
    ):
        super().__init__(n_workers=n_workers)
        check_darc_params(delta, min_samples, min_demand_deviation, slo_slowdown)
        self.oracle = oracle
        self.delta = delta
        self.min_samples = min_samples
        self.ema_alpha = ema_alpha
        self.slo_slowdown = slo_slowdown
        self.min_demand_deviation = min_demand_deviation
        self.classifier_factory = classifier_factory
        self.prototype_costs = prototype_costs
        self.name = name or "Persephone (DARC)"

    def make_scheduler(self, spec: WorkloadSpec, rngs: RngRegistry) -> Scheduler:
        if self.classifier_factory is not None:
            classifier = self.classifier_factory(spec, rngs)
        else:
            classifier = OracleClassifier()
        return DarcScheduler(
            classifier=classifier,
            delta=self.delta,
            profile=not self.oracle,
            type_specs=spec.type_specs() if self.oracle else None,
            ema_alpha=self.ema_alpha,
            min_samples=self.min_samples,
            min_demand_deviation=self.min_demand_deviation,
            slo_slowdown=self.slo_slowdown,
        )

    def make_config(self) -> ServerConfig:
        if self.prototype_costs:
            return ServerConfig.prototype(n_workers=self.n_workers)
        return ServerConfig(n_workers=self.n_workers)


class PersephoneStaticSystem(SystemModel):
    """Perséphone running DARC-static(k) — the §5.3 manual sweep."""

    def __init__(self, n_reserved: int, n_workers: int = 14, name: Optional[str] = None):
        super().__init__(n_workers=n_workers)
        self.n_reserved = n_reserved
        self.name = name or f"DARC-static({n_reserved})"

    def make_scheduler(self, spec: WorkloadSpec, rngs: RngRegistry) -> Scheduler:
        return DarcStatic(spec.type_specs(), n_reserved=self.n_reserved)


class PersephoneCfcfsSystem(SystemModel):
    """Perséphone's pipeline running plain c-FCFS (the Fig. 3 baseline —
    centralized dispatch without reservations)."""

    def __init__(self, n_workers: int = 14, name: Optional[str] = None):
        super().__init__(n_workers=n_workers)
        self.name = name or "Persephone (c-FCFS)"

    def make_scheduler(self, spec: WorkloadSpec, rngs: RngRegistry) -> Scheduler:
        return CentralizedFCFS()


class PersephoneDfcfsSystem(SystemModel):
    """Perséphone's pipeline running d-FCFS (Fig. 3's other baseline)."""

    def __init__(self, n_workers: int = 14, name: Optional[str] = None):
        super().__init__(n_workers=n_workers)
        self.name = name or "Persephone (d-FCFS)"

    def make_scheduler(self, spec: WorkloadSpec, rngs: RngRegistry) -> Scheduler:
        return DecentralizedFCFS(steering="random", rng=rngs.stream("rss"))
