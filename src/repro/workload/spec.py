"""Workload specifications: typed mixtures of service-time distributions.

A :class:`WorkloadSpec` is the static description of a workload — the set
of request types, their occurrence ratios, and their per-type service-time
distributions.  From it, experiment drivers derive:

* the workload's mean service time (sets the peak load of a server),
* absolute arrival rates for a target utilization,
* per-type ground truth (for DARC-oracle configurations and reports).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import WorkloadError
from .distributions import Fixed, ServiceTimeDistribution
from .request import RequestTypeSpec


class TypedClass:
    """One request type inside a workload: name, ratio, distribution."""

    __slots__ = ("name", "ratio", "distribution")

    def __init__(self, name: str, ratio: float, distribution: ServiceTimeDistribution):
        if not 0.0 < ratio <= 1.0:
            raise WorkloadError(f"ratio for {name!r} must be in (0,1], got {ratio}")
        self.name = name
        self.ratio = ratio
        self.distribution = distribution

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TypedClass({self.name!r}, ratio={self.ratio}, dist={self.distribution!r})"


class WorkloadSpec:
    """A named mixture of request types.

    Type ids are assigned by position (0..N-1) in the order given, which
    by convention is ascending mean service time — experiment reports rely
    on that ordering but the schedulers do not.
    """

    def __init__(self, name: str, classes: Sequence[TypedClass]):
        if not classes:
            raise WorkloadError("a workload needs at least one request type")
        total = sum(c.ratio for c in classes)
        if abs(total - 1.0) > 1e-9:
            raise WorkloadError(f"type ratios must sum to 1, got {total}")
        self.name = name
        self.classes: List[TypedClass] = list(classes)
        self._ratios = np.array([c.ratio for c in classes])
        self._cumulative = np.cumsum(self._ratios)
        # The ratios may sum to 1 only within 1e-9: a tail below 1 would
        # map a uniform in the gap to the nonexistent type ``n_types``.
        self._cumulative[-1] = 1.0
        #: Cumulative ratios as floats: a uniform ``u`` in [0, 1) is type
        #: ``bisect_right(cumulative, u)``, as in :meth:`sample_type`.
        self.cumulative: List[float] = self._cumulative.tolist()
        #: Per-type service time of types whose distribution is constant
        #: (:attr:`~.distributions.ServiceTimeDistribution.constant`),
        #: None where :meth:`sample_service` must draw.
        self.constant_services: List[Optional[float]] = [
            c.distribution.constant for c in classes
        ]

    @property
    def n_types(self) -> int:
        return len(self.classes)

    def type_names(self) -> List[str]:
        return [c.name for c in self.classes]

    def mean_service_time(self) -> float:
        """Workload-wide mean service time:  sum_i S_i * R_i  (Eq. 1 denominator)."""
        return float(
            sum(c.ratio * c.distribution.mean() for c in self.classes)
        )

    def peak_load(self, n_workers: int) -> float:
        """Maximum sustainable arrival rate (req/us) for ``n_workers``.

        This is the saturation point ``W / E[S]`` that the paper's
        utilization percentages are relative to.
        """
        if n_workers <= 0:
            raise WorkloadError(f"n_workers must be > 0, got {n_workers}")
        return n_workers / self.mean_service_time()

    def type_specs(self) -> List[RequestTypeSpec]:
        """Ground-truth per-type specs (id, name, mean service, ratio)."""
        return [
            RequestTypeSpec(i, c.name, c.distribution.mean(), c.ratio)
            for i, c in enumerate(self.classes)
        ]

    def demand_shares(self) -> np.ndarray:
        """Per-type CPU demand shares Δ_i = S_i R_i / Σ S_j R_j (paper Eq. 1)."""
        contrib = np.array([c.ratio * c.distribution.mean() for c in self.classes])
        return contrib / contrib.sum()

    def dispersion(self) -> float:
        """Ratio of the longest to the shortest mean service time."""
        means = [c.distribution.mean() for c in self.classes]
        return max(means) / min(means)

    def sample_type(self, rng: np.random.Generator) -> int:
        """Draw a type id according to the occurrence ratios."""
        return bisect_right(self.cumulative, rng.random())

    def sample_types(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Vectorized draw of ``n`` type ids."""
        return np.searchsorted(self._cumulative, rng.random(n), side="right")

    def sample_service(self, type_id: int, rng: np.random.Generator) -> float:
        """Draw a service time for ``type_id``."""
        return self.classes[type_id].distribution.sample(rng)

    def describe(self) -> str:
        """Human-readable table of the mix (used by examples and reports)."""
        lines = [f"Workload {self.name!r}  (mean S = {self.mean_service_time():.3f}us, "
                 f"dispersion = {self.dispersion():.1f}x)"]
        for i, c in enumerate(self.classes):
            lines.append(
                f"  type {i} {c.name:<12} S={c.distribution.mean():>9.3f}us  "
                f"ratio={c.ratio:>6.2%}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"WorkloadSpec({self.name!r}, {self.n_types} types)"


def bimodal_spec(
    name: str,
    short_us: float,
    short_ratio: float,
    long_us: float,
    short_name: str = "SHORT",
    long_name: str = "LONG",
) -> WorkloadSpec:
    """Convenience constructor for the paper's two-point workloads."""
    return WorkloadSpec(
        name,
        [
            TypedClass(short_name, short_ratio, Fixed(short_us)),
            TypedClass(long_name, 1.0 - short_ratio, Fixed(long_us)),
        ],
    )


def nmodal_spec(name: str, modes: Sequence[Tuple[str, float, float]]) -> WorkloadSpec:
    """Build an n-modal workload from ``(name, service_us, ratio)`` triples."""
    return WorkloadSpec(
        name,
        [TypedClass(n, ratio, Fixed(s)) for (n, s, ratio) in modes],
    )
